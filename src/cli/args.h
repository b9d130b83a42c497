// Tiny argument parser for the pghive CLI: positional arguments plus
// --flag / --flag=value / --flag value options.

#ifndef PGHIVE_CLI_ARGS_H_
#define PGHIVE_CLI_ARGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace pghive {

class Args {
 public:
  /// Parses argv[1..]; flags start with "--". "--k=v", "--k v" and bare
  /// "--k" (value "true") are accepted.
  static Args Parse(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& flag) const { return flags_.count(flag) > 0; }

  std::string GetString(const std::string& flag,
                        const std::string& fallback = "") const;
  double GetDouble(const std::string& flag, double fallback) const;
  int64_t GetInt(const std::string& flag, int64_t fallback) const;
  bool GetBool(const std::string& flag, bool fallback = false) const;

  /// Flags the program never consumed; used to report typos.
  std::vector<std::string> UnknownFlags(
      const std::vector<std::string>& known) const;

  /// Worker-thread count for the execution runtime: the --threads flag when
  /// present, else the PGHIVE_THREADS environment variable, else 1
  /// (sequential). 0 means "hardware concurrency". The flag value must be a
  /// complete non-negative decimal that fits in an int; anything else
  /// (signs, suffixes, overflow, a bare --threads) is InvalidArgument.
  Result<int> GetThreads() const;

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
};

}  // namespace pghive

#endif  // PGHIVE_CLI_ARGS_H_
