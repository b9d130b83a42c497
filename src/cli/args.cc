#include "cli/args.h"

#include <charconv>
#include <climits>
#include <cstdlib>

#include "common/string_util.h"
#include "runtime/thread_pool.h"

namespace pghive {

Args Args::Parse(int argc, const char* const* argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      args.positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      args.flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--k v" when the next token is not itself a flag; bare "--k" = true.
    if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      args.flags_[body] = argv[++i];
    } else {
      args.flags_[body] = "true";
    }
  }
  return args;
}

std::string Args::GetString(const std::string& flag,
                            const std::string& fallback) const {
  auto it = flags_.find(flag);
  return it == flags_.end() ? fallback : it->second;
}

double Args::GetDouble(const std::string& flag, double fallback) const {
  auto it = flags_.find(flag);
  return it == flags_.end() ? fallback : std::atof(it->second.c_str());
}

int64_t Args::GetInt(const std::string& flag, int64_t fallback) const {
  auto it = flags_.find(flag);
  return it == flags_.end() ? fallback : std::atoll(it->second.c_str());
}

bool Args::GetBool(const std::string& flag, bool fallback) const {
  auto it = flags_.find(flag);
  if (it == flags_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

Result<int> Args::GetThreads() const {
  auto it = flags_.find("threads");
  if (it == flags_.end()) return ThreadCountFromEnv(/*fallback=*/1);
  // Unsigned parse: std::from_chars takes no sign, whitespace or prefix, so
  // only a plain run of digits reaches the range check.
  const std::string& v = it->second;
  const char* end = v.data() + v.size();
  unsigned long long threads = 0;
  const auto [stop, ec] = std::from_chars(v.data(), end, threads);
  if (ec != std::errc() || stop != end || threads > INT_MAX) {
    return Status::InvalidArgument(
        "--threads must be a non-negative integer (0 = hardware "
        "concurrency), got '" + v + "'");
  }
  return static_cast<int>(threads);
}

std::vector<std::string> Args::UnknownFlags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [flag, value] : flags_) {
    bool found = false;
    for (const auto& k : known) {
      if (k == flag) {
        found = true;
        break;
      }
    }
    if (!found) unknown.push_back(flag);
  }
  return unknown;
}

}  // namespace pghive
