// Scratch directories for tests that write state to disk.
//
// ctest runs every gtest case as its own process, so under `ctest -j` a
// directory named only after its purpose would be shared (and wiped) by
// concurrently running cases. TestDir scopes it to the running case and
// the process.

#ifndef PGHIVE_TESTS_TEST_DIR_H_
#define PGHIVE_TESTS_TEST_DIR_H_

#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace pghive {

/// An empty path `TempDir()/pghive_<name>_<suite>.<test>_<pid>` (anything
/// left there by an earlier run is removed). '/' in parameterized test
/// names becomes '_'.
inline std::string TestDir(const std::string& name) {
  std::string test = "no_test";
  if (const testing::TestInfo* info =
          testing::UnitTest::GetInstance()->current_test_info()) {
    test = std::string(info->test_suite_name()) + "." + info->name();
  }
  for (char& c : test) {
    if (c == '/') c = '_';
  }
  std::string dir = testing::TempDir() + "/pghive_" + name + "_" + test +
                    "_" + std::to_string(getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace pghive

#endif  // PGHIVE_TESTS_TEST_DIR_H_
