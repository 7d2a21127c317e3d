// Per-process scratch directories for the tests that write real files
// (WALs, checkpoints). Every directory lives under one root named after
// the process id, so two test processes — say a Release ctest and a
// sanitizer run of the same suite from another build tree — never touch
// each other's files. The root is removed when the process exits
// normally.

#ifndef STORYPIVOT_TESTS_SCRATCH_DIR_H_
#define STORYPIVOT_TESTS_SCRATCH_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <utility>
#include <vector>

#include "util/fs.h"
#include "util/logging.h"
#include "util/status.h"

namespace storypivot {

namespace scratch_internal {

/// Removes `path` and, if it is a directory, everything under it.
inline void RemoveTree(const std::string& path) {
  Result<std::vector<std::string>> names = ListDirectory(path);
  if (names.ok()) {  // A directory: empty it, then remove it.
    for (const std::string& entry : names.value()) {
      RemoveTree(path + "/" + entry);
    }
    IgnoreError(RemoveDirectory(path));
    return;
  }
  IgnoreError(RemoveFile(path));
}

/// Owns the per-process root; its destructor runs at normal exit.
class ScratchRoot {
 public:
  explicit ScratchRoot(std::string path) : path_(std::move(path)) {}
  ~ScratchRoot() { RemoveTree(path_); }
  ScratchRoot(const ScratchRoot&) = delete;
  ScratchRoot& operator=(const ScratchRoot&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace scratch_internal

/// Returns an empty directory `<TempDir>/sp_test_<pid>/<name>`.
inline std::string FreshDir(const std::string& name) {
  static const scratch_internal::ScratchRoot root(
      ::testing::TempDir() + "/sp_test_" + std::to_string(getpid()));
  const std::string dir = root.path() + "/" + name;
  scratch_internal::RemoveTree(dir);
  SP_CHECK_OK(CreateDirectories(dir));
  return dir;
}

}  // namespace storypivot

#endif  // STORYPIVOT_TESTS_SCRATCH_DIR_H_
