// Scoped helpers shared by the test binaries: each restores what a test
// changed when it goes out of scope, so an ASSERT that returns early
// leaves no state behind for the tests after it.
#pragma once

#include <omp.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>

namespace commdet {

/// Restores the ambient OpenMP thread count when it goes out of scope.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(omp_get_max_threads()) {}
  ~ThreadCountGuard() { omp_set_num_threads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

/// A fresh per-process directory under the system temp directory,
/// removed with everything in it when it goes out of scope.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(std::string_view stem)
      : path_(std::filesystem::temp_directory_path() /
              (std::string(stem) + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  [[nodiscard]] std::string string() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace commdet
