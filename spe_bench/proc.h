#ifndef SPE_BENCH_PROC_H_
#define SPE_BENCH_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace spe_bench {

/// CLOCK_MONOTONIC in nanoseconds (the clock every bench timer reads).
std::int64_t NowNs();

/// One production binary run as a child process (vfork + execve). The
/// child's stdout and stderr go to `log_path`; `extra_env` entries
/// ("KEY=VALUE") are added to the inherited environment. The destructor
/// kills and reaps a child that is still running, so no process outlives
/// the bench.
class Child {
 public:
  Child() = default;
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Starts the child. Returns "" or a description of the failure.
  std::string Start(const std::vector<std::string>& argv,
                    const std::vector<std::string>& extra_env,
                    const std::string& log_path);

  /// Waits up to `timeout_s` for the child to exit and reaps it. Returns
  /// true once reaped (exit_code is then valid).
  bool Wait(double timeout_s);

  /// True when the child has exited (without reaping it).
  bool Exited() const;

  void Signal(int sig) const;

  /// Peak resident set size so far of the running child (VmHWM, KiB), or
  /// -1. Unlike ru_maxrss after exit, it counts only the child's own
  /// image, not this process's memory that the child started from.
  long PeakRssKb() const;

  /// Exit status of a reaped child: the exit code, or 128 + signal.
  int exit_code() const { return exit_code_; }

 private:
  pid_t pid_ = -1;
  int pidfd_ = -1;
  int exit_code_ = -1;
};

/// An unused loopback TCP port, found by binding port 0.
int FreeLoopbackPort();

/// Whole-file helpers; ReadFile returns false when the file cannot be read.
bool ReadFile(const std::string& path, std::string* out);
bool WriteFile(const std::string& path, const std::string& bytes);
std::int64_t FileSize(const std::string& path);

/// Deletes `path` and everything below it (no error if absent).
void RemoveTree(const std::string& path);

}  // namespace spe_bench

#endif  // SPE_BENCH_PROC_H_
