#include "proc.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

extern char** environ;

namespace spe_bench {

std::int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Child::~Child() {
  if (pid_ <= 0) return;
  Signal(SIGKILL);
  Wait(10.0);
  if (pidfd_ >= 0) close(pidfd_);
}

std::string Child::Start(const std::vector<std::string>& argv,
                         const std::vector<std::string>& extra_env,
                         const std::string& log_path) {
  if (pid_ > 0) return "child already running";
  // Everything the child needs is built before vfork: the child borrows
  // this process's memory until execve, so it only makes system calls.
  // vfork also skips copying the bench's page tables: with fork, that
  // took 2-8 ms of each timed spe_serve start (about half of it) and
  // varied from run to run.
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::vector<std::string> env_storage;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    bool overridden = false;
    for (const std::string& x : extra_env) {
      const std::size_t eq = x.find('=');
      if (entry.compare(0, eq + 1, x, 0, eq + 1) == 0) overridden = true;
    }
    if (!overridden) env_storage.push_back(entry);
  }
  for (const std::string& x : extra_env) env_storage.push_back(x);
  std::vector<char*> env;
  for (std::string& e : env_storage) env.push_back(e.data());
  env.push_back(nullptr);

  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) return "cannot open " + log_path + ": " + std::strerror(errno);
  const pid_t pid = vfork();
  if (pid < 0) {
    close(log_fd);
    return std::string("vfork: ") + std::strerror(errno);
  }
  if (pid == 0) {
    // A bench that dies (an abort in a library call) takes its children
    // along instead of leaving a server listening.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int null_fd = open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (null_fd >= 0) dup2(null_fd, 0);
    dup2(log_fd, 1);
    dup2(log_fd, 2);
    execve(args[0], args.data(), env.data());
    _exit(127);
  }
  close(log_fd);
  pid_ = pid;
  exit_code_ = -1;
  pidfd_ = static_cast<int>(syscall(SYS_pidfd_open, pid, 0));
  if (pidfd_ < 0) {
    const std::string error = std::string("pidfd_open: ") + std::strerror(errno);
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    pid_ = -1;
    return error;
  }
  return "";
}

bool Child::Exited() const {
  if (pid_ <= 0) return true;
  siginfo_t info{};
  info.si_pid = 0;
  if (waitid(P_PID, static_cast<id_t>(pid_), &info,
             WEXITED | WNOHANG | WNOWAIT) != 0) {
    return true;
  }
  return info.si_pid == pid_;
}

bool Child::Wait(double timeout_s) {
  if (pid_ <= 0) return true;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(timeout_s * 1e9);
  for (;;) {
    int status = 0;
    const pid_t got = waitpid(pid_, &status, WNOHANG);
    if (got == pid_ || (got < 0 && errno == ECHILD)) {
      if (got == pid_) {
        exit_code_ = WIFEXITED(status)   ? WEXITSTATUS(status)
                     : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                           : -1;
      }
      pid_ = -1;
      if (pidfd_ >= 0) close(pidfd_);
      pidfd_ = -1;
      return true;
    }
    const std::int64_t left = deadline - NowNs();
    if (left <= 0) return false;
    // A pidfd turns readable the moment the child exits, so the wait
    // costs no polling delay in the timed train reps.
    pollfd p{pidfd_, POLLIN, 0};
    poll(&p, 1, static_cast<int>(std::min<std::int64_t>(left / 1'000'000 + 1, 1000)));
  }
}

void Child::Signal(int sig) const {
  if (pid_ > 0) kill(pid_, sig);
}

long Child::PeakRssKb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (pid_ > 0 && std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtol(line.c_str() + 6, nullptr, 10);
  }
  return -1;
}

int FreeLoopbackPort() {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  int port = -1;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  close(fd);
  return port;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::int64_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? -1 : static_cast<std::int64_t>(size);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace spe_bench
