// peak_rss OUT PROGRAM [ARGS...]
//
// Runs PROGRAM as a child, writes the child's peak resident set size
// (ru_maxrss from wait4, in KiB) to the file OUT, and exits with the
// child's status (128 + signal when it was killed).
//
// A process's ru_maxrss also counts the memory of the process image it
// was exec'd from. spe_bench holds the generated data, so a spe_cli it
// starts directly reports max(spe_bench, spe_cli). This launcher is small
// and forks a fresh process whose image before exec is the launcher's.

#include <errno.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: peak_rss OUT PROGRAM [ARGS...]\n");
    return 2;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("peak_rss: fork");
    return 2;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // dies with the launcher
    execv(argv[2], argv + 2);
    std::perror("peak_rss: execv");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("peak_rss: wait4");
      return 2;
    }
  }
  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr || std::fprintf(out, "%ld\n", usage.ru_maxrss) < 0 ||
      std::fclose(out) != 0) {
    std::perror("peak_rss: cannot write OUT");
    return 2;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}
