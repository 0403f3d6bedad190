/**
 * @file
 * Runs one command and reports its wall time and peak resident set.
 *
 * Usage: run_measured REPORT PROGRAM [ARGS...]
 *
 * Writes "<exit code> <wall ns> <peak RSS KB>" to REPORT and exits with
 * the command's exit code. The peak RSS is wait4's ru_maxrss, which
 * covers the command and every child it reaped (a driver's worker
 * processes). The benchmark starts its measured processes through this
 * small program rather than from the Python interpreter because the
 * kernel folds the forking process's resident set into the child's
 * ru_maxrss when the child execs.
 */

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: run_measured REPORT PROGRAM [ARGS...]\n");
        return 2;
    }
    const auto start = std::chrono::steady_clock::now();
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("run_measured: fork");
        return 2;
    }
    if (pid == 0) {
        execvp(argv[2], argv + 2);
        std::fprintf(stderr, "run_measured: cannot run %s: %s\n", argv[2],
                     std::strerror(errno));
        _exit(127);
    }
    int status = 0;
    struct rusage ru;
    pid_t got;
    do {
        got = wait4(pid, &status, 0, &ru);
    } while (got < 0 && errno == EINTR);
    const auto end = std::chrono::steady_clock::now();
    if (got < 0) {
        std::perror("run_measured: wait4");
        return 2;
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
    std::FILE *out = std::fopen(argv[1], "w");
    if (!out) {
        std::perror("run_measured: report");
        return 2;
    }
    std::fprintf(out, "%d %lld %ld\n", code,
                 static_cast<long long>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         end - start)
                         .count()),
                 ru.ru_maxrss);
    if (std::fclose(out) != 0) {
        std::perror("run_measured: report");
        return 2;
    }
    return code;
}
