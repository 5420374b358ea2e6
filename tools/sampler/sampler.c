/* LD_PRELOAD CPU sampler for hosts without perf.
 *
 * Every SAMPLER_HZ (default 997) times per second of process CPU time
 * (ITIMER_PROF, all threads) the SIGPROF handler takes a backtrace()
 * and appends it, as raw return addresses, to
 * $SAMPLER_OUT.<pid>.raw (default ./sampler.<pid>.raw). The process's
 * /proc/self/maps goes to the matching .maps file at start-up, which
 * is what symbolize.py needs to turn addresses of a PIE binary back
 * into symbols. Children inherit the preload and write their own files.
 *
 * Record format: uint64 depth, then depth uint64 addresses, leaf first.
 * The first frames of every record are the handler and the signal
 * trampoline; symbolize.py drops them.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <unistd.h>

#define MAX_DEPTH 96

static int out_fd = -1;

static void on_sigprof(int sig) {
    (void)sig;
    void *frames[MAX_DEPTH];
    uint64_t record[MAX_DEPTH + 1];
    int depth = backtrace(frames, MAX_DEPTH);
    if (depth <= 0 || out_fd < 0)
        return;
    record[0] = (uint64_t)depth;
    for (int i = 0; i < depth; i++)
        record[i + 1] = (uint64_t)(uintptr_t)frames[i];
    /* One write per record: O_APPEND keeps records of concurrent
     * threads whole. A short or failed write loses one sample. */
    ssize_t ignored = write(out_fd, record, (size_t)(depth + 1) * sizeof record[0]);
    (void)ignored;
}

static void copy_maps(const char *path) {
    char buf[1 << 16];
    int in = open("/proc/self/maps", O_RDONLY);
    int out = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ssize_t n;
    while (in >= 0 && out >= 0 && (n = read(in, buf, sizeof buf)) > 0)
        if (write(out, buf, (size_t)n) != n)
            break;
    if (in >= 0)
        close(in);
    if (out >= 0)
        close(out);
}

__attribute__((constructor)) static void sampler_start(void) {
    const char *prefix = getenv("SAMPLER_OUT");
    const char *hz_env = getenv("SAMPLER_HZ");
    long hz = hz_env ? atol(hz_env) : 997;
    char path[4096];
    if (hz <= 0 || hz > 10000)
        hz = 997;
    if (!prefix)
        prefix = "sampler";

    snprintf(path, sizeof path, "%s.%d.maps", prefix, (int)getpid());
    copy_maps(path);
    snprintf(path, sizeof path, "%s.%d.raw", prefix, (int)getpid());
    out_fd = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
    if (out_fd < 0)
        return;

    /* The first backtrace() loads the unwinder (dlopen, malloc): do it
     * here, not inside a signal handler. */
    void *warm[4];
    backtrace(warm, 4);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_sigprof;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);

    struct itimerval tick;
    tick.it_interval.tv_sec = 0;
    tick.it_interval.tv_usec = 1000000 / hz;
    tick.it_value = tick.it_interval;
    setitimer(ITIMER_PROF, &tick, NULL);
}
