// Sampling profiler shim. Preload it into a program:
//
//   LD_PRELOAD=./libprofshim.so ./program ...
//
// From the program's start to its exit, ITIMER_PROF delivers SIGPROF each
// time the process has used a tick of CPU (the interval asked for is 1 ms;
// the kernel's timer tick sets the real rate). The handler records the
// interrupted PC and the return addresses backtrace() finds above it. At
// exit the shim copies /proc/self/maps, so report.py can turn the addresses
// into functions and lines. Output, in the current directory:
//
//   profshim.<pid>.samples  one record per sample: a uint64 count n, then n
//                           uint64 addresses, the interrupted PC first
//   profshim.<pid>.maps     the process's memory map at exit
//
// backtrace() is not async-signal-safe in general: it can deadlock or
// crash if the signal lands inside the unwinder or the allocator of another
// thread. Profile single-threaded runs.
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxFrames = 64 };

static int g_samples_fd = -1;
static pid_t g_pid;

static uintptr_t interrupted_pc(const void* context) {
  const ucontext_t* uc = (const ucontext_t*)context;
#if defined(__x86_64__)
  return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (uintptr_t)uc->uc_mcontext.pc;
#else
#error "profshim: no PC accessor for this architecture"
#endif
}

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const int saved_errno = errno;
  void* frames[kMaxFrames];
  const int depth = backtrace(frames, kMaxFrames);
  const uintptr_t pc = interrupted_pc(context);
  // The trace starts in this handler and the signal trampoline; the frame
  // equal to the interrupted PC comes next, then its callers. If the
  // unwinder did not get past the trampoline, keep the PC alone.
  int first = depth;
  for (int i = 0; i < depth; ++i) {
    if ((uintptr_t)frames[i] == pc) {
      first = i + 1;
      break;
    }
  }
  uint64_t record[kMaxFrames + 2];
  size_t len = 1;
  record[len++] = pc;
  for (int i = first; i < depth; ++i) record[len++] = (uintptr_t)frames[i];
  record[0] = len - 1;
  ssize_t ignored = write(g_samples_fd, record, len * sizeof record[0]);
  (void)ignored;
  errno = saved_errno;
}

static int open_output(const char* suffix) {
  char path[64];
  snprintf(path, sizeof path, "profshim.%d.%s", (int)g_pid, suffix);
  return open(path, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
}

__attribute__((constructor)) static void profshim_start(void) {
  g_pid = getpid();
  g_samples_fd = open_output("samples");
  if (g_samples_fd < 0) return;
  // The first backtrace() loads the unwinder, which allocates: do that now,
  // not inside the first signal.
  void* warm[4];
  (void)backtrace(warm, 4);
  struct sigaction action;
  memset(&action, 0, sizeof action);
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void profshim_stop(void) {
  // A forked child shares the parent's samples file; only the process that
  // opened it closes it and writes the map.
  if (g_samples_fd < 0 || getpid() != g_pid) return;
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  close(g_samples_fd);
  g_samples_fd = -1;
  // Copied with read/write: a helper process (system("cp ...")) would load
  // this shim too and run its own destructor.
  const int in = open("/proc/self/maps", O_RDONLY | O_CLOEXEC);
  const int out = open_output("maps");
  if (in >= 0 && out >= 0) {
    char buf[4096];
    ssize_t n;
    while ((n = read(in, buf, sizeof buf)) > 0) {
      if (write(out, buf, (size_t)n) != n) break;
    }
  }
  if (in >= 0) close(in);
  if (out >= 0) close(out);
}
