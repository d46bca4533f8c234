// Heap attribution shim. Preload it into a program:
//
//   LD_PRELOAD=./libheapshim.so ./program ...
//
// It wraps malloc, calloc, realloc, free and the aligned allocators, keeps
// the live bytes of every allocation stack (the backtrace() return
// addresses above the allocator call) and, each time the total live heap
// reaches a new peak, snapshots the per-stack live bytes. So at exit it
// knows which stacks held the heap at its highest point. Output, in the
// current directory:
//
//   heapshim.<pid>.heap  a uint64 peak (live bytes), then one record per
//                        stack live at the peak: uint64 live bytes, uint64
//                        count n, then n uint64 return addresses, the
//                        allocator's caller first
//   heapshim.<pid>.maps  the process's memory map at exit
//
// report.py turns the addresses into functions and lines. Bytes are the
// sizes asked for, not the allocator's rounded chunks. The shim keeps no
// lock: profile single-threaded runs.
//
// A snapshot is exact and cheap: between two peaks only the stacks touched
// since the last one are copied, from a dirty list.
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

// glibc's own allocator entry points: calling them needs no dlsym, which
// itself allocates.
extern void* __libc_malloc(size_t size);
extern void* __libc_calloc(size_t count, size_t size);
extern void* __libc_realloc(void* ptr, size_t size);
extern void* __libc_memalign(size_t alignment, size_t size);
extern void __libc_free(void* ptr);

enum {
  kDepth = 32,              // return addresses kept per stack
  kSkip = 2,                // the shim's own frames: record_alloc, then the wrapper
  kStackBits = 16,          // distinct stacks (one catch-all past the limit)
  kLiveBits = 22,           // live allocations tracked at once (load <= 3/4)
};
#define kStacks (1u << kStackBits)
#define kLiveSlots (1u << kLiveBits)

struct Live {               // one live allocation; ptr 0 marks an empty slot
  uintptr_t ptr;
  uint32_t size;            // clamped at 4 GiB - 1
  uint32_t stack;
};

static struct Live g_live[kLiveSlots];
static uint32_t g_live_count;

static uintptr_t g_frames[kStacks][kDepth];
static uint8_t g_depth[kStacks];
static uint32_t g_stack_index[2 * kStacks];  // hash -> stack id + 1 (0 = empty)
static uint32_t g_stacks = 1;               // id 0 is the catch-all

static int64_t g_bytes[kStacks];  // live bytes per stack now
static int64_t g_snap[kStacks];   // ... at the last peak
static uint8_t g_dirty[kStacks];
static uint32_t g_dirty_list[kStacks];
static uint32_t g_dirty_count;
static int64_t g_total;
static int64_t g_peak;

static int g_busy;  // set while the shim itself runs: nested allocations pass through
static pid_t g_pid;

static uint64_t mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

static uint32_t intern_stack(void* const* frames, int depth) {
  uint64_t h = (uint64_t)depth;
  for (int i = 0; i < depth; ++i) h = mix(h ^ (uintptr_t)frames[i]);
  for (uint32_t slot = (uint32_t)h & (2 * kStacks - 1);; slot = (slot + 1) & (2 * kStacks - 1)) {
    const uint32_t id = g_stack_index[slot];
    if (id == 0) {
      if (g_stacks == kStacks) return 0;
      const uint32_t fresh = g_stacks++;
      g_depth[fresh] = (uint8_t)depth;
      for (int i = 0; i < depth; ++i) g_frames[fresh][i] = (uintptr_t)frames[i];
      g_stack_index[slot] = fresh + 1;
      return fresh;
    }
    const uint32_t s = id - 1;
    if (g_depth[s] == depth &&
        memcmp(g_frames[s], frames, (size_t)depth * sizeof(uintptr_t)) == 0) {
      return s;
    }
  }
}

static void account(uint32_t stack, int64_t delta) {
  g_bytes[stack] += delta;
  if (!g_dirty[stack]) {
    g_dirty[stack] = 1;
    g_dirty_list[g_dirty_count++] = stack;
  }
  g_total += delta;
  if (g_total > g_peak) {
    g_peak = g_total;
    for (uint32_t i = 0; i < g_dirty_count; ++i) {
      const uint32_t s = g_dirty_list[i];
      g_snap[s] = g_bytes[s];
      g_dirty[s] = 0;
    }
    g_dirty_count = 0;
  }
}

static uint32_t live_slot(uintptr_t ptr) {
  return (uint32_t)mix(ptr) & (kLiveSlots - 1);
}

__attribute__((noinline)) static void record_alloc(void* ptr, size_t size) {
  if (ptr == NULL || g_busy) return;
  if (g_live_count >= kLiveSlots / 4 * 3) {
    static const char full[] = "heapshim: live-allocation table full\n";
    ssize_t ignored = write(2, full, sizeof full - 1);
    (void)ignored;
    abort();
  }
  g_busy = 1;
  void* frames[kDepth + kSkip];
  const int depth = backtrace(frames, kDepth + kSkip);
  const uint32_t stack = depth > kSkip ? intern_stack(frames + kSkip, depth - kSkip) : 0;
  const uint32_t clamped = size > UINT32_MAX ? UINT32_MAX : (uint32_t)size;
  uint32_t slot = live_slot((uintptr_t)ptr);
  while (g_live[slot].ptr != 0) slot = (slot + 1) & (kLiveSlots - 1);
  g_live[slot] = (struct Live){(uintptr_t)ptr, clamped, stack};
  ++g_live_count;
  account(stack, clamped);
  g_busy = 0;
}

static void record_free(void* ptr) {
  if (ptr == NULL) return;
  uint32_t slot = live_slot((uintptr_t)ptr);
  while (g_live[slot].ptr != (uintptr_t)ptr) {
    if (g_live[slot].ptr == 0) return;  // allocated while the shim was busy
    slot = (slot + 1) & (kLiveSlots - 1);
  }
  account(g_live[slot].stack, -(int64_t)g_live[slot].size);
  --g_live_count;
  // Backward-shift deletion keeps every probe chain unbroken.
  for (uint32_t hole = slot, next = (slot + 1) & (kLiveSlots - 1);;
       next = (next + 1) & (kLiveSlots - 1)) {
    if (g_live[next].ptr == 0) {
      g_live[hole].ptr = 0;
      return;
    }
    const uint32_t home = live_slot(g_live[next].ptr);
    // Move `next` into the hole unless its home lies cyclically in (hole, next].
    if (((next - home) & (kLiveSlots - 1)) >= ((next - hole) & (kLiveSlots - 1))) {
      g_live[hole] = g_live[next];
      hole = next;
    }
  }
}

void* malloc(size_t size) {
  void* p = __libc_malloc(size);
  record_alloc(p, size);
  return p;
}

void* calloc(size_t count, size_t size) {
  void* p = __libc_calloc(count, size);
  record_alloc(p, count * size);
  return p;
}

void* realloc(void* ptr, size_t size) {
  record_free(ptr);
  void* p = __libc_realloc(ptr, size);
  record_alloc(p, size);
  return p;
}

void free(void* ptr) {
  record_free(ptr);
  __libc_free(ptr);
}

void* memalign(size_t alignment, size_t size) {
  void* p = __libc_memalign(alignment, size);
  record_alloc(p, size);
  return p;
}

void* aligned_alloc(size_t alignment, size_t size) {
  void* p = __libc_memalign(alignment, size);
  record_alloc(p, size);
  return p;
}

int posix_memalign(void** out, size_t alignment, size_t size) {
  void* p = __libc_memalign(alignment, size);
  if (p == NULL) return ENOMEM;
  record_alloc(p, size);
  *out = p;
  return 0;
}

static int open_output(const char* suffix) {
  char path[64];
  snprintf(path, sizeof path, "heapshim.%d.%s", (int)g_pid, suffix);
  return open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
}

static void write_all(int fd, const void* data, size_t n) {
  const char* p = data;
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w <= 0) return;
    p += w;
    n -= (size_t)w;
  }
}

__attribute__((constructor)) static void heapshim_start(void) {
  g_pid = getpid();
  // The first backtrace() loads the unwinder, which allocates: do that now,
  // with the shim marked busy.
  g_busy = 1;
  void* warm[4];
  (void)backtrace(warm, 4);
  g_busy = 0;
}

__attribute__((destructor)) static void heapshim_stop(void) {
  if (getpid() != g_pid) return;  // a forked child reports nothing
  g_busy = 1;
  const int out = open_output("heap");
  if (out >= 0) {
    const uint64_t peak = (uint64_t)g_peak;
    write_all(out, &peak, sizeof peak);
    for (uint32_t s = 0; s < g_stacks; ++s) {
      if (g_snap[s] <= 0) continue;
      const uint64_t head[2] = {(uint64_t)g_snap[s], g_depth[s]};
      write_all(out, head, sizeof head);
      write_all(out, g_frames[s], g_depth[s] * sizeof(uintptr_t));
    }
    close(out);
  }
  // Copied with read/write, as profshim does: a helper process would load
  // this shim too.
  const int in = open("/proc/self/maps", O_RDONLY | O_CLOEXEC);
  const int maps = open_output("maps");
  if (in >= 0 && maps >= 0) {
    char buf[4096];
    ssize_t n;
    while ((n = read(in, buf, sizeof buf)) > 0) write_all(maps, buf, (size_t)n);
  }
  if (in >= 0) close(in);
  if (maps >= 0) close(maps);
}
