// Deterministic parallel trial execution.
//
// run_trials(n, fn) evaluates fn(trial_index, trial_seed) for every trial and
// collects the results *in trial order*, regardless of which worker finished
// first or how many workers exist. Each trial's seed derives from the master
// seed and the trial index alone, so results are bit-identical across thread
// counts — verified by tests/test_parallel.cpp.
//
// Dispatch is one shared atomic cursor: each worker claims the next trial
// index until none remain. Trials therefore start in index order — when
// trial i starts, every lower index has been claimed, and at most threads-1
// of them by workers that have not called fn yet. A slow trial holds up
// only itself, never trials queued behind it, so a streaming consumer's
// reorder window is bounded by how many trials the other workers finish
// while one trial runs, not by the sweep size. A claim is one atomic
// fetch_add; nothing is allocated per trial.
//
// Worker-local state: `trial_fn` may key reusable per-worker state (warmed
// simulation substrates) off ThreadPool::current_worker(), which is in
// [0, threads) inside a trial.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "parallel/thread_pool.hpp"

namespace dyna::par {

/// Evaluate fn(trial_index, derive_seed(master_seed, trial_index)) for every
/// trial in [0, trials) on `threads` workers (0 => one), discarding return
/// values — for callables that stream their own output. The callable is
/// shared by every worker and invoked concurrently. The first exception a
/// trial throws stops further claims and propagates once the workers join.
template <typename Fn>
void for_trials(std::size_t trials, std::uint64_t master_seed, Fn&& trial_fn,
                unsigned threads = std::thread::hardware_concurrency()) {
  if (trials == 0) return;
  std::atomic<std::size_t> cursor{0};
  ThreadPool::run(threads, [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1);
      if (i >= trials) return;
      try {
        trial_fn(i, derive_seed(master_seed, i));
      } catch (...) {
        cursor.store(trials);  // no further claims
        throw;
      }
    }
  });
}

/// Evaluate fn(trial_index, derive_seed(master_seed, trial_index)) for every
/// trial in [0, trials), in parallel, collecting results in trial order.
template <typename Result, typename Fn>
std::vector<Result> run_trials(std::size_t trials, std::uint64_t master_seed, Fn&& trial_fn,
                               unsigned threads = std::thread::hardware_concurrency()) {
  std::vector<Result> results(trials);
  Result* const out = results.data();
  for_trials(
      trials, master_seed,
      [out, &trial_fn](std::size_t i, std::uint64_t seed) { out[i] = trial_fn(i, seed); },
      threads);
  return results;
}

}  // namespace dyna::par
