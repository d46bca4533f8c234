// Worker threads and the deterministic trial runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "parallel/trial_runner.hpp"

namespace dyna::par {
namespace {

TEST(ThreadPool, ZeroThreadRequestClampsToOne) {
  std::atomic<int> runs{0};
  ThreadPool::run(0, [&runs] {
    EXPECT_EQ(ThreadPool::current_worker(), 0);
    runs.fetch_add(1);
  });
  EXPECT_EQ(runs.load(), 1);

  std::vector<int> workers;  // one worker: no race
  for_trials(16, 1, [&workers](std::size_t, std::uint64_t) {
    workers.push_back(ThreadPool::current_worker());
  }, 0);
  EXPECT_EQ(workers, std::vector<int>(16, 0));
}

TEST(ThreadPool, ExceptionPropagatesToWaiter) {
  std::atomic<int> finished{0};
  EXPECT_THROW(ThreadPool::run(4,
                               [&finished] {
                                 if (ThreadPool::current_worker() == 2) {
                                   throw std::runtime_error("boom");
                                 }
                                 finished.fetch_add(1);
                               }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 3);  // every other worker ran to completion first
}

TEST(ThreadPool, CurrentWorkerIndexIsStableAndInRange) {
  EXPECT_EQ(ThreadPool::current_worker(), -1);  // not a worker thread
  std::atomic<int> bad{0};
  for_trials(200, 3, [&bad](std::size_t, std::uint64_t) {
    const int w = ThreadPool::current_worker();
    if (w < 0 || w >= 4) bad.fetch_add(1);
  }, 4);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(ThreadPool::current_worker(), -1);  // never leaks to the caller
}

TEST(TrialRunner, ResultsInTrialOrder) {
  const auto results = run_trials<std::size_t>(
      50, 1, [](std::size_t trial, std::uint64_t) { return trial * 2; }, 4);
  ASSERT_EQ(results.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(results[i], i * 2);
}

TEST(TrialRunner, SeedsDerivedFromTrialIndexOnly) {
  std::vector<std::uint64_t> seeds_a, seeds_b;
  run_trials<int>(20, 7,
                  [&seeds_a](std::size_t, std::uint64_t seed) {
                    // NOTE: runs concurrently; collect via per-trial slot.
                    (void)seed;
                    return 0;
                  },
                  1);
  // Deterministic check done via derive_seed directly:
  for (std::size_t i = 0; i < 20; ++i) {
    seeds_a.push_back(derive_seed(7, i));
    seeds_b.push_back(derive_seed(7, i));
  }
  EXPECT_EQ(seeds_a, seeds_b);
}

TEST(TrialRunner, IdenticalAcrossThreadCounts) {
  auto trial = [](std::size_t trial_idx, std::uint64_t seed) {
    // A seed-dependent pseudo-simulation.
    Rng rng(seed);
    double acc = static_cast<double>(trial_idx);
    for (int i = 0; i < 1000; ++i) acc += rng.uniform();
    return acc;
  };
  const auto one = run_trials<double>(32, 123, trial, 1);
  const auto two = run_trials<double>(32, 123, trial, 2);
  const auto eight = run_trials<double>(32, 123, trial, 8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(TrialRunner, ForTrialsVisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> visits(257);
  for_trials(257, 9, [&visits](std::size_t i, std::uint64_t seed) {
    EXPECT_EQ(seed, derive_seed(9, i));
    visits[i].fetch_add(1);
  }, 8);
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "trial " << i;
  }
}

TEST(TrialRunner, ExceptionInTrialPropagates) {
  EXPECT_THROW(run_trials<int>(16, 1,
                               [](std::size_t i, std::uint64_t) {
                                 if (i == 7) throw std::runtime_error("trial 7");
                                 return 0;
                               },
                               2),
               std::runtime_error);
}

TEST(TrialRunner, ExceptionStopsFurtherClaims) {
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(for_trials(10'000, 1,
                          [&ran](std::size_t i, std::uint64_t) {
                            if (i == 0) throw std::runtime_error("trial 0");
                            ran.fetch_add(1);
                          },
                          1),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 0u);
}

TEST(TrialRunner, TrialsStartInIndexOrder) {
  // When trial i starts, every lower index has been claimed; only trials
  // claimed by the other workers but not yet started can still be pending,
  // so fewer than `threads` of them.
  constexpr std::size_t kTrials = 4000;
  constexpr unsigned kThreads = 4;
  std::vector<std::atomic<bool>> started(kTrials);
  std::atomic<std::size_t> worst{0};
  for_trials(kTrials, 11, [&](std::size_t i, std::uint64_t) {
    std::size_t pending = 0;
    for (std::size_t j = 0; j < i; ++j) pending += started[j].load() ? 0 : 1;
    started[i].store(true);
    std::size_t seen = worst.load();
    while (pending > seen && !worst.compare_exchange_weak(seen, pending)) {
    }
  }, kThreads);
  EXPECT_LT(worst.load(), kThreads);
}

TEST(TrialRunner, BlockedTrialDoesNotStallTheSweep) {
  // Trial 0 waits until every other trial has run. One worker sits in it;
  // the other must be free to claim trials 1..63 rather than find them
  // queued behind trial 0. The deadline turns a stall into a failure.
  constexpr int kOthers = 63;
  std::atomic<int> done{0};
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for_trials(kOthers + 1, 5, [&](std::size_t i, std::uint64_t) {
    if (i != 0) {
      done.fetch_add(1);
      return;
    }
    while (done.load() < kOthers && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(done.load(), kOthers) << "trial 0 timed out waiting for the others";
  }, 2);
  EXPECT_EQ(done.load(), kOthers);
}

TEST(TrialRunner, ZeroTrialsIsEmpty) {
  const auto results = run_trials<int>(0, 1, [](std::size_t, std::uint64_t) { return 1; });
  EXPECT_TRUE(results.empty());
}

TEST(TrialRunner, DistinctSeedsPerTrial) {
  std::vector<std::uint64_t> seeds(16);
  run_trials<int>(16, 9,
                  [&seeds](std::size_t trial, std::uint64_t seed) {
                    seeds[trial] = seed;  // distinct slots: no race
                    return 0;
                  },
                  4);
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
}

}  // namespace
}  // namespace dyna::par
