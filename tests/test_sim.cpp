#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace dyna::sim {
namespace {

using namespace std::chrono_literals;

TEST(Simulator, StartsAtEpoch) {
  Simulator sim;
  EXPECT_EQ(sim.now(), kSimEpoch);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(30ms, [&] { order.push_back(3); });
  sim.schedule_after(10ms, [&] { order.push_back(1); });
  sim.schedule_after(20ms, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), kSimEpoch + 30ms);
}

TEST(Simulator, SameTimeEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(5ms, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CallbackCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) sim.schedule_after(1ms, chain);
  };
  sim.schedule_after(1ms, chain);
  sim.run_all();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), kSimEpoch + 5ms);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_after(10ms, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run_all();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_after(1ms, [] {});
  sim.run_all();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, RunUntilAdvancesClockExactly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(10ms, [&] { ++fired; });
  sim.schedule_after(100ms, [&] { ++fired; });
  sim.run_until(kSimEpoch + 50ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), kSimEpoch + 50ms);
  sim.run_for(50ms);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), kSimEpoch + 100ms);
}

TEST(Simulator, RunForTilesTimeExactly) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.run_for(7ms);
  EXPECT_EQ(sim.now(), kSimEpoch + 70ms);
}

TEST(Simulator, EventAtHorizonBoundaryFires) {
  Simulator sim;
  bool ran = false;
  sim.schedule_after(50ms, [&] { ran = true; });
  sim.run_until(kSimEpoch + 50ms);
  EXPECT_TRUE(ran);
}

TEST(Simulator, PastScheduleClampsToNow) {
  Simulator sim;
  sim.run_for(100ms);
  bool ran = false;
  sim.schedule_at(kSimEpoch + 10ms, [&] { ran = true; });  // in the past
  sim.step();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), kSimEpoch + 100ms);  // clock never goes backwards
}

TEST(Simulator, PendingCountsLiveEvents) {
  Simulator sim;
  const EventId a = sim.schedule_after(1ms, [] {});
  sim.schedule_after(2ms, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RescheduleKeepsIdAndQueuesBehindSameTimeEvents) {
  // reschedule = cancel + schedule_at: the moved event takes a fresh
  // insertion number, so it fires after events already waiting at its new
  // time, and before events scheduled there afterwards.
  Simulator sim;
  std::vector<int> order;
  const EventId a = sim.schedule_after(5ms, [&] { order.push_back(0); });
  sim.schedule_after(20ms, [&] { order.push_back(1); });
  EXPECT_TRUE(sim.reschedule(a, kSimEpoch + 20ms));  // postponed, queued entry kept
  sim.schedule_after(20ms, [&] { order.push_back(2); });
  EXPECT_EQ(sim.pending(), 3u);
  EXPECT_EQ(sim.queued(), 3u);
  sim.run_for(10ms);
  EXPECT_TRUE(order.empty());  // the old 5 ms deadline must not fire
  EXPECT_EQ(sim.queued(), 3u);  // re-keyed in place when it surfaced
  EXPECT_EQ(sim.executed(), 0u);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
  EXPECT_FALSE(sim.reschedule(a, sim.now()));  // fired: the id is spent
}

TEST(Simulator, RescheduledEventCancelsUnderItsOriginalId) {
  Simulator sim;
  bool ran = false;
  const EventId a = sim.schedule_after(5ms, [&] { ran = true; });
  EXPECT_TRUE(sim.reschedule(a, kSimEpoch + 8ms));
  EXPECT_TRUE(sim.reschedule(a, kSimEpoch + 2ms));
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_FALSE(sim.cancel(a));
  EXPECT_EQ(sim.pending(), 0u);
  sim.run_all();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.now(), kSimEpoch);  // dead entries never move the clock
}

TEST(Simulator, RescheduleEarlierAndIntoThePast) {
  Simulator sim;
  std::vector<std::pair<int, TimePoint>> fired;
  const EventId a = sim.schedule_after(50ms, [&] { fired.emplace_back(0, sim.now()); });
  sim.schedule_after(30ms, [&] { fired.emplace_back(1, sim.now()); });
  EXPECT_TRUE(sim.reschedule(a, kSimEpoch + 10ms));  // earlier: a new entry
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.queued(), 3u);  // the superseded 50 ms entry is dead
  const EventId b = sim.schedule_after(40ms, [&] { fired.emplace_back(2, sim.now()); });
  sim.run_for(20ms);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], std::make_pair(0, kSimEpoch + 10ms));
  EXPECT_TRUE(sim.reschedule(b, kSimEpoch + 5ms));  // in the past: clamps to now
  sim.step();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1], std::make_pair(2, kSimEpoch + 20ms));
  sim.run_all();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[2], std::make_pair(1, kSimEpoch + 30ms));
  EXPECT_EQ(sim.executed(), 3u);  // re-keys and dead entries are not executions
  EXPECT_EQ(sim.queued(), 0u);
}

TEST(Simulator, DeterministicTrace) {
  auto trace = [] {
    Simulator sim;
    std::vector<std::int64_t> times;
    for (int i = 0; i < 100; ++i) {
      sim.schedule_after(std::chrono::milliseconds((i * 37) % 50), [&times, &sim] {
        times.push_back(sim.now().time_since_epoch().count());
      });
    }
    sim.run_all();
    return times;
  };
  EXPECT_EQ(trace(), trace());
}

TEST(Timer, FiresOncePerArm) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm(10ms);
  sim.run_for(100ms);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, RearmCancelsPrevious) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm(10ms);
  sim.run_for(5ms);
  t.arm(10ms);  // pushes deadline to 15ms
  sim.run_for(6ms);
  EXPECT_EQ(fired, 0);  // old deadline (10ms) must not fire
  sim.run_for(10ms);
  EXPECT_EQ(fired, 1);
}

TEST(Timer, CancelStopsFiring) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm(10ms);
  t.cancel();
  EXPECT_FALSE(t.armed());
  sim.run_for(50ms);
  EXPECT_EQ(fired, 0);
}

TEST(Timer, DeadlineReflectsArm) {
  Simulator sim;
  Timer t(sim, [] {});
  EXPECT_EQ(t.deadline(), kNever);
  t.arm(25ms);
  EXPECT_EQ(t.deadline(), kSimEpoch + 25ms);
  t.cancel();
  EXPECT_EQ(t.deadline(), kNever);
}

TEST(Timer, CanRearmFromItsOwnCallback) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] {});
  Timer periodic(sim, [&] {
    if (++fired < 4) periodic.arm(10ms);
  });
  periodic.arm(10ms);
  sim.run_for(1s);
  EXPECT_EQ(fired, 4);
}

TEST(Timer, DestructorCancels) {
  Simulator sim;
  int fired = 0;
  {
    Timer t(sim, [&] { ++fired; });
    t.arm(10ms);
  }
  sim.run_for(50ms);
  EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace dyna::sim
