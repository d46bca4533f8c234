// Cancellation semantics of the slot/generation event engine.
//
// The engine recycles slots through a free list and validates EventIds by
// generation counter, moves re-armed timers in place, and compacts dead heap
// entries away, so the dangerous edges are exactly the ones this suite pins
// down: a stale id aimed at a recycled slot, cancel or reschedule after fire,
// timer re-arm storms, a heap that stays bounded under schedule/cancel churn,
// and — the property everything else rests on — firing order byte-identical
// to the seed engine (priority_queue + hash sets, timers re-armed by cancel +
// schedule), which a reference implementation below replays side by side.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace dyna::sim {
namespace {

using namespace std::chrono_literals;

TEST(Cancellation, StaleIdAgainstRecycledSlotIsRejected) {
  Simulator sim;
  bool first = false;
  bool second = false;
  const EventId a = sim.schedule_after(10ms, [&] { first = true; });
  ASSERT_TRUE(sim.cancel(a));
  // The next schedule recycles a's slot under a fresh generation.
  const EventId b = sim.schedule_after(10ms, [&] { second = true; });
  EXPECT_NE(a, b);
  // The stale id must neither report success nor touch the new event.
  EXPECT_FALSE(sim.cancel(a));
  sim.run_all();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(Cancellation, StaleIdAfterFireAgainstRecycledSlot) {
  Simulator sim;
  const EventId a = sim.schedule_after(1ms, [] {});
  sim.run_all();
  EXPECT_FALSE(sim.cancel(a));  // already fired
  int fired = 0;
  const EventId b = sim.schedule_after(1ms, [&] { ++fired; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(sim.cancel(a));  // still stale, must not kill b
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(Cancellation, GenerationsStayUniqueAcrossHeavyReuse) {
  // Churn one logical event through thousands of schedule/cancel cycles; all
  // ids must be distinct and only the last survivor may fire.
  Simulator sim;
  std::unordered_set<EventId> ids;
  int fired = 0;
  EventId last = kInvalidEvent;
  for (int i = 0; i < 5000; ++i) {
    if (last != kInvalidEvent) {
      EXPECT_TRUE(sim.cancel(last));
    }
    last = sim.schedule_after(1ms, [&] { ++fired; });
    EXPECT_NE(last, kInvalidEvent);
    EXPECT_TRUE(ids.insert(last).second) << "EventId reused at iteration " << i;
  }
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(Cancellation, DoubleCancelAndCancelAfterFire) {
  Simulator sim;
  const EventId a = sim.schedule_after(5ms, [] {});
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_FALSE(sim.cancel(a));
  const EventId b = sim.schedule_after(5ms, [] {});
  sim.run_all();
  EXPECT_FALSE(sim.cancel(b));
  EXPECT_FALSE(sim.cancel(kInvalidEvent));
}

TEST(Cancellation, TimerRearmStorm) {
  // The Raft idiom under stress: every heartbeat re-arms the election timer,
  // so a long trial drives one Timer through thousands of re-arms. Only the
  // final deadline may fire, and the engine must not accumulate live events
  // or slots.
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  for (int i = 0; i < 10000; ++i) {
    t.arm(Duration(std::chrono::milliseconds(10 + (i % 7))));
  }
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(t.armed());
  sim.run_for(1s);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(sim.pending(), 0u);

  // Re-arming from the fired state keeps working (fresh generation again).
  t.arm(5ms);
  sim.run_for(10ms);
  EXPECT_EQ(fired, 2);
}

TEST(Cancellation, RearmInsideCallbackReusesCleanly) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  Timer storm(sim, [&] {
    // Mid-event re-arm of another timer: exercises slot recycling while the
    // engine is inside step().
    if (fired < 3) {
      t.arm(1ms);
      storm.arm(2ms);
    }
  });
  storm.arm(2ms);
  sim.run_for(1s);
  EXPECT_EQ(fired, 3);
}

TEST(Cancellation, RescheduleRejectsStaleIdsAndMovesNothing) {
  Simulator sim;
  std::vector<TimePoint> fired;
  auto record = [&] { fired.push_back(sim.now()); };
  const EventId spent = sim.schedule_after(1ms, record);
  sim.run_all();
  EXPECT_FALSE(sim.reschedule(spent, sim.now() + 5ms));  // already fired

  const EventId cancelled = sim.schedule_after(5ms, record);  // recycles the slot
  EXPECT_NE(spent, cancelled);
  EXPECT_FALSE(sim.reschedule(spent, sim.now() + 1ms));  // aimed at a recycled slot
  ASSERT_TRUE(sim.cancel(cancelled));
  EXPECT_FALSE(sim.reschedule(cancelled, sim.now() + 1ms));  // cancelled

  const EventId live = sim.schedule_after(3ms, record);  // recycles it again
  const std::size_t pending = sim.pending();
  const std::size_t queued = sim.queued();
  for (const EventId stale : {spent, cancelled, kInvalidEvent, (EventId{1000} << 32) | 1}) {
    EXPECT_FALSE(sim.reschedule(stale, sim.now())) << stale;
    EXPECT_EQ(sim.pending(), pending);
    EXPECT_EQ(sim.queued(), queued);
  }
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<TimePoint>{kSimEpoch + 1ms, kSimEpoch + 4ms}));
  EXPECT_FALSE(sim.cancel(live));
}

TEST(Cancellation, TimerRearmsLeaveOneQueuedEntry) {
  // A follower's election timer, re-armed on every heartbeat to a later
  // deadline: the cancel + schedule engine left one dead entry per re-arm
  // (10,000 here); postponement in place leaves the one live entry.
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  for (int i = 0; i < 10000; ++i) t.arm(10ms + std::chrono::microseconds(i));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.queued(), 1u);

  // With the clock moving, the queued entry surfaces out of date and is
  // re-keyed in place; it never fires early and is never duplicated.
  for (int i = 0; i < 10000; ++i) {
    sim.run_for(1ms);
    t.arm(20ms);
    ASSERT_EQ(sim.queued(), 1u) << i;
  }
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.executed(), 0u);
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), kSimEpoch + 10000ms + 20ms);

  // Re-arms to ever earlier deadlines each supersede the queued entry;
  // compaction keeps the dead ones from piling up.
  for (int i = 0; i < 10000; ++i) {
    t.arm(std::chrono::hours(1) - std::chrono::microseconds(i));
    ASSERT_LE(sim.queued(), Simulator::kCompactMinQueued) << i;
  }
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(Cancellation, ScheduleCancelStormKeepsHeapBounded) {
  // Ten long-lived events under a storm of short-lived ones that are
  // cancelled before they fire (a client's request timeout, cancelled when
  // the reply arrives): the heap must not grow with the storm.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(std::chrono::hours(1) + std::chrono::seconds(i),
                       [&order, i] { order.push_back(i); });
  }
  Rng rng(5);
  std::size_t peak = 0;
  for (int i = 0; i < 100'000; ++i) {
    const EventId id = sim.schedule_after(
        Duration{std::chrono::milliseconds(1 + rng.uniform_index(1000))}, [] { FAIL(); });
    ASSERT_TRUE(sim.cancel(id));
    peak = std::max(peak, sim.queued());
    ASSERT_LE(sim.queued(), std::max(Simulator::kCompactMinQueued, 2 * sim.pending())) << i;
  }
  EXPECT_EQ(sim.pending(), 10u);
  EXPECT_LE(peak, Simulator::kCompactMinQueued);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(sim.executed(), 10u);
}

// ---- Reference engine: the seed implementation, kept verbatim ---------------

/// The pre-refactor engine (priority_queue + live/cancelled hash sets). The
/// production engine must match its observable behaviour event for event.
class ReferenceSimulator {
 public:
  using Fn = std::function<void()>;

  std::uint64_t schedule_at(TimePoint when, Fn fn) {
    if (when < now_) when = now_;
    const std::uint64_t id = ++next_id_;
    queue_.push(Entry{when, id, std::move(fn)});
    live_.insert(id);
    return id;
  }

  std::uint64_t schedule_after(Duration delay, Fn fn) {
    return schedule_at(now_ + (delay.count() > 0 ? delay : Duration{0}), std::move(fn));
  }

  bool cancel(std::uint64_t id) {
    if (live_.erase(id) == 0) return false;
    cancelled_.insert(id);
    return true;
  }

  bool step() {
    while (!queue_.empty()) {
      Entry top = std::move(const_cast<Entry&>(queue_.top()));
      queue_.pop();
      if (cancelled_.erase(top.id) > 0) continue;
      live_.erase(top.id);
      now_ = top.when;
      top.fn();
      return true;
    }
    return false;
  }

  [[nodiscard]] TimePoint now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending() const noexcept { return live_.size(); }

 private:
  struct Entry {
    TimePoint when;
    std::uint64_t id;
    Fn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };
  TimePoint now_ = kSimEpoch;
  std::uint64_t next_id_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_set<std::uint64_t> live_;
  std::unordered_set<std::uint64_t> cancelled_;
};

/// One (fire-time, tag) pair per executed event: the full observable trace.
struct FireRecord {
  std::int64_t when_ns;
  int tag;
  bool operator==(const FireRecord&) const = default;
};

TEST(Cancellation, TraceByteIdenticalToSeedEngine) {
  // Drive both engines through the same randomized schedule/cancel/step
  // script — same delays, same cancel picks, same mid-callback schedules —
  // and require identical fire traces, cancel outcomes and pending counts.
  // Two seeds cover different interleavings; ties (quantized delays) are
  // frequent on purpose to stress FIFO ordering.
  for (const std::uint64_t seed : {1ULL, 99ULL}) {
    Rng script_new(seed);
    Rng script_ref(seed);

    Simulator sim;
    ReferenceSimulator ref;
    std::vector<FireRecord> trace_new;
    std::vector<FireRecord> trace_ref;
    std::vector<EventId> ids_new;
    std::vector<std::uint64_t> ids_ref;

    auto drive = [](auto& engine, auto& rng, auto& trace, auto& ids) {
      for (int round = 0; round < 400; ++round) {
        const int burst = 1 + static_cast<int>(rng.uniform_index(4));
        for (int b = 0; b < burst; ++b) {
          const int tag = round * 16 + b;
          const Duration delay{std::chrono::milliseconds(rng.uniform_index(20))};
          ids.push_back(engine.schedule_after(delay, [&engine, &rng, &trace, tag] {
            trace.push_back(FireRecord{engine.now().time_since_epoch().count(), tag});
            // Half the callbacks schedule a follow-up, as timers/deliveries do.
            if (rng.bernoulli(0.5)) {
              const Duration d{std::chrono::milliseconds(1 + rng.uniform_index(5))};
              engine.schedule_after(d, [&trace, &engine, tag] {
                trace.push_back(
                    FireRecord{engine.now().time_since_epoch().count(), tag + 8});
              });
            }
          }));
        }
        // Cancel a random historical id (often stale → must return false
        // identically on both engines).
        if (!ids.empty() && rng.bernoulli(0.4)) {
          const auto pick = rng.uniform_index(ids.size());
          const bool r = engine.cancel(ids[pick]);
          trace.push_back(FireRecord{static_cast<std::int64_t>(r), -1 - static_cast<int>(pick)});
        }
        if (rng.bernoulli(0.6)) engine.step();
      }
      while (engine.step()) {
      }
    };

    drive(sim, script_new, trace_new, ids_new);
    drive(ref, script_ref, trace_ref, ids_ref);

    ASSERT_EQ(trace_new.size(), trace_ref.size()) << "seed " << seed;
    EXPECT_EQ(trace_new, trace_ref) << "seed " << seed;
    EXPECT_EQ(sim.now(), ref.now()) << "seed " << seed;
    EXPECT_EQ(sim.pending(), ref.pending()) << "seed " << seed;
  }
}

/// The seed engine's Timer, kept verbatim on the reference engine: every
/// re-arm is cancel + schedule.
class ReferenceTimer {
 public:
  ReferenceTimer(ReferenceSimulator& sim, std::function<void()> on_fire)
      : sim_(&sim), on_fire_(std::move(on_fire)) {}
  ReferenceTimer(const ReferenceTimer&) = delete;
  ReferenceTimer& operator=(const ReferenceTimer&) = delete;
  ~ReferenceTimer() { cancel(); }

  void arm_at(TimePoint when) {
    cancel();
    deadline_ = when;
    id_ = sim_->schedule_at(when, [this] {
      id_ = 0;
      deadline_ = kNever;
      on_fire_();
    });
  }

  void arm(Duration delay) { arm_at(sim_->now() + delay); }

  void cancel() {
    if (id_ != 0) {
      sim_->cancel(id_);
      id_ = 0;
      deadline_ = kNever;
    }
  }

  [[nodiscard]] bool armed() const noexcept { return id_ != 0; }
  [[nodiscard]] TimePoint deadline() const noexcept { return deadline_; }

 private:
  ReferenceSimulator* sim_;
  std::function<void()> on_fire_;
  std::uint64_t id_ = 0;
  TimePoint deadline_ = kNever;
};

/// A randomized script of plain events and timers on one engine. Timers are
/// re-armed to later, equal and earlier deadlines (earlier ones may land in
/// the past and clamp to now), cancelled and destroyed, both from the script
/// and from inside event callbacks. Client-style timeouts, nearly all
/// cancelled long before they are due, pile up dead entries so that the
/// engine compacts its heap mid-script.
template <typename Engine, typename TimerT>
struct TimerScript {
  static constexpr std::size_t kTimers = 6;

  Engine engine;
  Rng rng;
  std::vector<FireRecord> trace;
  std::array<std::unique_ptr<TimerT>, kTimers> timers{};
  bool draining = false;
  std::size_t compactions = 0;  ///< seen through Simulator::queued()

  explicit TimerScript(std::uint64_t seed) : rng(seed) {}

  [[nodiscard]] std::int64_t now_ns() const { return engine.now().time_since_epoch().count(); }

  /// Cancel and record the result. A cancel pops nothing, so a heap that
  /// shrinks across one was compacted.
  void cancel(std::uint64_t id, int tag) {
    std::size_t before = 0;
    if constexpr (std::is_same_v<Engine, Simulator>) before = engine.queued();
    const bool r = engine.cancel(id);
    if constexpr (std::is_same_v<Engine, Simulator>) compactions += engine.queued() < before;
    trace.push_back(FireRecord{static_cast<std::int64_t>(r), tag});
  }

  void build(std::size_t k) {
    timers[k] = std::make_unique<TimerT>(engine, [this, k] {
      trace.push_back(FireRecord{now_ns(), 10'000 + static_cast<int>(k)});
      if (!draining) poke(rng.uniform_index(kTimers));  // mid-callback timer op
    });
  }

  /// Re-arm or cancel timer k; a destroyed timer is rebuilt and armed.
  void poke(std::size_t k) {
    if (timers[k] == nullptr) build(k);
    TimerT& t = *timers[k];
    const Duration d{std::chrono::microseconds(500 * rng.uniform_index(8))};
    const auto op = rng.uniform_index(5);
    if (op == 0) {  // cancel, recording whether it was armed
      trace.push_back(FireRecord{t.armed() ? 1 : 0, -20'000 - static_cast<int>(k)});
      t.cancel();
    } else if (!t.armed()) {
      t.arm(d);
    } else if (op == 1) {
      t.arm_at(t.deadline() + d);  // later, or equal when d == 0
    } else if (op == 2) {
      t.arm_at(t.deadline());  // equal
    } else {
      t.arm_at(t.deadline() - d);  // earlier, possibly in the past
    }
  }

  void run() {
    std::vector<std::uint64_t> ids;
    for (int round = 0; round < 600; ++round) {
      const int tag = round;
      const Duration delay{std::chrono::milliseconds(rng.uniform_index(8))};
      ids.push_back(engine.schedule_after(delay, [this, tag] {
        trace.push_back(FireRecord{now_ns(), tag});
        if (!draining && rng.bernoulli(0.3)) poke(rng.uniform_index(kTimers));
      }));
      const std::size_t k = rng.uniform_index(kTimers);
      if (rng.bernoulli(0.1)) {
        timers[k].reset();  // destroy: cancels when armed
      } else {
        poke(k);
      }
      if (rng.bernoulli(0.3)) {
        const auto pick = rng.uniform_index(ids.size());
        cancel(ids[pick], -1 - static_cast<int>(pick));
      }
      const auto timeout =
          engine.schedule_after(Duration{std::chrono::milliseconds(50 + rng.uniform_index(50))},
                                [this, tag] { trace.push_back(FireRecord{now_ns(), 20'000 + tag}); });
      if (rng.bernoulli(0.9)) cancel(timeout, -40'000);
      if (rng.bernoulli(0.6)) engine.step();
      trace.push_back(FireRecord{static_cast<std::int64_t>(engine.pending()), -30'000});
    }
    draining = true;
    while (engine.step()) {
    }
  }
};

TEST(Cancellation, TimerTraceByteIdenticalToSeedEngine) {
  // Timers re-armed through reschedule must fire exactly where the seed
  // engine's cancel + schedule re-arm put them, among plain events that are
  // scheduled, cancelled (often stale) and fired around them.
  for (const std::uint64_t seed : {1ULL, 99ULL, 2024ULL}) {
    TimerScript<Simulator, Timer> now_engine(seed);
    TimerScript<ReferenceSimulator, ReferenceTimer> seed_engine(seed);
    now_engine.run();
    seed_engine.run();

    ASSERT_EQ(now_engine.trace.size(), seed_engine.trace.size()) << "seed " << seed;
    EXPECT_EQ(now_engine.trace, seed_engine.trace) << "seed " << seed;
    EXPECT_EQ(now_engine.engine.now(), seed_engine.engine.now()) << "seed " << seed;
    EXPECT_EQ(now_engine.engine.pending(), 0u) << "seed " << seed;
    EXPECT_EQ(seed_engine.engine.pending(), 0u) << "seed " << seed;
    EXPECT_GT(now_engine.compactions, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dyna::sim
