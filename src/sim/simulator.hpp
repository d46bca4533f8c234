// Deterministic discrete-event simulation engine.
//
// One Simulator instance is one experiment trial. Events execute in
// (time, insertion-id) order, so two runs with identical inputs produce
// identical traces — the property every reproduction experiment in this repo
// rests on. Trials are independent; parallelism happens across Simulators
// (see src/parallel), never inside one.
//
// Engine layout (the repo's hottest path — see ARCHITECTURE.md):
//  * a 4-ary min-heap over 24-byte POD entries (when, seq, slot). The wide
//    fan-out halves tree depth versus a binary heap and keeps sift paths
//    inside one or two cache lines of entries;
//  * a slot table, recycled through a free list: the callables
//    (sim::InlineFn, no allocation for small captures) in one array, and
//    each slot's generation, armed flag and keys in a dense array beside it,
//    so validating or re-keying a heap entry touches one small record;
//  * generation counters per slot: an EventId names (slot, generation), so a
//    stale id — fired, cancelled, or aimed at a recycled slot — is rejected
//    in O(1). No hash sets anywhere.
//
// The heap holds little more than the live events:
//  * reschedule(), which every Timer re-arm uses, moves a pending event
//    without cancelling it. A later or equal deadline only records the new
//    key in the slot: the queued entry keeps its place, and when it reaches
//    the head out of date it is re-keyed in place (one sift-down from the
//    root, no sequence number consumed). Only an earlier deadline pushes a
//    new entry, which supersedes the queued one;
//  * cancel() is O(1): it disarms the slot, and its entry, like a superseded
//    one, is dead — popped when it reaches the head. Once dead entries are
//    the majority of a heap of at least kCompactMinQueued entries, the heap
//    is rebuilt from its live entries in O(n): amortised O(1) per cancel.
//
// Ordering contract. Each live event has a key (when, seq) bit-identical to
// the one cancel + schedule_at would give it: reschedule() clamps `when` to
// now() and takes a fresh seq exactly as schedule_at() does. For each live
// event the heap holds exactly one entry, and that entry's key is no larger
// than the live key (entries are only ever re-keyed up to their live key).
// Before each fire the head is settled — dead entries popped, an out-of-date
// entry re-keyed and sifted — until it is a live entry carrying its live key.
// That key is then no larger than any heap key, hence than any live key: the
// engine fires the minimum live key, exactly the event a cancel + schedule
// engine fires next. Re-keys are not executions: executed() counts fires.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/inline_fn.hpp"

namespace dyna::sim {

using EventFn = InlineFn;

/// Handle for a scheduled event; usable to cancel or reschedule it before it
/// fires. Encodes (slot << 32 | generation); never 0 for a live event.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEvent = 0;

class Simulator {
 public:
  /// Compaction leaves heaps below this many entries alone: a small heap
  /// sheds its few dead entries through ordinary pops more cheaply than an
  /// O(n) rebuild.
  static constexpr std::size_t kCompactMinQueued = 64;

  /// Starts every table at a small trial's size, so that growing one from
  /// empty does not cost a reallocation per doubling.
  Simulator() {
    heap_.reserve(kInitialCapacity);
    states_.reserve(kInitialCapacity);
    fns_.reserve(kInitialCapacity);
    free_slots_.reserve(kInitialCapacity);
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `when` (clamped to now if in the past).
  EventId schedule_at(TimePoint when, EventFn fn) {
    DYNA_EXPECTS(static_cast<bool>(fn));
    if (when < now_) when = now_;
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(states_.size());
      states_.emplace_back();
      fns_.emplace_back();
    }
    SlotState& s = states_[slot];
    // A fresh generation invalidates every outstanding id for this slot.
    // (Reuse is LIFO, so it can concentrate on one slot, and the wrap bound
    // is 2^32 schedules into a *single* slot. Re-arming a Timer reschedules
    // in place and bumps nothing; only a fire or cancel followed by a new
    // schedule does. Whole trials run ~1e8 events, two orders of magnitude
    // under it; revisit if trials grow.)
    ++s.gen;
    s.armed = true;
    s.when = s.queued_when = when;
    s.seq = s.queued_seq = ++seq_;
    fns_[slot] = std::move(fn);
    heap_push(HeapEntry{when, s.seq, slot});
    ++live_;
    return make_id(slot, s.gen);
  }

  /// Schedule `fn` after `delay` (negative delays clamp to "immediately").
  EventId schedule_after(Duration delay, EventFn fn) {
    return schedule_at(now_ + (delay.count() > 0 ? delay : Duration{0}), std::move(fn));
  }

  /// Cancel a pending event. Returns false if it already fired or was
  /// cancelled before. O(1): the heap entry stays behind, dead, until it
  /// surfaces or a compaction drops it.
  bool cancel(EventId id) {
    if (!is_pending(id)) return false;
    release(slot_of(id));
    compact_if_mostly_dead();
    return true;
  }

  /// Move a pending event to `when` (clamped to now if in the past), keeping
  /// its id and callable. It fires exactly where cancel + schedule_at would
  /// have put it: the event takes a fresh insertion number, so it runs after
  /// every event already scheduled for the same time. Returns false, and
  /// changes nothing, if the event already fired or was cancelled.
  bool reschedule(EventId id, TimePoint when) {
    if (!is_pending(id)) return false;
    if (when < now_) when = now_;
    const std::uint32_t slot = slot_of(id);
    SlotState& s = states_[slot];
    s.when = when;
    s.seq = ++seq_;
    if (when < s.queued_when) {
      // Earlier than the queued entry: queue a new one, superseding it.
      s.queued_when = when;
      s.queued_seq = s.seq;
      heap_push(HeapEntry{when, s.seq, slot});
      compact_if_mostly_dead();
    }
    return true;
  }

  /// Execute the next pending event, advancing the clock. Returns false if
  /// the queue is empty.
  bool step() {
    if (!settle_head()) return false;
    fire_head();
    return true;
  }

  /// Run events until none remain at or before `horizon`, then advance the
  /// clock to `horizon` exactly (so back-to-back run_for calls tile time).
  void run_until(TimePoint horizon) {
    DYNA_EXPECTS(horizon >= now_);
    while (settle_head() && heap_.front().when <= horizon) fire_head();
    now_ = horizon;
  }

  void run_for(Duration d) { run_until(now_ + d); }

  /// Drain the whole queue (tests / teardown). `max_events` guards against
  /// self-perpetuating schedules.
  std::size_t run_all(std::size_t max_events = 100'000'000) {
    std::size_t n = 0;
    while (n < max_events && step()) ++n;
    return n;
  }

  [[nodiscard]] std::size_t executed() const noexcept { return executed_; }
  [[nodiscard]] std::size_t pending() const noexcept { return live_; }
  /// Heap entries, live or dead: pending() plus cancelled and superseded
  /// entries not yet dropped.
  [[nodiscard]] std::size_t queued() const noexcept { return heap_.size(); }

  /// Return to the freshly-constructed state while keeping every container's
  /// capacity (heap storage, slot table, free list). A reset simulator is
  /// observationally identical to a new one — clock at the epoch, no pending
  /// events, sequence and generation counters rewound — so trial k+1 of a
  /// sweep can reuse trial k's warmed allocations. The reset-exactness suite
  /// in tests/test_trial_reuse.cpp holds this to "bit-identical traces".
  void reset() noexcept {
    heap_.clear();
    states_.clear();
    fns_.clear();  // destroys the InlineFn callables, keeps the capacity
    free_slots_.clear();
    now_ = kSimEpoch;
    seq_ = 0;
    live_ = 0;
    executed_ = 0;
  }

 private:
  /// 24-byte POD heap entry. `seq` is the global insertion counter and breaks
  /// same-time ties FIFO. Sequence numbers are never reused, so `seq` also
  /// tells whether the entry is still the one its slot has queued.
  struct HeapEntry {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// A slot's scheduling state, kept apart from its 64-byte callable.
  struct SlotState {
    TimePoint when{};              ///< live key: where the event fires
    std::uint64_t seq = 0;
    TimePoint queued_when{};       ///< key of the slot's one entry in the heap,
    std::uint64_t queued_seq = 0;  ///< never larger than the live key
    std::uint32_t gen = 0;
    bool armed = false;
  };

  static constexpr std::size_t kArity = 4;
  static constexpr std::size_t kInitialCapacity = 64;

  [[nodiscard]] static EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(slot) << 32) | gen;
  }

  [[nodiscard]] static std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  [[nodiscard]] static bool earlier(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;  // FIFO among same-time events
  }

  /// Whether `id` names an event that has neither fired nor been cancelled.
  [[nodiscard]] bool is_pending(EventId id) const noexcept {
    const std::uint32_t slot = slot_of(id);
    if (slot >= states_.size()) return false;
    const SlotState& s = states_[slot];
    return s.gen == static_cast<std::uint32_t>(id) && s.armed;
  }

  /// Disarm a slot and return it to the free list (fired or cancelled).
  void release(std::uint32_t slot) {
    states_[slot].armed = false;
    fns_[slot].reset();
    free_slots_.push_back(slot);
    --live_;
  }

  /// Bring the head to a live entry carrying its live key: pop dead entries
  /// (cancelled or superseded), re-key a postponed one in place. Returns
  /// false if no event is pending.
  bool settle_head() {
    while (!heap_.empty()) {
      const HeapEntry top = heap_.front();
      SlotState& s = states_[top.slot];
      if (!s.armed || s.queued_seq != top.seq) {
        heap_pop();
      } else if (s.seq == top.seq) {
        return true;
      } else {
        s.queued_when = s.when;
        s.queued_seq = s.seq;
        sift_down(0, HeapEntry{s.when, s.seq, top.slot});
      }
    }
    return false;
  }

  /// Fire the settled head: pop it, advance the clock, run its callable.
  void fire_head() {
    const HeapEntry top = heap_.front();
    DYNA_ASSERT(top.when >= now_);
    heap_pop();
    now_ = top.when;
    ++executed_;
    // Move the callable out before invoking: the callback may schedule new
    // events, which can grow the slot table and recycle this very slot.
    InlineFn fn = std::move(fns_[top.slot]);
    release(top.slot);
    fn();
  }

  void compact_if_mostly_dead() {
    if (heap_.size() >= kCompactMinQueued && heap_.size() - live_ > live_) compact();
  }

  /// Rebuild the heap from its live entries, each re-keyed to its live key,
  /// with a bottom-up heapify: O(n). Out of line — it runs once per Θ(n)
  /// dead entries, and cancel() and reschedule() inline at many call sites.
  [[gnu::noinline]] void compact() {
    std::size_t n = 0;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      const std::uint32_t slot = heap_[i].slot;
      SlotState& s = states_[slot];
      if (!s.armed || s.queued_seq != heap_[i].seq) continue;
      s.queued_when = s.when;
      s.queued_seq = s.seq;
      heap_[n++] = HeapEntry{s.when, s.seq, slot};
    }
    heap_.resize(n);
    if (n < 2) return;
    for (std::size_t i = (n - 2) / kArity + 1; i-- > 0;) sift_down(i, heap_[i]);
  }

  void heap_push(HeapEntry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void heap_pop() {
    DYNA_ASSERT(!heap_.empty());
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }

  /// Place `e` at hole `i` and sift it down to where it belongs.
  void sift_down(std::size_t i, const HeapEntry e) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  TimePoint now_ = kSimEpoch;
  std::uint64_t seq_ = 0;  ///< global insertion counter (FIFO tie-break)
  std::vector<HeapEntry> heap_;
  std::vector<SlotState> states_;
  std::vector<InlineFn> fns_;  ///< callables, indexed like states_
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::size_t executed_ = 0;
};

/// One-shot restartable timer: the idiom Raft nodes use for election and
/// heartbeat deadlines. Re-arming an armed timer moves its pending event
/// (Simulator::reschedule): it fires exactly where cancel + schedule would
/// put it, without a new heap entry unless the deadline moves earlier. The
/// callback fires at most once per arm().
class Timer {
 public:
  Timer(Simulator& simulator, EventFn on_fire)
      : sim_(&simulator), on_fire_(std::move(on_fire)) {
    DYNA_EXPECTS(static_cast<bool>(on_fire_));
  }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() { cancel(); }

  void arm_at(TimePoint when) {
    deadline_ = when;
    if (id_ != kInvalidEvent && sim_->reschedule(id_, when)) return;
    id_ = sim_->schedule_at(when, [this] {
      id_ = kInvalidEvent;
      deadline_ = kNever;
      on_fire_();
    });
  }

  void arm(Duration delay) { arm_at(sim_->now() + delay); }

  void cancel() {
    if (id_ != kInvalidEvent) {
      sim_->cancel(id_);
      id_ = kInvalidEvent;
      deadline_ = kNever;
    }
  }

  /// Drop the handle without touching the simulator. For trial reuse only:
  /// after Simulator::reset() the stored id no longer refers to this timer's
  /// event, and cancelling or rescheduling it could hit an unrelated fresh
  /// event whose (slot, generation) happens to collide.
  void forget() noexcept {
    id_ = kInvalidEvent;
    deadline_ = kNever;
  }

  [[nodiscard]] bool armed() const noexcept { return id_ != kInvalidEvent; }
  [[nodiscard]] TimePoint deadline() const noexcept { return deadline_; }

 private:
  Simulator* sim_;
  EventFn on_fire_;
  EventId id_ = kInvalidEvent;
  TimePoint deadline_ = kNever;
};

}  // namespace dyna::sim
