// Probabilistic crash-point injection, modeled on katana's FaultTest.h.
//
// RaftNode compiles *named crash points* into its storage/replication hot
// spots (before/after hard-state persist, before/after log append, snapshot
// install, mid-batch seal, pre-send). When a configured Injector decides a
// visit fires, the crash point throws fault::CrashSignal; the node's entry
// points catch it, stop the node ("pull the plug" — no code after the fire
// point runs, so a BeforePersistAppend crash loses the write exactly like a
// power cut between the in-memory append and the disk append), and hand
// control to the cluster, which schedules a crash + restart.
//
// Determinism contract: every injector draws from its own RNG, seeded
// derive_seed(trial_seed, 0xFA017 + node_slot) and re-armed at trial start.
// Visits are counted per node across enabled points in execution order, so a
// firing is identified by (point, visit ordinal) and any firing observed in
// mode Independent or UniformOverRun can be replayed exactly by pinning
// RunLength to the recorded ordinal under the same (config, seed).
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace dyna::fault {

/// Named "pull the plug" sites compiled into RaftNode hot spots. Placement
/// rule: a point sits immediately BEFORE or AFTER one durable side effect, so
/// the two firings bracket exactly one storage mutation.
enum class CrashPoint : std::uint8_t {
  BeforePersistHardState = 0,  ///< before storage_->save_hard_state
  AfterPersistHardState,       ///< after storage_->save_hard_state
  BeforePersistAppend,         ///< log_ has the suffix; the durable watermark does not yet
  AfterPersistAppend,          ///< after storage_->persist_log() advanced the watermark
  BeforeSnapshotInstall,       ///< before snapshot adoption / leader-side snapshot persist
  AfterSnapshotInstall,        ///< after snapshot adoption / leader-side snapshot persist
  MidBatchSeal,                ///< inside seal_batch, routes pushed but entry not appended
  PreSend,                     ///< top of RaftNode::send, before the message reaches the wire
  kCount,
};

[[nodiscard]] constexpr const char* to_string(CrashPoint p) noexcept {
  switch (p) {
    case CrashPoint::BeforePersistHardState: return "BeforePersistHardState";
    case CrashPoint::AfterPersistHardState: return "AfterPersistHardState";
    case CrashPoint::BeforePersistAppend: return "BeforePersistAppend";
    case CrashPoint::AfterPersistAppend: return "AfterPersistAppend";
    case CrashPoint::BeforeSnapshotInstall: return "BeforeSnapshotInstall";
    case CrashPoint::AfterSnapshotInstall: return "AfterSnapshotInstall";
    case CrashPoint::MidBatchSeal: return "MidBatchSeal";
    case CrashPoint::PreSend: return "PreSend";
    case CrashPoint::kCount: break;
  }
  return "?";
}

/// Firing decision modes (katana FaultTest.h vocabulary).
enum class Mode : std::uint8_t {
  None = 0,        ///< never fires (injector attached but inert)
  Independent,     ///< each visit fires independently with probability p
  RunLength,       ///< fires at exactly the run_length-th enabled visit
  UniformOverRun,  ///< fires at one visit drawn uniformly from [1, uniform_max]
};

/// Thrown by a firing crash point; caught only by RaftNode's entry-point
/// guards. Deliberately not a std::exception subclass so generic catch
/// blocks in user code cannot swallow a crash.
struct CrashSignal {};

/// Bit for `points_mask` below.
[[nodiscard]] constexpr std::uint32_t point_bit(CrashPoint p) noexcept {
  return 1U << static_cast<unsigned>(p);
}

constexpr std::uint32_t kAllPoints = point_bit(CrashPoint::kCount) - 1;

struct InjectorConfig {
  Mode mode = Mode::None;
  /// Independent: per-visit firing probability.
  double independent_prob = 1e-3;
  /// RunLength: ordinal of the (enabled) visit that fires. Also the replay
  /// handle: pin this to a recorded Firing::visit to reproduce it.
  std::uint64_t run_length = 100;
  /// UniformOverRun: the firing ordinal is drawn uniformly from
  /// [1, uniform_max] when the injector is armed.
  std::uint64_t uniform_max = 1000;
  /// Which crash points participate (bitmask of point_bit; default all).
  std::uint32_t points_mask = kAllPoints;
  /// Cap on firings per node per trial. The count survives mid-trial
  /// restarts, so the default of 1 cannot crash-loop a node.
  std::size_t max_fires = 1;
  /// Delay before the cluster restarts a node felled by a firing.
  Duration restart_delay = std::chrono::seconds(2);
};

/// One firing: which point fired at which enabled-visit ordinal.
struct Firing {
  CrashPoint point;
  std::uint64_t visit;

  friend bool operator==(const Firing&, const Firing&) = default;
};

/// Per-node firing engine. Owned by the Cluster (one per node slot, surviving
/// node rebuilds within a trial); RaftNode holds a raw pointer and calls
/// visit() at each crash point.
class Injector {
 public:
  explicit Injector(InjectorConfig config) : cfg_(config) {}

  /// Re-seed for a new trial: zero counters, redraw the UniformOverRun
  /// target. Must be called exactly once per trial per node slot.
  void arm(std::uint64_t seed) {
    rng_ = Rng(seed);
    visits_ = 0;
    fired_ = 0;
    firings_.clear();
    target_ = 0;
    if (cfg_.mode == Mode::UniformOverRun) {
      DYNA_EXPECTS(cfg_.uniform_max > 0);
      target_ = 1 + rng_.uniform_index(cfg_.uniform_max);
    }
  }

  /// Called by the crash point. Returns true when this visit fires (the
  /// caller then throws CrashSignal).
  [[nodiscard]] bool visit(CrashPoint p) noexcept {
    if (cfg_.mode == Mode::None) return false;
    if ((cfg_.points_mask & point_bit(p)) == 0) return false;
    ++visits_;
    if (fired_ >= cfg_.max_fires) return false;
    bool fire = false;
    switch (cfg_.mode) {
      case Mode::None: break;
      case Mode::Independent: fire = rng_.bernoulli(cfg_.independent_prob); break;
      case Mode::RunLength: fire = visits_ == cfg_.run_length; break;
      case Mode::UniformOverRun: fire = visits_ == target_; break;
    }
    if (fire) {
      ++fired_;
      firings_.push_back(Firing{p, visits_});
    }
    return fire;
  }

  [[nodiscard]] std::uint64_t visits() const noexcept { return visits_; }
  [[nodiscard]] std::size_t fired() const noexcept { return fired_; }
  [[nodiscard]] const std::vector<Firing>& firings() const noexcept { return firings_; }

 private:
  InjectorConfig cfg_;
  Rng rng_{0};
  std::uint64_t visits_ = 0;
  std::uint64_t target_ = 0;
  std::size_t fired_ = 0;
  std::vector<Firing> firings_;
};

}  // namespace dyna::fault
