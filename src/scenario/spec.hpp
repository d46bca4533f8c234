// ScenarioSpec: one value fully describing an experiment run.
//
// A spec names a tuning-policy variant (or a custom config factory), a
// cluster size and seed, the network it runs on (base link, time-varying
// schedule, WAN matrix, per-direction overrides), a fault plan, an optional
// workload, and the measurement set to collect. ScenarioRunner compiles a
// spec into a running Cluster and executes it deterministically; SweepSpec
// crosses a base spec over variants x sizes x seeds for parallel sweeps.
//
// Every paper figure, example and integration test is a ScenarioSpec; the
// hand-rolled drivers they used to carry (variant factory, topology apply,
// await-leader, warm-up, kill loop, sampling loop) live behind this API now.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/perf_model.hpp"
#include "cluster/topology.hpp"
#include "common/types.hpp"
#include "dynatune/config.hpp"
#include "fault/injector.hpp"
#include "net/condition.hpp"
#include "net/network.hpp"
#include "shard/router.hpp"
#include "workload/closed_loop.hpp"
#include "workload/open_loop.hpp"

namespace dyna::scenario {

using namespace std::chrono_literals;

/// The paper's tuning-policy variants (§IV-A). Any other policy is a
/// ScenarioSpec::config_factory.
enum class Variant { Raft, RaftLow, Dynatune, FixK };

/// Network shape for a scenario. Layered: `schedule` (or constant `base`)
/// applies to every pair, then the WAN matrix (if any), then per-direction
/// overrides — so an asymmetric link can be expressed on top of any mesh.
struct TopologySpec {
  /// Constant condition for every link when no `schedule` is set.
  net::LinkCondition base{};

  /// Time-varying default schedule replacing `constant(base)` (fluctuation
  /// experiments: RTT ramps/spikes, loss ramps, correlated loss bursts).
  std::optional<net::ConditionSchedule> schedule;

  /// Per-pair WAN matrix applied after build (geo experiments).
  std::optional<cluster::WanTopology> wan;

  /// Directed per-link override: the forward and reverse directions of a
  /// path may carry different schedules (asymmetric links). Ids are
  /// group-local: a sharded deployment applies every override (and the WAN
  /// matrix) to each group at its node base.
  struct DirectedOverride {
    NodeId from = 0;
    NodeId to = 0;
    net::ConditionSchedule schedule;
  };
  std::vector<DirectedOverride> overrides;

  /// Symmetric whole-mesh constant link.
  [[nodiscard]] static TopologySpec constant(Duration rtt, Duration jitter = {},
                                             double loss = 0.0) {
    TopologySpec t;
    t.base.rtt = rtt;
    t.base.jitter = jitter;
    t.base.loss = loss;
    return t;
  }

  /// Add an asymmetric pair: `forward` governs a->b, `reverse` governs b->a.
  void add_asymmetric_pair(NodeId a, NodeId b, net::ConditionSchedule forward,
                           net::ConditionSchedule reverse) {
    overrides.push_back({a, b, std::move(forward)});
    overrides.push_back({b, a, std::move(reverse)});
  }
};

/// How a leader kill is delivered: the paper's "container sleep" freezes the
/// process (volatile state survives), a crash/restart cycle loses volatile
/// state and recovers from Storage (snapshot + durable log suffix).
enum class FaultMode { PauseResume, CrashRestart };

/// Fault plan: repeated leader kills (§IV-B1), delivered either as
/// pause/resume or as crash/restart, plus scheduled symmetric network
/// partitions. `kills == 0` with no partition windows disables fault
/// injection.
struct FaultPlan {
  std::size_t kills = 0;
  FaultMode mode = FaultMode::PauseResume;
  /// Stabilization time before each kill (lets Dynatune warm up / retune).
  Duration settle = 10s;
  /// Give-up horizon per kill.
  Duration max_wait = 60s;
  /// Old leader revives this long after the new leader appears.
  Duration resume_delay = 2s;
  /// Per-node clock offset stddev (ms) applied to probe timestamps — models
  /// the NTP error of the multi-machine AWS experiment. nullopt = one clock.
  std::optional<double> clock_skew_ms;

  /// Symmetric partition window: `start` after measurement begins, the
  /// listed nodes are cut from every other registered endpoint (both
  /// directions, all transports — Network::set_blocked), healing after
  /// `duration`. Nodes inside the set still reach each other, so a window
  /// listing one group's members isolates that group without splitting it.
  /// Window ids (here and in DirectedPartitionWindow) are deployment-global
  /// network ids: group g of a sharded deployment owns
  /// [g*servers, (g+1)*servers). TopologySpec::overrides ids, by contrast,
  /// are group-local and apply to every group.
  struct PartitionWindow {
    Duration start{0};
    Duration duration = 1s;
    std::vector<NodeId> nodes;
  };
  /// Windows are scheduled up front when measurement starts, independent of
  /// the kill loop (they fire during workload, kill and sample phases alike).
  std::vector<PartitionWindow> partition_windows;

  /// Asymmetric partition window: the listed nodes lose one *direction* of
  /// connectivity to everyone outside the set. block_inbound cuts traffic
  /// toward them (they can send, nobody hears back — the classic half-open
  /// leader), block_outbound cuts traffic from them. Both together equal a
  /// symmetric PartitionWindow.
  struct DirectedPartitionWindow {
    Duration start{0};
    Duration duration = 1s;
    std::vector<NodeId> nodes;
    bool block_inbound = true;
    bool block_outbound = false;
  };
  std::vector<DirectedPartitionWindow> asym_windows;

  /// Rolling restart sweep: `rounds` passes over the live servers, crashing
  /// each in turn for `down_time`, successive crashes `stagger` apart.
  struct RollingRestart {
    std::size_t rounds = 0;
    Duration stagger = 3s;
    Duration down_time = 1s;
  };
  std::optional<RollingRestart> rolling;

  /// Probabilistic crash points compiled into RaftNode's storage and
  /// replication hot spots (src/fault/injector.hpp). Compiled into the
  /// ClusterConfig by the runner; felled nodes recover from their storage.
  std::optional<fault::InjectorConfig> crash_points;

  /// Membership churn: per round the runner provisions a fresh server, joins
  /// it as a learner, promotes it to voter, then removes one non-leader
  /// founding-era voter — net cluster size is unchanged, identity rotates.
  struct MembershipChurn {
    std::size_t rounds = 1;
    /// Catch-up / stabilization time between steps of a round.
    Duration settle = 2s;
    /// Give-up horizon per config-change commit.
    Duration max_wait = 30s;
  };
  std::optional<MembershipChurn> churn;

  [[nodiscard]] static FaultPlan leader_kills(std::size_t kills, Duration settle = 10s) {
    FaultPlan f;
    f.kills = kills;
    f.settle = settle;
    return f;
  }

  [[nodiscard]] static FaultPlan crash_restart_kills(std::size_t kills,
                                                     Duration settle = 10s) {
    FaultPlan f = leader_kills(kills, settle);
    f.mode = FaultMode::CrashRestart;
    return f;
  }

  [[nodiscard]] static FaultPlan partitions(std::vector<PartitionWindow> windows) {
    FaultPlan f;
    f.partition_windows = std::move(windows);
    return f;
  }

  [[nodiscard]] static FaultPlan asymmetric_partitions(
      std::vector<DirectedPartitionWindow> windows) {
    FaultPlan f;
    f.asym_windows = std::move(windows);
    return f;
  }

  [[nodiscard]] static FaultPlan rolling_restart(std::size_t rounds, Duration stagger = 3s,
                                                 Duration down_time = 1s) {
    FaultPlan f;
    f.rolling = RollingRestart{rounds, stagger, down_time};
    return f;
  }

  [[nodiscard]] static FaultPlan probabilistic_crashes(fault::InjectorConfig cfg) {
    FaultPlan f;
    f.crash_points = cfg;
    return f;
  }

  [[nodiscard]] static FaultPlan membership_churn(std::size_t rounds, Duration settle = 2s) {
    FaultPlan f;
    f.churn = MembershipChurn{rounds, settle, /*max_wait=*/30s};
    return f;
  }

  /// Reject malformed plans before a trial spends simulated hours on them.
  /// Throws std::invalid_argument (not a contract abort — harnesses test
  /// their schedules against this). `servers` is the deployment's server-id
  /// range (shards * servers). Checks: node ids in [0, servers),
  /// positive window durations, no two windows (symmetric or directed)
  /// overlapping on the same node, and sane rolling-restart pacing.
  void validate(std::size_t servers) const {
    struct Interval {
      NodeId node;
      Duration start;
      Duration end;
    };
    std::vector<Interval> intervals;
    const auto add_window = [&](Duration start, Duration duration,
                                const std::vector<NodeId>& nodes) {
      if (duration <= Duration{0}) {
        throw std::invalid_argument("FaultPlan: partition window duration must be > 0");
      }
      for (const NodeId id : nodes) {
        if (id < 0 || static_cast<std::size_t>(id) >= servers) {
          throw std::invalid_argument("FaultPlan: partition window names node " +
                                      std::to_string(id) + " outside [0, " +
                                      std::to_string(servers) + ")");
        }
        intervals.push_back({id, start, start + duration});
      }
    };
    for (const auto& w : partition_windows) add_window(w.start, w.duration, w.nodes);
    for (const auto& w : asym_windows) add_window(w.start, w.duration, w.nodes);
    std::sort(intervals.begin(), intervals.end(), [](const Interval& a, const Interval& b) {
      return a.node != b.node ? a.node < b.node : a.start < b.start;
    });
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      const Interval& prev = intervals[i - 1];
      const Interval& cur = intervals[i];
      if (cur.node == prev.node && cur.start < prev.end) {
        throw std::invalid_argument(
            "FaultPlan: overlapping partition windows on node " + std::to_string(cur.node) +
            " (one starts at " + std::to_string(to_ms(cur.start)) + "ms inside another)");
      }
    }
    if (rolling && rolling->rounds > 0) {
      if (rolling->stagger <= Duration{0} || rolling->down_time <= Duration{0}) {
        throw std::invalid_argument("FaultPlan: rolling restart stagger/down_time must be > 0");
      }
      if (rolling->down_time > rolling->stagger) {
        throw std::invalid_argument(
            "FaultPlan: rolling restart down_time exceeds stagger (two servers would be "
            "down at once; widen stagger or shorten down_time)");
      }
    }
    if (churn && churn->rounds == 0) {
      throw std::invalid_argument("FaultPlan: membership churn needs rounds >= 1");
    }
  }
};

/// Periodic measurement sampling (Figs 6/7 timelines, example telemetry).
/// Disabled while `duration == 0`. Every `sample_every` the runner records a
/// SamplePoint: link condition in force, k-th smallest randomizedTimeout,
/// median follower Et, leader heartbeat pace and send rate, CPU (when the
/// perf model is on) and service availability (the paper's OTS shading).
struct SamplePlan {
  Duration duration{0};
  Duration sample_every = 1s;
  /// 1-based k for randomized_timeout_kth; 3 == f+1 for n=5 (Fig 6).
  std::size_t kth = 3;

  [[nodiscard]] static SamplePlan every(Duration sample_every, Duration duration,
                                        std::size_t kth = 3) {
    SamplePlan s;
    s.duration = duration;
    s.sample_every = sample_every;
    s.kth = kth;
    return s;
  }
};

/// Workload attached to a scenario. Disabled until `enabled` is set. Two
/// kinds: the Fig 5 open-loop ramp (offered rate swept level by level) and a
/// closed-loop client pool at production intensity (mixed GET/PUT, value-size
/// distribution, self-pacing sessions — the load shape group commit is for).
struct WorkloadPlan {
  enum class Kind { OpenLoop, ClosedLoop };

  bool enabled = false;
  Kind kind = Kind::OpenLoop;
  wl::RampConfig ramp{};  ///< Kind::OpenLoop
  wl::MixConfig mix{};    ///< Kind::ClosedLoop

  [[nodiscard]] static WorkloadPlan open_loop_ramp(wl::RampConfig ramp) {
    WorkloadPlan w;
    w.enabled = true;
    w.ramp = ramp;
    return w;
  }

  [[nodiscard]] static WorkloadPlan closed_loop(wl::MixConfig mix) {
    WorkloadPlan w;
    w.enabled = true;
    w.kind = Kind::ClosedLoop;
    w.mix = mix;
    return w;
  }
};

struct ScenarioSpec {
  std::string name = "scenario";

  // ---- Cluster ----
  Variant variant = Variant::Raft;
  /// Dynatune knobs (Dynatune / Fix-K variants).
  dt::DynatuneConfig dynatune{};
  /// K pinned for the Fix-K variant (paper: 10).
  int fix_k = 10;
  /// Every policy beyond the four variants: a custom cluster-config factory
  /// overriding `variant` (custom policies, ablation knobs). Receives
  /// (servers, seed); the runner still applies topology/transport/perf/
  /// workload from the spec on top. The config's `name` is the variant
  /// column sinks print for the trial.
  std::function<cluster::ClusterConfig(std::size_t, std::uint64_t)> config_factory;

  std::size_t servers = 5;
  std::uint64_t seed = 1;

  // ---- Sharding (src/shard/) ----
  /// Number of independent consensus groups behind the keyspace router.
  /// 1 runs on a standalone Cluster, above 1 on a ShardedCluster; both take
  /// the one run shape (ScenarioRunner). `servers` is the per-group size, so
  /// total nodes = shards * servers.
  std::size_t shards = 1;
  /// How the router splits the keyspace across groups (inert at one group).
  shard::PartitionMode partition_mode = shard::PartitionMode::Hash;

  // ---- Network / host model ----
  TopologySpec topology{};
  net::Network::Config transport{};
  /// Override the Raft timeout tick granularity (ablation).
  std::optional<Duration> raft_tick;
  /// Snapshot compaction knobs (see RaftConfig::snapshot_threshold /
  /// snapshot_trailing). Applied only when set, so config_factory-supplied
  /// configs keep their own values; unset + default factories means
  /// compaction stays off (the reference-run default).
  std::optional<std::size_t> snapshot_threshold;
  std::optional<std::size_t> snapshot_trailing;
  /// Client-request CPU model (either > 0 enables the throughput pipeline):
  /// a commit round costs `round_service_time` plus `command_service_time`
  /// per command it carries. Without group commit every request is its own
  /// round (peak 1/(R+C)); with it, coalesced commands share one round — the
  /// saturated peak moves to B/(R+B*C).
  Duration round_service_time{0};
  Duration command_service_time{0};
  /// Leader-side group commit and its caps (see RaftConfig). Applied only
  /// when set so config_factory-supplied configs keep their own values; the
  /// default factories ship with batching off (the reference-run default).
  std::optional<bool> group_commit;
  std::optional<std::size_t> max_batch_commands;
  /// Leader ReadIndex fast path for GETs (see RaftConfig::read_index).
  std::optional<bool> read_index;
  /// Ignored: every server's storage keeps its log durable at no memory
  /// cost. Kept only for the perf ledger's workloads, which still set it.
  bool durable_log = true;
  /// CPU accounting (Fig 7b).
  std::optional<cluster::CostModel> perf_cost;
  Duration perf_bin = 5s;

  // ---- Run shape ----
  Duration await_leader = 30s;
  /// Simulated time after the first leader before any measurement starts
  /// (Dynatune warm-up).
  Duration warmup{0};
  /// Record per-follower path telemetry (RTT / Et / h) after warm-up.
  bool sample_paths = false;

  FaultPlan faults{};
  SamplePlan samples{};
  WorkloadPlan workload{};
};

/// Cross product of one base spec over variants x sizes x seed trials.
/// Enumeration order is fixed (variant-major, then size, then seed index) and
/// trial seeds derive from (master_seed, seed index) alone, so a sweep's
/// results are bit-identical regardless of thread count — the contract
/// tests/test_scenario_sweep.cpp verifies.
struct SweepSpec {
  ScenarioSpec base{};
  /// Empty => {base.variant}. A base.config_factory overrides every cell's
  /// variant, so a custom policy sweeps with this left empty.
  std::vector<Variant> variants{};
  /// Empty => {base.servers}.
  std::vector<std::size_t> sizes{};
  /// Number of seed trials per (variant, size) cell.
  std::size_t seeds = 1;
  /// 0 => base.seed. Trial i's seed is derive_seed(master_seed, i) — the same
  /// seeds across every (variant, size) cell, so comparisons are paired.
  std::uint64_t master_seed = 0;
  /// Worker threads for par::run_trials; 0 => hardware concurrency.
  unsigned threads = 0;
  /// Run each worker's same-cell trials on one reused simulation substrate
  /// (warm allocations, reset(seed) between trials) instead of constructing
  /// a fresh deployment per trial. A reset changes only the seed, so a trial
  /// whose config may differ from its predecessor's — the first of a cell,
  /// every trial of a config_factory or mutate sweep — is built fresh
  /// regardless. Results are bit-identical either way — that is the reset
  /// contract (tests/test_trial_reuse.cpp); this knob exists for that very
  /// comparison and for bisecting suspected reset leaks.
  bool reuse_substrate = true;

  /// Per-trial spec mutation, applied after the cell axes and trial seed are
  /// assigned: mutate(spec, trial_index, trial_seed). This is the fuzz-soak
  /// hook — a harness derives a different fault schedule per trial from the
  /// trial seed while keeping enumeration order (and thus thread-count
  /// determinism) intact. The spec is no longer constant within a cell, so
  /// every trial builds a fresh deployment.
  std::function<void(ScenarioSpec&, std::size_t, std::uint64_t)> mutate;
};

/// The paper's single-machine testbed stall process: five 4-core containers
/// demand 20 vCPUs of a 12-core Xeon, so node processes stall for tens of
/// milliseconds routinely and for hundreds in the tail (cfs-quota throttling
/// quanta). Calibrated once; applied identically to every variant.
[[nodiscard]] inline net::StallConfig testbed_stalls() {
  net::StallConfig s;
  s.mean_interval = 4s;
  s.duration_median_ms = 25.0;
  s.duration_sigma = 1.4;
  return s;
}

}  // namespace dyna::scenario
