// ScenarioResult: the one structured result model every driver shares.
//
// A result carries the spec identity (scenario/variant/servers/seed), the
// per-trial sample series its plans produced (failover samples, periodic
// measurement points, workload levels, path telemetry) and run counters.
// All sample types are plain value types with defaulted equality, so sweep
// determinism ("bit-identical across thread counts") is a straight ==.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "workload/closed_loop.hpp"
#include "workload/open_loop.hpp"

namespace dyna::scenario {

/// One leader kill (§IV-B1): detection / OTS / election phases.
struct FailoverSample {
  double detection_ms = 0.0;        ///< kill -> first election-timer expiry
  double ots_ms = 0.0;              ///< kill -> new leader established
  double election_ms = 0.0;         ///< ots - detection
  double mean_randomized_ms = 0.0;  ///< mean randomizedTimeout across followers at kill
  bool ok = false;

  friend bool operator==(const FailoverSample&, const FailoverSample&) = default;
};

/// One periodic measurement sample (Figs 6/7 and the example telemetry).
/// Leader-dependent fields are -1 while the cluster is leaderless; CPU
/// fields are -1 without the perf model.
struct SamplePoint {
  double t_sec = 0.0;
  double rtt_ms = 0.0;             ///< link (0,1) RTT in force at sample time
  double loss_pct = 0.0;           ///< link (0,1) loss in force, percent
  double randomized_kth_ms = 0.0;  ///< k-th smallest randomizedTimeout; -1 if < k running
  double et_median_ms = -1.0;      ///< median follower election timeout
  double h_mean_ms = -1.0;         ///< leader's mean heartbeat interval across followers
  double hb_per_sec = -1.0;        ///< leader send rate over the bin (all transports)
  double leader_cpu_pct = -1.0;
  double follower_cpu_pct = -1.0;
  bool available = true;           ///< some live node leads at max term (!OTS)

  friend bool operator==(const SamplePoint&, const SamplePoint&) = default;
};

/// Per-shard slice of a run on a sharded deployment: one row per consensus
/// group with its health and its share of the workload.
struct ShardSample {
  std::size_t shard = 0;
  std::size_t servers = 0;         ///< group size (== spec servers)
  bool leader_elected = false;     ///< group has a leader at run end
  std::uint64_t completed = 0;     ///< workload ops answered by this group
  std::uint64_t failed = 0;
  double achieved_rps = 0.0;       ///< completed / measurement window
  std::size_t elections = 0;       ///< elections begun in the window
  std::size_t timer_expiries = 0;  ///< election-timer expiries, whole run
  std::uint64_t applied = 0;       ///< max applied index across the group

  friend bool operator==(const ShardSample&, const ShardSample&) = default;
};

/// Per-follower path telemetry recorded once after warm-up (geo example).
struct PathSample {
  NodeId follower = kNoNode;
  double rtt_ms = 0.0;  ///< leader->follower link RTT in force
  double et_ms = 0.0;   ///< follower's election timeout in force
  double h_ms = 0.0;    ///< leader's heartbeat interval toward the follower

  friend bool operator==(const PathSample&, const PathSample&) = default;
};

struct ScenarioResult {
  // ---- Spec identity ----
  std::string scenario;
  std::string variant;
  std::size_t servers = 0;
  std::uint64_t seed = 0;

  // ---- Sample series (one per plan) ----
  bool leader_elected = false;
  std::vector<FailoverSample> failovers;
  std::vector<SamplePoint> samples;
  std::vector<wl::LevelResult> levels;
  std::vector<wl::MixResult> mix;  ///< closed-loop pool result (0 or 1 entry)
  std::vector<PathSample> paths;
  NodeId paths_leader = kNoNode;  ///< leader when `paths` was recorded
  std::vector<ShardSample> shard_stats;  ///< one per group of a sharded deployment

  // ---- Run counters (measurement window = warm-up end .. run end) ----
  std::size_t elections = 0;       ///< elections started in the window
  std::size_t timer_expiries = 0;  ///< all election-timer expiries, whole run
  double ots_seconds = 0.0;        ///< leaderless sample-seconds (paper's OTS shading)
  double sim_seconds = 0.0;        ///< total simulated time at run end

  // ---- Safety / fault engine (always recorded; all zero when faults are off) ----
  std::uint64_t invariant_violations = 0;  ///< InvariantChecker count at run end
  std::uint64_t crash_firings = 0;         ///< crash-point firings across all servers
  std::size_t membership_rounds = 0;       ///< churn rounds completed (FaultPlan::churn)

  friend bool operator==(const ScenarioResult&, const ScenarioResult&) = default;
};

// ---- Aggregation helpers ----------------------------------------------------------

/// Summary statistics over a failover series (the Fig 4/8 table rows).
struct FailoverStats {
  Summary detection;
  Summary ots;
  Summary election;
  double mean_randomized_ms = 0.0;
  std::size_t failed_trials = 0;
};

[[nodiscard]] inline FailoverStats summarize_failovers(
    const std::vector<FailoverSample>& samples) {
  FailoverStats out;
  std::vector<double> det, ots, el;
  Welford rand_mean;
  for (const auto& s : samples) {
    if (!s.ok) {
      ++out.failed_trials;
      continue;
    }
    det.push_back(s.detection_ms);
    ots.push_back(s.ots_ms);
    el.push_back(s.election_ms);
    rand_mean.add(s.mean_randomized_ms);
  }
  out.detection = Summary::of(det);
  out.ots = Summary::of(ots);
  out.election = Summary::of(el);
  out.mean_randomized_ms = rand_mean.mean();
  return out;
}

/// Cap the cumulative failover count across `results` at `cap`, dropping the
/// excess in place. Kill-sharded sweeps run whole 25-kill trials, so the last
/// trial can overshoot the requested budget; trimming once, before anything
/// reads the results, keeps every consumer — summary tables, CDFs, CSV sinks
/// — in agreement about which kills exist.
inline void trim_failovers(std::vector<ScenarioResult>& results, std::size_t cap) {
  std::size_t used = 0;
  for (auto& r : results) {
    const std::size_t take = std::min(r.failovers.size(), cap - used);
    r.failovers.resize(take);
    used += take;
  }
}

/// Flatten the failover series of a sweep's results in sweep order (the Fig
/// 4/8 kill-sharding pattern: one logical kill sequence split across
/// parallel clusters). Budget enforcement belongs to trim_failovers — this
/// is a plain concatenation.
[[nodiscard]] inline std::vector<FailoverSample> collect_failovers(
    const std::vector<ScenarioResult>& results) {
  std::vector<FailoverSample> all;
  for (const auto& r : results) {
    all.insert(all.end(), r.failovers.begin(), r.failovers.end());
  }
  return all;
}

[[nodiscard]] inline std::vector<double> detection_samples(
    const std::vector<FailoverSample>& samples) {
  std::vector<double> v;
  for (const auto& s : samples) {
    if (s.ok) v.push_back(s.detection_ms);
  }
  return v;
}

[[nodiscard]] inline std::vector<double> ots_samples(
    const std::vector<FailoverSample>& samples) {
  std::vector<double> v;
  for (const auto& s : samples) {
    if (s.ok) v.push_back(s.ots_ms);
  }
  return v;
}

}  // namespace dyna::scenario
