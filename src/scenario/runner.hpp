// ScenarioRunner: compiles a ScenarioSpec into a running deployment and
// executes its plans deterministically.
//
// Every deployment runs through one run shape, written once against
// shard::DeploymentView: a standalone Cluster is one group, a ShardedCluster
// k >= 1 groups on a shared substrate. The run_on overloads only build the
// view; the semantics that depend on the deployment (where kills land, what
// samples read, when churn is allowed, when shard_stats is filled) are
// stated once, on the run body in runner.cpp.
//
// run() is a pure function of the spec (one 64-bit seed in, one
// ScenarioResult out); run_sweep() crosses a base spec over variants x sizes
// x seeds through par::run_trials, with results in enumeration order and
// trial seeds derived from (master_seed, seed index) alone — so a sweep is
// bit-identical across thread counts.
//
// The failover ("container sleep" kill loop, §IV-B1) and timeline-sampling
// (§IV-C1) procedures that used to be public experiment drivers are internal
// strategies here, selected through the spec's FaultPlan / SamplePlan.
#pragma once

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "scenario/result.hpp"
#include "scenario/spec.hpp"
#include "shard/sharded_cluster.hpp"

namespace dyna::scenario {

class ResultSink;

class ScenarioRunner {
 public:
  /// Compile the spec into a standalone cluster: variant config, topology
  /// (default schedule, WAN matrix, per-direction overrides), transport and
  /// perf model all applied. No simulated time has passed yet. Examples and
  /// tests that need live-cluster access build on this; run() does too for
  /// shards == 1.
  [[nodiscard]] static std::unique_ptr<cluster::Cluster> materialize(const ScenarioSpec& spec);

  /// Execute one spec end to end: materialize (standalone for shards == 1,
  /// sharded above), await leaders, warm up, then run the workload / fault /
  /// sampling plans and collect counters.
  [[nodiscard]] static ScenarioResult run(const ScenarioSpec& spec);

  /// Execute the spec's run shape (await leader, warm-up, plans) on a
  /// standalone cluster that already exists — the composition hook for
  /// callers that need live-cluster access before/between/after plans
  /// (examples, deep inspection tests). The cluster is expected to come from
  /// materialize() with the same topology; simulated time continues from
  /// wherever the cluster is. No shard_stats.
  [[nodiscard]] static ScenarioResult run_on(cluster::Cluster& cluster,
                                             const ScenarioSpec& spec);

  /// Sharded materialization: spec.shards >= 1 groups of spec.servers on
  /// one shared Simulator/Network, topology applied per group at its node
  /// base. run() dispatches here for shards > 1; exposed for callers that
  /// need live access to the groups (or a one-group sharded deployment).
  [[nodiscard]] static std::unique_ptr<shard::ShardedCluster> materialize_sharded(
      const ScenarioSpec& spec);

  /// The same run shape on a sharded deployment: the workload routes across
  /// every group, and shard_stats gets one row per group (even at k = 1).
  /// Throws std::runtime_error for a membership-churn plan.
  [[nodiscard]] static ScenarioResult run_on(shard::ShardedCluster& cluster,
                                             const ScenarioSpec& spec);

  /// Execute the sweep's cross product (variant-major, then size, then seed
  /// index) in parallel.
  /// Results are in enumeration order and independent of `sweep.threads` and
  /// `sweep.reuse_substrate`. Each worker runs a cell's trials on one reused
  /// simulation substrate (see Cluster::reset) unless the spec opts out; a
  /// new cell, a config_factory or a mutate hook builds a fresh deployment.
  [[nodiscard]] static std::vector<ScenarioResult> run_sweep(const SweepSpec& sweep);

  /// Same sweep, but stream every ScenarioResult into `sink` (in enumeration
  /// order, exactly once) instead of accumulating a result vector — a
  /// 10k-trial sweep writes its CSV in bounded memory. Trials start in index
  /// order, so out-of-order completions wait in a reorder window that holds
  /// only what the other workers finish while the oldest unfinished trial
  /// runs, not a share of the sweep.
  static void run_sweep(const SweepSpec& sweep, ResultSink& sink);

  /// The seed trial `seed_index` of a sweep runs under (same for every
  /// (variant, size) cell, so cross-variant comparisons are seed-paired).
  [[nodiscard]] static std::uint64_t sweep_seed(const SweepSpec& sweep, std::size_t seed_index);
};

}  // namespace dyna::scenario
