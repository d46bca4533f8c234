// The trial-reuse reset contract: a reused substrate must be observationally
// indistinguishable from fresh construction.
//
// Three levels, matching the reset surface:
//   * Simulator — reset-then-reuse of an engine holding postponed timers,
//     superseded and cancelled entries replays a randomized
//     schedule/cancel/re-arm/run script identically to a fresh engine
//     (times, order, counters);
//   * Network — a network that carried traffic, link overrides, partitions,
//     pauses with parked messages and in-flight deliveries replays a
//     deterministic script identically to a fresh network after
//     reset_for_trial (delivery trace, traffic counters, FIFO watermarks);
//   * Cluster / sweep — a seed reset matches fresh construction (a node
//     whose policy cannot rewind itself is rebuilt), and the same sweep
//     produces byte-identical ScenarioResult vectors via (a) fresh
//     construction per trial and (b) reused substrates, across thread
//     counts 1/2/8, with the perf model on, under every fault class, and
//     for config_factory sweeps (which build every trial fresh).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/sink.hpp"
#include "test_support.hpp"

namespace dyna {
namespace {

using namespace std::chrono_literals;
using testutil::constant_link;

// ---- Simulator ---------------------------------------------------------------------

/// Trace of one engine run: (fire time, tag) in execution order.
using SimTrace = std::vector<std::pair<TimePoint, int>>;

/// Drive `sim` through a seeded random script of schedules, cancels, timer
/// re-arms (later or earlier than the pending deadline) and steps; returns
/// the execution trace.
SimTrace run_sim_script(sim::Simulator& sim, std::uint64_t seed) {
  SimTrace trace;
  Rng rng(seed);
  std::vector<sim::EventId> live;
  std::vector<std::unique_ptr<sim::Timer>> timers;
  for (int k = 0; k < 3; ++k) {
    timers.push_back(std::make_unique<sim::Timer>(
        sim, [&trace, &sim, k] { trace.emplace_back(sim.now(), 1000 + k); }));
  }
  for (int round = 0; round < 200; ++round) {
    const int tag = round;
    const auto delay = from_ms(rng.uniform(0.0, 50.0));
    live.push_back(sim.schedule_after(delay, [&trace, &sim, tag] {
      trace.emplace_back(sim.now(), tag);
    }));
    if (!live.empty() && rng.bernoulli(0.3)) {
      const auto victim = static_cast<std::size_t>(rng.uniform_index(live.size()));
      sim.cancel(live[victim]);  // may be stale: cancel() must cope either way
    }
    if (rng.bernoulli(0.5)) {
      sim::Timer& timer = *timers[rng.uniform_index(timers.size())];
      if (rng.bernoulli(0.1)) {
        timer.cancel();
      } else {
        timer.arm(from_ms(rng.uniform(0.0, 50.0)));
      }
    }
    if (rng.bernoulli(0.5)) sim.step();
  }
  sim.run_all();
  return trace;
}

TEST(SimulatorReset, ResetThenReuseReplaysIdentically) {
  sim::Simulator reused;
  // Dirty the engine: a full script, plus pending events left behind — a
  // timer postponed in place (its queued entry out of date), a timer moved
  // earlier (its old entry superseded) and a cancelled entry.
  run_sim_script(reused, 7);
  reused.schedule_after(10ms, [] {});
  reused.schedule_after(20ms, [] {});
  sim::Timer postponed(reused, [] {});
  postponed.arm(5ms);
  postponed.arm(30ms);
  sim::Timer advanced(reused, [] {});
  advanced.arm(40ms);
  advanced.arm(15ms);
  reused.cancel(reused.schedule_after(25ms, [] {}));
  reused.run_for(8ms);  // the postponed entry surfaces and is re-keyed
  EXPECT_EQ(reused.pending(), 4u);
  EXPECT_GT(reused.queued(), reused.pending());
  reused.reset();
  postponed.forget();
  advanced.forget();

  EXPECT_EQ(reused.pending(), 0u);
  EXPECT_EQ(reused.queued(), 0u);
  EXPECT_EQ(reused.executed(), 0u);
  EXPECT_EQ(reused.now(), kSimEpoch);

  sim::Simulator fresh;
  const SimTrace a = run_sim_script(fresh, 99);
  const SimTrace b = run_sim_script(reused, 99);
  EXPECT_EQ(a, b);
  EXPECT_EQ(fresh.executed(), reused.executed());
  EXPECT_EQ(fresh.pending(), reused.pending());
  EXPECT_EQ(fresh.now(), reused.now());
}

TEST(SimulatorReset, StepAfterResetIsEmpty) {
  sim::Simulator s;
  s.schedule_after(5ms, [] { FAIL() << "event survived reset"; });
  s.reset();
  EXPECT_FALSE(s.step());
}

TEST(SimulatorReset, ForgottenTimerNeverCancelsFreshEvents) {
  sim::Simulator s;
  int fired = 0;
  sim::Timer timer(s, [&fired] { ++fired; });
  timer.arm(5ms);  // occupies slot 0, generation 1
  s.reset();
  timer.forget();
  EXPECT_FALSE(timer.armed());

  // The fresh engine hands out slot 0 / generation 1 again. A destructor
  // that cancelled instead of forgetting would kill this stranger's event.
  int stranger = 0;
  s.schedule_after(1ms, [&stranger] { ++stranger; });
  s.run_all();
  EXPECT_EQ(stranger, 1);
  EXPECT_EQ(fired, 0);
}

// ---- Network -----------------------------------------------------------------------

/// Full delivery trace: (receiver, payload, delivery time).
using NetTrace = std::vector<std::tuple<NodeId, int, TimePoint>>;

struct TracedNet {
  sim::Simulator sim;
  net::Network net;
  NetTrace trace;

  explicit TracedNet(std::uint64_t seed) : net(sim, Rng(seed)) { add_nodes(); }

  void add_nodes() {
    for (int i = 0; i < 3; ++i) {
      const NodeId id = net.add_node(nullptr);
      hook(id);
    }
  }

  void hook(NodeId id) {
    net.set_handler(id, [this, id](NodeId /*from*/, const net::Message& p) {
      ASSERT_NE(p.test(), nullptr);
      trace.emplace_back(id, static_cast<int>(p.test()->value), sim.now());
    });
  }

  /// A deterministic workout: mixed transports, jitter/loss, an override
  /// link, a partition, a pause with parked reliable traffic.
  void run_script() {
    net.set_default_schedule(constant_link(40ms, 3ms, 0.05));
    net.set_link_schedule(0, 1, constant_link(10ms));
    net.set_blocked(2, 0, true);
    int payload = 0;
    for (int round = 0; round < 40; ++round) {
      if (round == 10) net.set_paused(1, true);
      if (round == 20) net.set_paused(1, false);
      net.send(0, 1, payload++, net::Transport::Datagram);
      net.send(1, 2, payload++, net::Transport::Reliable);
      net.send(2, 0, payload++, net::Transport::Datagram);  // blocked
      net.send(2, 1, payload++, net::Transport::Reliable);
      sim.run_for(15ms);
    }
    sim.run_all();
  }
};

TEST(NetworkReset, ResetThenReuseReplaysIdentically) {
  TracedNet reused(5);
  reused.run_script();  // dirty everything: counters, watermarks, overrides
  // Leave state mid-flight on purpose: in-flight messages, a pause with
  // parked traffic, a partition, then reset both layers.
  reused.net.set_paused(1, true);
  reused.net.send(0, 1, 999, net::Transport::Reliable);
  reused.net.send(2, 1, 998, net::Transport::Reliable);
  reused.sim.run_for(100ms);
  reused.sim.reset();
  reused.net.reset_for_trial(Rng(77), 3);
  reused.trace.clear();

  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_FALSE(reused.net.paused(id));
    EXPECT_EQ(reused.net.traffic(id).sent, 0u);
    EXPECT_EQ(reused.net.traffic(id).received, 0u);
    EXPECT_EQ(reused.net.traffic(id).lost, 0u);
    EXPECT_EQ(reused.net.traffic(id).dropped_paused, 0u);
  }

  TracedNet fresh(77);
  fresh.run_script();
  reused.run_script();

  EXPECT_EQ(fresh.trace, reused.trace);
  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_EQ(fresh.net.traffic(id).sent, reused.net.traffic(id).sent) << "node " << id;
    EXPECT_EQ(fresh.net.traffic(id).received, reused.net.traffic(id).received);
    EXPECT_EQ(fresh.net.traffic(id).sent_bytes, reused.net.traffic(id).sent_bytes);
    EXPECT_EQ(fresh.net.traffic(id).lost, reused.net.traffic(id).lost);
  }
}

TEST(NetworkReset, ResizesAcrossTrials) {
  sim::Simulator sim;
  net::Network net(sim, Rng(1));
  for (int i = 0; i < 5; ++i) net.add_node(nullptr);
  EXPECT_EQ(net.node_count(), 5u);
  net.reset_for_trial(Rng(2), 3);
  EXPECT_EQ(net.node_count(), 3u);
  net.reset_for_trial(Rng(3), 7);
  EXPECT_EQ(net.node_count(), 7u);
  // New links start clean in both directions.
  EXPECT_EQ(net.condition(6, 0).rtt, net::LinkCondition{}.rtt);
}

// ---- Cluster -----------------------------------------------------------------------

scenario::ScenarioSpec reuse_spec(std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.name = "reuse";
  spec.variant = scenario::Variant::Dynatune;
  spec.servers = 5;
  spec.seed = seed;
  spec.topology = scenario::TopologySpec::constant(60ms, 2ms, 0.01);
  spec.faults = scenario::FaultPlan::leader_kills(1, 2s);
  spec.samples = scenario::SamplePlan::every(1s, 3s, /*kth=*/2);
  return spec;
}

TEST(ClusterReset, SeedResetMatchesFreshConstruction) {
  const scenario::ScenarioSpec first = reuse_spec(11);
  scenario::ScenarioSpec second = reuse_spec(22);

  // Reused: one cluster, two trials through reset(seed).
  auto c = scenario::ScenarioRunner::materialize(first);
  (void)scenario::ScenarioRunner::run_on(*c, first);
  c->reset(second.seed);
  const scenario::ScenarioResult reused = scenario::ScenarioRunner::run_on(*c, second);

  const scenario::ScenarioResult fresh = scenario::ScenarioRunner::run(second);
  EXPECT_EQ(fresh, reused);
}

/// A policy the harness cannot rewind (ElectionPolicy's default answer).
class OpaquePolicy final : public raft::ElectionPolicy {
 public:
  [[nodiscard]] Duration election_timeout() const override { return 700ms; }
  [[nodiscard]] Duration heartbeat_interval(NodeId /*follower*/) const override {
    return 100ms;
  }
};

TEST(ClusterReset, NonResettablePolicyNodesRebuildAndMatchFresh) {
  // The one teardown a seed reset keeps: a node whose policy cannot rewind
  // itself is destroyed before the substrate reset and rebuilt after it.
  scenario::ScenarioSpec first = reuse_spec(61);
  first.config_factory = [](std::size_t servers, std::uint64_t seed) {
    cluster::ClusterConfig cfg = cluster::make_raft_config(servers, seed);
    cfg.policy_factory = [](NodeId) { return std::make_unique<OpaquePolicy>(); };
    cfg.name = "opaque";
    return cfg;
  };
  scenario::ScenarioSpec second = first;
  second.seed = 62;

  auto c = scenario::ScenarioRunner::materialize(first);
  (void)scenario::ScenarioRunner::run_on(*c, first);
  c->reset(second.seed);
  const scenario::ScenarioResult reused = scenario::ScenarioRunner::run_on(*c, second);

  const scenario::ScenarioResult fresh = scenario::ScenarioRunner::run(second);
  EXPECT_EQ(fresh, reused);
  EXPECT_EQ(reused.variant, "opaque");
}

scenario::ScenarioSpec client_partition_spec(std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.name = "reuse-client";
  spec.variant = scenario::Variant::Dynatune;
  spec.servers = 7;
  spec.seed = seed;
  spec.topology = scenario::TopologySpec::constant(40ms, 2ms, 0.01);
  wl::RampConfig ramp;
  ramp.start_rps = 100;
  ramp.step_rps = 100;
  ramp.max_rps = 200;
  ramp.level_duration = 1s;
  spec.workload = scenario::WorkloadPlan::open_loop_ramp(ramp);
  // Cuts servers 0 and 1 off from everyone else, the client included.
  spec.faults = scenario::FaultPlan::partitions({{500ms, 1s, {0, 1}}});
  return spec;
}

TEST(ClusterReset, SeedResetWithClientAndPartitionMatchesFresh) {
  // A reused 7-server cluster whose trials each add a client endpoint: the
  // reset drops the first trial's client and the cross pairs it promoted,
  // and the second trial's client pairs take the sparse path again, under
  // a partition window that cuts servers 0 and 1 off from everyone.
  const scenario::ScenarioSpec first = client_partition_spec(51);
  const scenario::ScenarioSpec second = client_partition_spec(52);

  auto c = scenario::ScenarioRunner::materialize(first);
  (void)scenario::ScenarioRunner::run_on(*c, first);
  c->reset(second.seed);
  const scenario::ScenarioResult reused = scenario::ScenarioRunner::run_on(*c, second);

  const scenario::ScenarioResult fresh = scenario::ScenarioRunner::run(second);
  EXPECT_EQ(fresh, reused);
  ASSERT_EQ(reused.levels.size(), 2u);
  EXPECT_GT(reused.levels.back().completed, 0u);
  EXPECT_GT(c->network().cross_link_count(), 0u);
}

scenario::ScenarioSpec snapshot_crash_spec(std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.name = "reuse-snapshot";
  spec.servers = 3;
  spec.seed = seed;
  spec.topology = scenario::TopologySpec::constant(40ms);
  spec.snapshot_threshold = 25;
  spec.snapshot_trailing = 5;
  wl::RampConfig ramp;
  ramp.start_rps = 100;
  ramp.step_rps = 100;
  ramp.max_rps = 200;
  ramp.level_duration = 1s;
  spec.workload = scenario::WorkloadPlan::open_loop_ramp(ramp);
  spec.faults = scenario::FaultPlan::crash_restart_kills(1, 2s);
  return spec;
}

TEST(ClusterReset, SnapshotStateDoesNotLeakAcrossTrials) {
  // Trial 1 dirties every snapshot surface: nodes take snapshots, storage
  // persists blobs and a compaction line, a crash/restart recovers from
  // them. Trial 2 on the reused substrate must match fresh construction —
  // i.e. reset_for_trial cleared the node's snapshot handle, the storage's
  // blob, its log's compaction line and its durable watermark.
  const scenario::ScenarioSpec first = snapshot_crash_spec(31);
  scenario::ScenarioSpec second = snapshot_crash_spec(32);

  auto c = scenario::ScenarioRunner::materialize(first);
  (void)scenario::ScenarioRunner::run_on(*c, first);
  c->reset(second.seed);
  const scenario::ScenarioResult reused = scenario::ScenarioRunner::run_on(*c, second);

  const scenario::ScenarioResult fresh = scenario::ScenarioRunner::run(second);
  EXPECT_EQ(fresh, reused);
}

// ---- Sweeps ------------------------------------------------------------------------

scenario::SweepSpec isolation_sweep() {
  scenario::SweepSpec sweep;
  sweep.base = reuse_spec(0);
  sweep.variants = {scenario::Variant::Raft, scenario::Variant::Dynatune};
  sweep.sizes = {3, 5};
  sweep.seeds = 4;
  sweep.master_seed = 1234;
  return sweep;
}

TEST(SweepReuse, FreshAndReusedAreByteIdenticalAcrossThreadCounts) {
  scenario::SweepSpec sweep = isolation_sweep();

  sweep.reuse_substrate = false;
  sweep.threads = 1;
  const auto reference = scenario::ScenarioRunner::run_sweep(sweep);
  ASSERT_EQ(reference.size(), 16u);

  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const bool reuse : {false, true}) {
      sweep.threads = threads;
      sweep.reuse_substrate = reuse;
      const auto got = scenario::ScenarioRunner::run_sweep(sweep);
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], reference[i])
            << "threads=" << threads << " reuse=" << reuse << " cell " << i;
      }
    }
  }
}

TEST(SweepReuse, ConfigFactorySweepBuildsFreshAndMatches) {
  // A config_factory is opaque to the harness, so a reuse sweep builds
  // every trial of it as a fresh deployment — and still matches the fresh
  // sweep exactly.
  scenario::SweepSpec sweep = isolation_sweep();
  sweep.variants.clear();
  sweep.sizes = {3};
  sweep.base.config_factory = [](std::size_t servers, std::uint64_t seed) {
    cluster::ClusterConfig cfg = cluster::make_raft_config(servers, seed);
    cfg.raft.election_timeout = 700ms;
    cfg.name = "custom";
    return cfg;
  };

  sweep.reuse_substrate = false;
  const auto fresh = scenario::ScenarioRunner::run_sweep(sweep);
  sweep.reuse_substrate = true;
  const auto reused = scenario::ScenarioRunner::run_sweep(sweep);
  ASSERT_EQ(fresh.size(), reused.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(fresh[i], reused[i]) << "cell " << i;
    EXPECT_EQ(fresh[i].variant, "custom");
  }
}

TEST(SweepReuse, SeedDependentConfigFactoryBuildsEveryTrialFresh) {
  // A config_factory may legitimately vary with the trial seed, so a reuse
  // sweep builds every trial fresh from the recompiled config — a seed
  // reset would silently pin every trial of a cell to the first seed's
  // config.
  scenario::SweepSpec sweep = isolation_sweep();
  sweep.variants.clear();
  sweep.sizes = {3};
  sweep.seeds = 6;
  sweep.base.config_factory = [](std::size_t servers, std::uint64_t seed) {
    cluster::ClusterConfig cfg = cluster::make_raft_config(servers, seed);
    // Election timeout depends on the seed: 400..900 ms.
    cfg.raft.election_timeout = std::chrono::milliseconds(400 + (seed % 6) * 100);
    cfg.name = "seeded";
    return cfg;
  };

  sweep.reuse_substrate = false;
  const auto fresh = scenario::ScenarioRunner::run_sweep(sweep);
  sweep.reuse_substrate = true;
  const auto reused = scenario::ScenarioRunner::run_sweep(sweep);
  ASSERT_EQ(fresh.size(), reused.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(fresh[i], reused[i]) << "cell " << i;
  }
}

TEST(SweepReuse, PerfModelledSeedResetMatchesFresh) {
  // The perf model clears in place, so a perf-modelled cluster keeps its
  // nodes (and their observer pointer) across a seed reset; its CPU
  // samples must still match fresh construction.
  scenario::SweepSpec sweep;
  sweep.base = reuse_spec(0);
  sweep.base.perf_cost = cluster::CostModel{};
  sweep.base.perf_bin = 1s;
  sweep.seeds = 4;
  sweep.master_seed = 4321;
  sweep.threads = 1;

  sweep.reuse_substrate = false;
  const auto fresh = scenario::ScenarioRunner::run_sweep(sweep);
  sweep.reuse_substrate = true;
  const auto reused = scenario::ScenarioRunner::run_sweep(sweep);
  ASSERT_EQ(fresh.size(), 4u);
  EXPECT_EQ(fresh, reused);
  bool charged = false;
  for (const auto& r : reused) {
    for (const auto& p : r.samples) charged = charged || p.leader_cpu_pct > 0.0;
  }
  EXPECT_TRUE(charged) << "no reused sample saw leader CPU";
}

TEST(SweepReuse, EveryFaultClassSeedResetMatchesFresh) {
  // A mutate sweep builds every trial fresh, so the seed reset is pinned
  // under each fault class here, one fixed plan per sweep: crashed,
  // restarted, partitioned and churned nodes must not leak into the next
  // trial. Churn grows and shrinks the roster; the founding nodes then
  // rewind in place.
  scenario::FaultPlan::DirectedPartitionWindow half_open;
  half_open.start = 1s;
  half_open.duration = 2s;
  half_open.nodes = {1};
  half_open.block_inbound = true;
  half_open.block_outbound = false;
  fault::InjectorConfig crash_points;
  crash_points.mode = fault::Mode::UniformOverRun;
  crash_points.uniform_max = 500;
  crash_points.restart_delay = 500ms;
  const std::vector<std::pair<std::string, scenario::FaultPlan>> classes = {
      {"kills", scenario::FaultPlan::crash_restart_kills(2, /*settle=*/5s)},
      {"half-open", scenario::FaultPlan::asymmetric_partitions({half_open})},
      {"rolling", scenario::FaultPlan::rolling_restart(1, /*stagger=*/2s, /*down_time=*/800ms)},
      {"crashpoints", scenario::FaultPlan::probabilistic_crashes(crash_points)},
      {"churn", scenario::FaultPlan::membership_churn(1, /*settle=*/1s)},
  };

  std::size_t ok_kills = 0;
  std::uint64_t firings = 0;
  std::size_t churn_rounds = 0;
  for (const auto& [name, plan] : classes) {
    scenario::SweepSpec sweep;
    sweep.base.name = "reuse-" + name;
    sweep.base.servers = 5;
    sweep.base.warmup = 1s;
    sweep.base.faults = plan;
    wl::MixConfig mix;
    mix.clients = 2;
    mix.duration = 3s;
    sweep.base.workload = scenario::WorkloadPlan::closed_loop(mix);
    sweep.variants = {scenario::Variant::Raft, scenario::Variant::Dynatune};
    sweep.seeds = 3;
    sweep.master_seed = 77;
    sweep.threads = 1;

    sweep.reuse_substrate = false;
    const auto fresh = scenario::ScenarioRunner::run_sweep(sweep);
    sweep.reuse_substrate = true;
    const auto reused = scenario::ScenarioRunner::run_sweep(sweep);
    ASSERT_EQ(fresh.size(), 6u) << name;
    EXPECT_EQ(fresh, reused) << name;
    for (const scenario::ScenarioResult& r : reused) {
      EXPECT_EQ(r.invariant_violations, 0u) << name;
      for (const scenario::FailoverSample& f : r.failovers) ok_kills += f.ok ? 1 : 0;
      firings += r.crash_firings;
      churn_rounds += r.membership_rounds;
    }
  }
  // Coverage: each plan exercised the machinery it names.
  EXPECT_GE(ok_kills, 1u) << "no kill produced a failover";
  EXPECT_GE(firings, 1u) << "no crash point fired";
  EXPECT_GE(churn_rounds, 1u) << "no churn round completed";
}

/// Sink that records results (order included) for the streaming contract.
class CollectingSink final : public scenario::ResultSink {
 public:
  void consume(const scenario::ScenarioResult& r) override { results.push_back(r); }
  std::vector<scenario::ScenarioResult> results;
};

TEST(SweepReuse, NamedFactoryPolicySweepsAfterTheVariants) {
  // A custom policy joins a grid as a second sweep into the same sink: its
  // cells follow the built-in variants under the config's own name, and the
  // reuse sweep (fresh deployments, as for any config_factory) matches the
  // fresh one.
  scenario::SweepSpec sweep = isolation_sweep();
  sweep.variants = {scenario::Variant::Raft};
  sweep.sizes = {3};
  sweep.seeds = 2;
  scenario::SweepSpec custom = sweep;
  custom.variants = {};
  custom.base.config_factory = [](std::size_t servers, std::uint64_t seed) {
    cluster::ClusterConfig cfg = cluster::make_raft_config(servers, seed);
    cfg.raft.election_timeout = 300ms;
    cfg.name = "test-raft-snappy";
    return cfg;
  };

  CollectingSink sink;
  scenario::ScenarioRunner::run_sweep(sweep, sink);
  scenario::ScenarioRunner::run_sweep(custom, sink);
  const auto& results = sink.results;
  ASSERT_EQ(results.size(), 4u);  // (Raft + custom) x 1 size x 2 seeds
  EXPECT_EQ(results[0].variant, "Raft");
  EXPECT_EQ(results[1].variant, "Raft");
  EXPECT_EQ(results[2].variant, "test-raft-snappy");
  EXPECT_EQ(results[3].variant, "test-raft-snappy");
  EXPECT_EQ(results[0].seed, results[2].seed);  // seed-paired across the sweeps
  EXPECT_EQ(results[1].seed, results[3].seed);

  custom.reuse_substrate = false;
  const auto fresh = scenario::ScenarioRunner::run_sweep(custom);
  EXPECT_EQ(fresh, std::vector<scenario::ScenarioResult>(results.begin() + 2, results.end()));
}

TEST(SweepReuse, StreamingSinkMatchesVectorSweepInOrder) {
  scenario::SweepSpec sweep = isolation_sweep();
  sweep.threads = 8;  // stress the reorder window

  const auto expected = scenario::ScenarioRunner::run_sweep(sweep);
  CollectingSink sink;
  scenario::ScenarioRunner::run_sweep(sweep, sink);
  ASSERT_EQ(sink.results.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sink.results[i], expected[i]) << "stream position " << i;
  }
}

}  // namespace
}  // namespace dyna
