// Fault-injection engine: injector firing modes, crash-point integration
// (a firing fells the node mid-operation and the cluster revives it), and
// the replay contract — any observed firing is reproducible from
// (seed, schedule) by pinning RunLength to the recorded visit ordinal.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "fault/injector.hpp"
#include "scenario/runner.hpp"
#include "test_support.hpp"

namespace dyna {
namespace {

using namespace std::chrono_literals;
using testutil::start_cluster;

// ---- Injector unit behavior -------------------------------------------------------

TEST(Injector, NoneModeNeverFires) {
  fault::InjectorConfig cfg;  // mode defaults to None
  fault::Injector inj(cfg);
  inj.arm(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(inj.visit(fault::CrashPoint::PreSend));
  }
  EXPECT_EQ(inj.fired(), 0u);
  EXPECT_EQ(inj.visits(), 0u);  // None mode does not even count visits
}

TEST(Injector, RunLengthFiresAtExactOrdinal) {
  fault::InjectorConfig cfg;
  cfg.mode = fault::Mode::RunLength;
  cfg.run_length = 7;
  fault::Injector inj(cfg);
  inj.arm(99);
  for (std::uint64_t v = 1; v <= 20; ++v) {
    const bool fired = inj.visit(fault::CrashPoint::BeforePersistAppend);
    EXPECT_EQ(fired, v == 7) << "visit " << v;
  }
  ASSERT_EQ(inj.firings().size(), 1u);
  EXPECT_EQ(inj.firings()[0].visit, 7u);
  EXPECT_EQ(inj.firings()[0].point, fault::CrashPoint::BeforePersistAppend);
}

TEST(Injector, MaxFiresCapsRepeatedRuns) {
  fault::InjectorConfig cfg;
  cfg.mode = fault::Mode::Independent;
  cfg.independent_prob = 1.0;  // every enabled visit wants to fire
  cfg.max_fires = 2;
  fault::Injector inj(cfg);
  inj.arm(5);
  int fires = 0;
  for (int i = 0; i < 50; ++i) {
    if (inj.visit(fault::CrashPoint::PreSend)) ++fires;
  }
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(inj.fired(), 2u);
}

TEST(Injector, PointsMaskFiltersCrashPoints) {
  fault::InjectorConfig cfg;
  cfg.mode = fault::Mode::RunLength;
  cfg.run_length = 1;
  cfg.points_mask = fault::point_bit(fault::CrashPoint::MidBatchSeal);
  fault::Injector inj(cfg);
  inj.arm(3);
  EXPECT_FALSE(inj.visit(fault::CrashPoint::PreSend));            // masked out
  EXPECT_FALSE(inj.visit(fault::CrashPoint::AfterPersistAppend)); // masked out
  EXPECT_EQ(inj.visits(), 0u);  // masked visits don't advance the ordinal
  EXPECT_TRUE(inj.visit(fault::CrashPoint::MidBatchSeal));
}

TEST(Injector, SameSeedSameFiringSequence) {
  fault::InjectorConfig cfg;
  cfg.mode = fault::Mode::Independent;
  cfg.independent_prob = 0.05;
  cfg.max_fires = 100;
  fault::Injector a(cfg);
  fault::Injector b(cfg);
  a.arm(1234);
  b.arm(1234);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.visit(fault::CrashPoint::PreSend), b.visit(fault::CrashPoint::PreSend));
  }
  EXPECT_EQ(a.firings().size(), b.firings().size());
}

TEST(Injector, UniformOverRunTargetInRangeAndSeedStable) {
  fault::InjectorConfig cfg;
  cfg.mode = fault::Mode::UniformOverRun;
  cfg.uniform_max = 50;
  fault::Injector inj(cfg);
  inj.arm(7);
  std::uint64_t fired_at = 0;
  for (std::uint64_t v = 1; v <= 50; ++v) {
    if (inj.visit(fault::CrashPoint::PreSend)) fired_at = v;
  }
  ASSERT_GE(fired_at, 1u);
  ASSERT_LE(fired_at, 50u);
  // Re-arming with the same seed redraws the same target.
  inj.arm(7);
  std::uint64_t fired_again = 0;
  for (std::uint64_t v = 1; v <= 50; ++v) {
    if (inj.visit(fault::CrashPoint::PreSend)) fired_again = v;
  }
  EXPECT_EQ(fired_at, fired_again);
}

// ---- Cluster integration ----------------------------------------------------------

cluster::ClusterConfig fault_config(fault::InjectorConfig inj, std::uint64_t seed = 7) {
  cluster::ClusterConfig cfg = cluster::make_raft_config(5, seed);
  cfg.fault = inj;
  return cfg;
}

/// Drive load so crash points in the replication path accumulate visits.
void drive_commits(cluster::Cluster& c, int commands) {
  for (int i = 0; i < commands; ++i) {
    const NodeId leader = c.current_leader();
    if (leader != kNoNode) {
      raft::Command cmd;
      cmd.payload = "put k" + std::to_string(i) + " v";
      (void)c.node(leader).submit(std::move(cmd));
    }
    c.sim().run_for(50ms);
    if (c.current_leader() == kNoNode) (void)c.await_leader(10s);
  }
}

TEST(FaultCluster, CrashPointFellsNodeAndClusterRecovers) {
  fault::InjectorConfig inj;
  inj.mode = fault::Mode::RunLength;
  inj.run_length = 40;  // every node dies at its 40th enabled visit
  inj.restart_delay = 500ms;
  auto c = start_cluster(fault_config(inj));
  drive_commits(*c, 100);

  EXPECT_GE(c->fault_firings(), 1u) << "no crash point ever fired under load";
  // The restart_delay has long passed for every firing: all servers live.
  c->sim().run_for(2s);
  ASSERT_TRUE(c->await_leader(10s));
  for (const NodeId id : c->server_ids()) {
    EXPECT_NE(c->node_if_alive(id), nullptr) << "node " << id << " was not revived";
  }
  EXPECT_EQ(c->audit_invariants(), 0u);
}

TEST(FaultCluster, FiringsAreReproducibleFromSeed) {
  fault::InjectorConfig inj;
  inj.mode = fault::Mode::UniformOverRun;
  inj.uniform_max = 200;
  inj.restart_delay = 500ms;

  std::vector<std::vector<fault::Firing>> runs[2];
  for (int run = 0; run < 2; ++run) {
    auto c = start_cluster(fault_config(inj, /*seed=*/21));
    drive_commits(*c, 60);
    for (const NodeId id : c->server_ids()) {
      runs[run].push_back(c->injector(id)->firings());
    }
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(FaultCluster, RecordedFiringReplaysViaRunLength) {
  // Observe a probabilistic firing, then pin RunLength to the recorded visit
  // ordinal (and the mask to the recorded point) — the same node must fire
  // at the same ordinal. This is the (seed, schedule) replay handle.
  fault::InjectorConfig probe;
  probe.mode = fault::Mode::UniformOverRun;
  probe.uniform_max = 150;
  probe.restart_delay = 500ms;

  NodeId fired_node = kNoNode;
  fault::Firing observed{};
  {
    auto c = start_cluster(fault_config(probe, /*seed=*/33));
    drive_commits(*c, 80);
    for (const NodeId id : c->server_ids()) {
      if (!c->injector(id)->firings().empty()) {
        fired_node = id;
        observed = c->injector(id)->firings().front();
        break;
      }
    }
  }
  ASSERT_NE(fired_node, kNoNode) << "probe run produced no firing; widen the drive";

  fault::InjectorConfig replay;
  replay.mode = fault::Mode::RunLength;
  replay.run_length = observed.visit;
  replay.points_mask = fault::point_bit(observed.point);
  replay.restart_delay = 500ms;
  {
    auto c = start_cluster(fault_config(replay, /*seed=*/33));
    drive_commits(*c, 80);
    const auto& firings = c->injector(fired_node)->firings();
    ASSERT_FALSE(firings.empty()) << "replay produced no firing on the recorded node";
    EXPECT_EQ(firings.front().point, observed.point);
  }
}

TEST(FaultCluster, InjectorsRearmAcrossTrialReset) {
  fault::InjectorConfig inj;
  inj.mode = fault::Mode::RunLength;
  inj.run_length = 30;
  inj.restart_delay = 500ms;
  auto c = start_cluster(fault_config(inj, 11));
  drive_commits(*c, 60);
  const std::uint64_t first = c->fault_firings();
  EXPECT_GE(first, 1u);

  c->reset(std::uint64_t{11});  // same seed: the trial replays identically
  ASSERT_TRUE(c->await_leader(30s));
  drive_commits(*c, 60);
  EXPECT_EQ(c->fault_firings(), first);
  EXPECT_EQ(c->audit_invariants(), 0u);
}

/// A follower's log length just before one append that a firing of `point`
/// interrupts, and right after the follower is restarted.
struct AppendAcrossFiring {
  raft::LogIndex before = 0;
  raft::LogIndex after_restart = 0;
};

/// Fires `point` once on one follower, inside the append of a single
/// replicated entry, then restarts the follower by hand before any message
/// reaches it. RunLength counts each node's visits to the one masked point;
/// re-arming every other node's injector sets its count back to zero, so the
/// follower is the first to reach run_length.
AppendAcrossFiring follower_append_across_firing(fault::CrashPoint point) {
  fault::InjectorConfig inj;
  inj.mode = fault::Mode::RunLength;
  inj.points_mask = fault::point_bit(point);
  inj.run_length = 6;
  inj.restart_delay = 1h;  // the test restarts the follower itself
  auto c = start_cluster(fault_config(inj, /*seed=*/17));
  c->sim().run_for(1s);  // the leader's no-op reaches every follower
  const NodeId leader = c->current_leader();
  const NodeId follower = leader == 0 ? 1 : 0;
  for (const NodeId id : c->server_ids()) {
    if (id != follower) c->injector(id)->arm(0);
  }

  AppendAcrossFiring r;
  for (int i = 0; i < 10 && c->injector(follower)->fired() == 0; ++i) {
    r.before = c->node(follower).last_log_index();
    raft::Command cmd;
    cmd.payload = "put k" + std::to_string(i) + " v";
    (void)c->node(leader).submit(std::move(cmd));
    c->sim().run_for(200ms);
  }
  EXPECT_EQ(c->fault_firings(), 1u);
  if (c->node_if_alive(follower) != nullptr) {
    ADD_FAILURE() << "the firing did not fell follower " << follower;
    return r;
  }
  EXPECT_EQ(c->node(leader).last_log_index(), r.before + 1);  // the interrupted append
  c->restart(follower);
  r.after_restart = c->node(follower).last_log_index();

  c->sim().run_for(2s);  // the follower catches up again, safely
  EXPECT_EQ(c->node(follower).last_log_index(), c->node(leader).last_log_index());
  EXPECT_EQ(c->audit_invariants(), 0u);
  return r;
}

TEST(FaultCluster, BeforePersistAppendFiringLosesTheInterruptedAppend) {
  const AppendAcrossFiring r =
      follower_append_across_firing(fault::CrashPoint::BeforePersistAppend);
  EXPECT_GT(r.before, 0u);
  EXPECT_EQ(r.after_restart, r.before);
}

TEST(FaultCluster, AfterPersistAppendFiringKeepsTheAppend) {
  const AppendAcrossFiring r =
      follower_append_across_firing(fault::CrashPoint::AfterPersistAppend);
  EXPECT_GT(r.before, 0u);
  EXPECT_EQ(r.after_restart, r.before + 1);
}

TEST(FaultScenario, RunnerCompilesCrashPointsAndCountsFirings) {
  scenario::ScenarioSpec spec;
  spec.name = "crash-points";
  spec.servers = 5;
  spec.seed = 5;
  spec.warmup = 2s;
  fault::InjectorConfig inj;
  inj.mode = fault::Mode::UniformOverRun;
  inj.uniform_max = 400;
  inj.restart_delay = 500ms;
  spec.faults = scenario::FaultPlan::probabilistic_crashes(inj);
  wl::MixConfig mix;
  mix.clients = 4;
  mix.duration = 10s;
  spec.workload = scenario::WorkloadPlan::closed_loop(mix);

  const scenario::ScenarioResult r = scenario::ScenarioRunner::run(spec);
  EXPECT_TRUE(r.leader_elected);
  EXPECT_EQ(r.invariant_violations, 0u);
  // UniformOverRun across 5 nodes over a 10s loaded window: expect at least
  // one plug pulled (deterministic for this seed — pinned, not flaky).
  EXPECT_GE(r.crash_firings, 1u);
}

}  // namespace
}  // namespace dyna
