// Dynamic membership: learner add / promote / remove via config-change log
// entries, the one-in-flight gate, leader self-removal with abdication,
// FaultPlan validation, and the client/router plumbing that keeps requests
// off removed nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"
#include "kvstore/client.hpp"
#include "scenario/runner.hpp"
#include "shard/router.hpp"
#include "test_support.hpp"

namespace dyna {
namespace {

using namespace std::chrono_literals;
using raft::ConfigChange;
using testutil::start_cluster;

void commit_some(cluster::Cluster& c, int n, const char* tag) {
  for (int i = 0; i < n; ++i) {
    const NodeId leader = c.current_leader();
    ASSERT_NE(leader, kNoNode);
    raft::Command cmd;
    cmd.payload = std::string("put ") + tag + std::to_string(i) + " v";
    (void)c.node(leader).submit(std::move(cmd));
    c.sim().run_for(50ms);
  }
}

/// Propose + await commit of one config change; fails the test on timeout.
raft::LogIndex change(cluster::Cluster& c, ConfigChange kind, NodeId target) {
  const auto idx = c.propose_config_change(kind, target);
  EXPECT_TRUE(idx.has_value()) << "no leader or change already in flight";
  if (!idx.has_value()) return 0;
  EXPECT_TRUE(c.await_applied(*idx, 30s)) << "config change did not commit";
  c.sim().run_for(1s);  // settle: let followers apply and learners catch up
  return *idx;
}

// ---- Learner lifecycle ------------------------------------------------------------

TEST(Membership, LearnerJoinsCatchesUpAndNeverVotes) {
  auto c = start_cluster(cluster::make_raft_config(3, 41));
  commit_some(*c, 20, "pre");

  const NodeId joiner = c->add_server(/*as_learner=*/true);
  change(*c, ConfigChange::AddLearner, joiner);

  const NodeId leader = c->current_leader();
  ASSERT_NE(leader, kNoNode);
  EXPECT_EQ(c->node(leader).voter_count(), 3u) << "a learner must not extend the quorum";
  EXPECT_TRUE(c->node(joiner).is_learner());

  // The learner replicates the full history.
  c->sim().run_for(3s);
  EXPECT_GE(c->node(joiner).last_applied(), c->node(leader).commit_index() - 1);

  // Even with every voter's traffic frozen, the learner never campaigns.
  for (const NodeId id : c->server_ids()) {
    if (id != joiner) c->pause(id);
  }
  c->sim().run_for(10s);
  EXPECT_FALSE(c->node(joiner).is_leader());
  for (const NodeId id : c->server_ids()) {
    if (id != joiner) c->resume(id);
  }
  ASSERT_TRUE(c->await_leader(30s));
  EXPECT_EQ(c->audit_invariants(), 0u);
}

TEST(Membership, PromoteTurnsLearnerIntoVoter) {
  auto c = start_cluster(cluster::make_raft_config(3, 43));
  const NodeId joiner = c->add_server(/*as_learner=*/true);
  change(*c, ConfigChange::AddLearner, joiner);
  change(*c, ConfigChange::Promote, joiner);

  const NodeId leader = c->current_leader();
  ASSERT_NE(leader, kNoNode);
  EXPECT_EQ(c->node(leader).voter_count(), 4u);
  EXPECT_FALSE(c->node(joiner).is_learner());
  commit_some(*c, 10, "post");
  EXPECT_EQ(c->audit_invariants(), 0u);
}

TEST(Membership, RemoveFollowerShrinksClusterAndServiceContinues) {
  auto c = start_cluster(cluster::make_raft_config(5, 47));
  commit_some(*c, 10, "pre");
  const NodeId leader = c->current_leader();
  NodeId victim = kNoNode;
  for (const NodeId id : c->server_ids()) {
    if (id != leader) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, kNoNode);

  change(*c, ConfigChange::Remove, victim);
  // Note: the victim itself may never apply the Remove (the leader stops
  // replicating to it once the entry commits), so has_left() is only
  // guaranteed on self-removal. The quorum view is what matters:
  c->finalize_removal(victim);

  const auto ids = c->server_ids();
  EXPECT_EQ(ids.size(), 4u);
  for (const NodeId id : ids) EXPECT_NE(id, victim);
  EXPECT_EQ(c->node(c->current_leader()).voter_count(), 4u);

  commit_some(*c, 10, "post");
  EXPECT_EQ(c->audit_invariants(), 0u);
}

TEST(Membership, RemoveLeaderAbdicatesAndClusterReElects) {
  auto c = start_cluster(cluster::make_raft_config(5, 53));
  commit_some(*c, 5, "pre");
  const NodeId old_leader = c->current_leader();
  ASSERT_NE(old_leader, kNoNode);

  const auto idx = c->propose_config_change(ConfigChange::Remove, old_leader);
  ASSERT_TRUE(idx.has_value());
  ASSERT_TRUE(c->await_applied(*idx, 30s));
  c->sim().run_for(5s);  // abdication + re-election window

  ASSERT_TRUE(c->await_leader(30s));
  const NodeId new_leader = c->current_leader();
  EXPECT_NE(new_leader, old_leader);
  EXPECT_TRUE(c->node(old_leader).has_left());
  c->finalize_removal(old_leader);

  commit_some(*c, 10, "post");
  EXPECT_EQ(c->audit_invariants(), 0u);
}

TEST(Membership, OnlyOneConfigChangeInFlight) {
  auto c = start_cluster(cluster::make_raft_config(3, 59));
  const NodeId joiner = c->add_server(/*as_learner=*/true);
  const auto first = c->propose_config_change(ConfigChange::AddLearner, joiner);
  ASSERT_TRUE(first.has_value());
  // Uncommitted first change: a second proposal must be refused.
  const auto second = c->propose_config_change(ConfigChange::Promote, joiner);
  EXPECT_FALSE(second.has_value());
  // Once committed, the gate reopens.
  ASSERT_TRUE(c->await_applied(*first, 30s));
  c->sim().run_for(1s);
  EXPECT_TRUE(c->propose_config_change(ConfigChange::Promote, joiner).has_value());
}

TEST(Membership, TrialResetRestoresFoundingRoster) {
  auto c = start_cluster(cluster::make_raft_config(3, 61));
  const auto founding = c->server_ids();
  const NodeId joiner = c->add_server(/*as_learner=*/true);
  change(*c, ConfigChange::AddLearner, joiner);
  change(*c, ConfigChange::Promote, joiner);
  EXPECT_EQ(c->server_ids().size(), 4u);

  c->reset(std::uint64_t{61});
  EXPECT_EQ(c->server_ids(), founding);
  ASSERT_TRUE(c->await_leader(30s));
  EXPECT_EQ(c->node(c->current_leader()).voter_count(), 3u);
  EXPECT_EQ(c->audit_invariants(), 0u);
}

TEST(Membership, RestartRestoresRosterFromSnapshotCoveringTheChurn) {
  // Compaction folds a whole churn round (add learner, promote, remove) into
  // the follower's snapshot, so no config entry is left in its log suffix:
  // on restart the roster can come only from the snapshot. The removal is
  // not finalized yet, so the harness still hands the restarted node the
  // removed server as a peer — the snapshot must override it.
  cluster::ClusterConfig cfg = cluster::make_raft_config(5, 83);
  cfg.raft.snapshot_threshold = 4;
  cfg.raft.snapshot_trailing = 0;
  auto c = start_cluster(cfg);
  commit_some(*c, 5, "pre");

  const NodeId leader = c->current_leader();
  ASSERT_NE(leader, kNoNode);
  std::vector<NodeId> followers;
  for (const NodeId id : c->server_ids()) {
    if (id != leader) followers.push_back(id);
  }
  const NodeId victim = followers[0];
  const NodeId watched = followers[1];

  const NodeId joiner = c->add_server(/*as_learner=*/true);
  change(*c, ConfigChange::AddLearner, joiner);
  change(*c, ConfigChange::Promote, joiner);
  const raft::LogIndex removed_at = change(*c, ConfigChange::Remove, victim);
  commit_some(*c, 10, "post");  // carry the snapshot line past the churn
  ASSERT_GT(c->node(watched).first_log_index(), removed_at)
      << "a config entry is still in the follower's log suffix";

  std::vector<NodeId> roster;  // post-churn, as the watched follower's peers
  for (const NodeId id : c->server_ids()) {
    if (id != victim && id != watched) roster.push_back(id);
  }
  std::sort(roster.begin(), roster.end());

  c->crash(watched);
  c->restart(watched);
  std::vector<NodeId> peers = c->node(watched).peers();
  std::sort(peers.begin(), peers.end());
  EXPECT_EQ(peers, roster);
  EXPECT_FALSE(c->node(watched).is_learner());

  c->finalize_removal(victim);
  commit_some(*c, 5, "after");
  EXPECT_EQ(c->audit_invariants(), 0u);
}

// ---- Scenario-level churn ---------------------------------------------------------

TEST(MembershipScenario, ChurnRoundsCompleteWithZeroViolations) {
  scenario::ScenarioSpec spec;
  spec.name = "churn";
  spec.servers = 5;
  spec.seed = 71;
  spec.warmup = 2s;
  spec.faults = scenario::FaultPlan::membership_churn(/*rounds=*/2, /*settle=*/1s);
  wl::MixConfig mix;
  mix.clients = 2;
  mix.duration = 5s;
  spec.workload = scenario::WorkloadPlan::closed_loop(mix);

  const scenario::ScenarioResult r = scenario::ScenarioRunner::run(spec);
  EXPECT_TRUE(r.leader_elected);
  EXPECT_EQ(r.membership_rounds, 2u);
  EXPECT_EQ(r.invariant_violations, 0u);
}

// ---- FaultPlan validation ---------------------------------------------------------

TEST(FaultPlanValidate, AcceptsDisjointWindowsAndSanePlans) {
  scenario::FaultPlan plan;
  plan.partition_windows.push_back({1s, 2s, {0, 1}});
  plan.partition_windows.push_back({4s, 2s, {0}});  // same node, disjoint in time
  plan.asym_windows.push_back({1s, 2s, {2}, true, false});
  plan.rolling = scenario::FaultPlan::RollingRestart{2, 3s, 1s};
  plan.churn = scenario::FaultPlan::MembershipChurn{1, 1s, 30s};
  EXPECT_NO_THROW(plan.validate(5));
}

TEST(FaultPlanValidate, RejectsOverlappingWindowsOnSameNode) {
  scenario::FaultPlan plan;
  plan.partition_windows.push_back({1s, 3s, {0, 1}});
  plan.partition_windows.push_back({2s, 3s, {1, 2}});  // node 1 overlaps [2s,4s)
  EXPECT_THROW(plan.validate(5), std::invalid_argument);

  // Overlap across the symmetric and directed lists is also rejected.
  scenario::FaultPlan mixed;
  mixed.partition_windows.push_back({1s, 3s, {0}});
  mixed.asym_windows.push_back({2s, 3s, {0}, true, false});
  EXPECT_THROW(mixed.validate(5), std::invalid_argument);

  // Same windows on different nodes are fine.
  scenario::FaultPlan disjoint;
  disjoint.partition_windows.push_back({1s, 3s, {0}});
  disjoint.asym_windows.push_back({1s, 3s, {1}, true, false});
  EXPECT_NO_THROW(disjoint.validate(5));
}

TEST(FaultPlanValidate, RejectsOutOfRangeNodesAndBadDurations) {
  scenario::FaultPlan plan;
  plan.partition_windows.push_back({1s, 2s, {5}});  // node 5 of a 5-server cluster
  EXPECT_THROW(plan.validate(5), std::invalid_argument);

  scenario::FaultPlan zero;
  zero.partition_windows.push_back({1s, Duration{0}, {0}});
  EXPECT_THROW(zero.validate(5), std::invalid_argument);
}

TEST(FaultPlanValidate, RejectsBadRollingPacingAndZeroChurn) {
  scenario::FaultPlan plan = scenario::FaultPlan::rolling_restart(2, /*stagger=*/1s,
                                                                  /*down_time=*/2s);
  EXPECT_THROW(plan.validate(5), std::invalid_argument);  // down_time > stagger

  scenario::FaultPlan zero_stagger = scenario::FaultPlan::rolling_restart(1, Duration{0});
  EXPECT_THROW(zero_stagger.validate(5), std::invalid_argument);

  scenario::FaultPlan churn;
  churn.churn = scenario::FaultPlan::MembershipChurn{0, 1s, 30s};
  EXPECT_THROW(churn.validate(5), std::invalid_argument);
}

// ---- Client / router plumbing -----------------------------------------------------

TEST(MembershipClient, RemoveServerLeavesRotationAndRetargets) {
  sim::Simulator sim;
  net::Network net(sim, Rng(1), {});
  const NodeId s0 = net.add_node(nullptr);
  const NodeId s1 = net.add_node(nullptr);
  const NodeId s2 = net.add_node(nullptr);
  kv::KvClient client(sim, net, {s0, s1, s2}, Rng(2));

  const NodeId departed = client.target();
  client.remove_server(departed);
  EXPECT_NE(client.target(), departed) << "client must not keep targeting a removed server";
  client.remove_server(departed);  // idempotent: already gone

  const NodeId s3 = net.add_node(nullptr);
  client.add_server(s3);
  client.add_server(s3);  // idempotent: no duplicate rotation entry
  // Rotating through the full ring now visits s3 and never the departed node.
  bool saw_new = false;
  for (int i = 0; i < 8; ++i) {
    client.remove_server(kNoNode);  // no-op; keeps API exercised
    if (client.target() == s3) saw_new = true;
    EXPECT_NE(client.target(), departed);
    client.set_target(client.target());  // still a known server
    // advance the ring deterministically via the public remove/add dance:
    const NodeId cur = client.target();
    client.remove_server(cur);
    client.add_server(cur);
  }
  EXPECT_TRUE(saw_new);
}

TEST(MembershipRouter, NoteRemovedInvalidatesStaleLeaderCache) {
  shard::ShardRouter router(4);
  router.note_leader(0, 10);
  router.note_leader(1, 11);
  router.note_leader(2, 10);
  router.note_removed(10);
  EXPECT_EQ(router.leader_hint(0), kNoNode);
  EXPECT_EQ(router.leader_hint(1), 11);
  EXPECT_EQ(router.leader_hint(2), kNoNode);
}

}  // namespace
}  // namespace dyna
