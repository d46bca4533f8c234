// Crash/recovery and pause/resume semantics.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "kvstore/command.hpp"
#include "raft/storage.hpp"

namespace dyna {
namespace {

using namespace std::chrono_literals;
using cluster::Cluster;

raft::Command make_cmd(const std::string& key, const std::string& value) {
  raft::Command cmd;
  cmd.payload = kv::encode(kv::KvCommand{kv::Op::Put, key, value, {}});
  return cmd;
}

TEST(Recovery, CrashedNodeIsGone) {
  Cluster c(cluster::make_raft_config(3, 1));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  const NodeId victim = leader == 0 ? 1 : 0;
  c.crash(victim);
  EXPECT_EQ(c.node_if_alive(victim), nullptr);
  c.sim().run_for(3s);
  EXPECT_NE(c.current_leader(), kNoNode);  // majority still serves
}

TEST(Recovery, RestartReplaysLogIntoFreshStateMachine) {
  Cluster c(cluster::make_raft_config(3, 2));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  for (int i = 0; i < 20; ++i) c.node(leader).submit(make_cmd("k" + std::to_string(i), "v"));
  c.sim().run_for(3s);

  const NodeId victim = leader == 0 ? 1 : 0;
  ASSERT_EQ(c.state_machine(victim).size(), 20u);
  c.crash(victim);
  c.sim().run_for(1s);
  c.restart(victim);
  c.sim().run_for(5s);

  EXPECT_EQ(c.state_machine(victim).size(), 20u);
  EXPECT_EQ(c.state_machine(victim).data(), c.state_machine(leader).data());
  EXPECT_EQ(c.node(victim).commit_index(), c.node(leader).commit_index());
}

TEST(Recovery, RestartedNodeRemembersTermAndVote) {
  Cluster c(cluster::make_raft_config(3, 3));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  const raft::Term term = c.node(leader).term();
  const NodeId victim = leader == 0 ? 1 : 0;
  c.crash(victim);
  c.restart(victim);
  // Persistent term must survive the crash (never goes backwards).
  EXPECT_GE(c.node(victim).term(), term);
}

TEST(Recovery, CrashedLeaderIsReplacedAndRejoinsAsFollower) {
  Cluster c(cluster::make_raft_config(5, 4));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId old_leader = c.current_leader();
  for (int i = 0; i < 10; ++i) c.node(old_leader).submit(make_cmd("k" + std::to_string(i), "v"));
  c.sim().run_for(2s);
  c.crash(old_leader);
  c.sim().run_for(10s);
  const NodeId new_leader = c.current_leader();
  ASSERT_NE(new_leader, kNoNode);
  ASSERT_NE(new_leader, old_leader);
  c.restart(old_leader);
  c.sim().run_for(5s);
  EXPECT_FALSE(c.node(old_leader).is_leader());
  EXPECT_EQ(c.node(old_leader).leader_hint(), new_leader);
  EXPECT_EQ(c.state_machine(old_leader).data(), c.state_machine(new_leader).data());
}

TEST(Recovery, CommittedEntriesSurviveMinorityCrash) {
  Cluster c(cluster::make_raft_config(5, 5));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  c.node(leader).submit(make_cmd("durable", "yes"));
  c.sim().run_for(2s);
  // Crash two followers (minority) and restart them.
  std::vector<NodeId> victims;
  for (const NodeId id : c.server_ids()) {
    if (id != leader && victims.size() < 2) victims.push_back(id);
  }
  for (const NodeId v : victims) c.crash(v);
  c.sim().run_for(2s);
  for (const NodeId v : victims) c.restart(v);
  c.sim().run_for(5s);
  for (const NodeId id : c.server_ids()) {
    EXPECT_EQ(c.state_machine(id).data().at("durable"), "yes") << "node " << id;
  }
}

TEST(Recovery, RestartKeepsTheSegmentsItSharesWithTheLeader) {
  // Followers adopt the leader's segments; a restart takes its storage's log
  // over as it stands, so a committed entry keeps its address.
  Cluster c(cluster::make_raft_config(3, 8));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  for (int i = 0; i < 10; ++i) c.node(leader).submit(make_cmd("k" + std::to_string(i), "v"));
  c.sim().run_for(2s);
  const NodeId victim = leader == 0 ? 1 : 0;
  const raft::LogIndex commit = c.node(leader).commit_index();
  ASSERT_GE(commit, 11u);  // the no-op and ten PUTs
  for (raft::LogIndex i = 1; i <= commit; ++i) {
    ASSERT_EQ(&c.node(victim).log().entry(i), &c.node(leader).log().entry(i)) << "entry " << i;
  }
  c.crash(victim);
  c.restart(victim);
  ASSERT_EQ(c.node(victim).last_log_index(), c.node(leader).last_log_index());
  for (raft::LogIndex i = 1; i <= commit; ++i) {
    EXPECT_EQ(&c.node(victim).log().entry(i), &c.node(leader).log().entry(i)) << "entry " << i;
  }
}

raft::LogEntry entry_of(raft::Term term, raft::LogIndex index) {
  raft::LogEntry e;
  e.term = term;
  e.index = index;
  return e;
}

TEST(Storage, RecoverKeepsExactlyTheDurablePrefix) {
  raft::Storage s;
  for (raft::LogIndex i = 1; i <= 6; ++i) s.log().append(entry_of(1, i));
  s.persist_log();
  EXPECT_EQ(s.durable_index(), 6u);
  s.compact_to(2, 1);
  // A follower's conflict: truncation lowers the watermark at once, the
  // replacement entries are appended but never persisted.
  s.truncate_from(5);
  EXPECT_EQ(s.durable_index(), 4u);
  s.log().append(entry_of(2, 5));
  s.log().append(entry_of(2, 6));
  s.recover();
  ASSERT_EQ(s.log().last_index(), 4u);
  EXPECT_EQ(s.log().compacted_to(), 2u);
  EXPECT_EQ(s.log().compacted_term(), 1u);
  EXPECT_EQ(s.log().term_at(4), 1u);

  // An adopted run (a follower's pure append) past the watermark goes whole.
  raft::RaftLog leader;
  for (raft::LogIndex i = 1; i <= 7; ++i) leader.append(entry_of(i <= 4 ? 1 : 3, i));
  s.log().append_view(leader.view(5, 3));
  EXPECT_EQ(s.log().last_index(), 7u);
  s.recover();
  ASSERT_EQ(s.log().last_index(), 4u);
  EXPECT_EQ(s.log().first_index(), 3u);

  // InstallSnapshot replaces the log with a durable snapshot line.
  s.log().append(entry_of(3, 5));
  s.install(10, 4);
  EXPECT_EQ(s.durable_index(), 10u);
  s.log().append(entry_of(4, 11));
  s.log().append(entry_of(4, 12));
  s.recover();
  EXPECT_EQ(s.log().last_index(), 10u);
  EXPECT_TRUE(s.log().empty());
  EXPECT_EQ(s.log().compacted_to(), 10u);
  EXPECT_EQ(s.log().compacted_term(), 4u);
}

TEST(Pause, FrozenTimersResumeWithRemainingTime) {
  Cluster c(cluster::make_raft_config(5, 6));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  const NodeId frozen = leader == 0 ? 1 : 0;
  const raft::Term before = c.node(frozen).term();
  c.pause(frozen);
  c.sim().run_for(30s);  // far longer than any election timeout
  EXPECT_EQ(c.node(frozen).term(), before);  // frozen: no timeouts fired
  c.resume(frozen);
  c.sim().run_for(3s);
  // Back in the flock, same leader, no disruption (pre-vote + frozen state).
  EXPECT_EQ(c.current_leader(), leader);
  EXPECT_EQ(c.node(frozen).leader_hint(), leader);
}

TEST(Pause, PausedNodeProcessesNothing) {
  Cluster c(cluster::make_raft_config(3, 7));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  const NodeId frozen = leader == 0 ? 1 : 0;
  c.pause(frozen);
  const auto commit_before = c.node(frozen).commit_index();
  for (int i = 0; i < 10; ++i) c.node(leader).submit(make_cmd("k" + std::to_string(i), "v"));
  c.sim().run_for(3s);
  EXPECT_EQ(c.node(frozen).commit_index(), commit_before);
  c.resume(frozen);
  c.sim().run_for(5s);
  EXPECT_EQ(c.node(frozen).commit_index(), c.node(leader).commit_index());
}

TEST(Pause, DoublePauseAndResumeAreIdempotent) {
  Cluster c(cluster::make_raft_config(3, 8));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  const NodeId frozen = leader == 0 ? 1 : 0;
  c.node(frozen).pause();
  c.node(frozen).pause();  // no-op
  EXPECT_TRUE(c.node(frozen).paused());
  c.node(frozen).resume();
  c.node(frozen).resume();  // no-op
  EXPECT_FALSE(c.node(frozen).paused());
  c.sim().run_for(2s);
  EXPECT_NE(c.current_leader(), kNoNode);
}

/// Crash-recovery property sweep: random crash/restart sequences never lose
/// committed data.
class RecoverySeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecoverySeedSweep, CommittedDataAlwaysSurvives) {
  Cluster c(cluster::make_raft_config(5, GetParam()));
  Rng rng(derive_seed(GetParam(), 0xFA11));
  ASSERT_TRUE(c.await_leader(60s));
  int written = 0;
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(c.await_leader(60s)) << "round " << round;
    c.sim().run_for(2s);
    const NodeId leader = c.current_leader();
    if (leader == kNoNode) continue;
    if (auto* n = c.node_if_alive(leader); n != nullptr && n->running()) {
      if (n->submit(make_cmd("round" + std::to_string(round), "v")).has_value()) ++written;
    }
    c.sim().run_for(2s);
    // Crash one random node and bring it back.
    const NodeId victim = static_cast<NodeId>(rng.uniform_index(c.size()));
    if (c.node_if_alive(victim) != nullptr) {
      c.crash(victim);
      c.sim().run_for(3s);
      c.restart(victim);
    }
    c.sim().run_for(3s);
  }
  c.sim().run_for(10s);
  ASSERT_TRUE(c.await_leader(60s));
  c.sim().run_for(5s);
  const NodeId leader = c.current_leader();
  ASSERT_NE(leader, kNoNode);
  EXPECT_GE(static_cast<int>(c.state_machine(leader).size()), written - 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoverySeedSweep, ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL));

}  // namespace
}  // namespace dyna
