// Log replication: commitment, catch-up, conflict resolution, client path,
// and zero-copy apply (replicas alias the one shared copy of a value).
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "kvstore/client.hpp"
#include "kvstore/command.hpp"

namespace dyna {
namespace {

using namespace std::chrono_literals;
using cluster::Cluster;

raft::Command make_cmd(const std::string& key, const std::string& value) {
  raft::Command cmd;
  cmd.payload = kv::encode(kv::KvCommand{kv::Op::Put, key, value, {}});
  return cmd;
}

TEST(Replication, SubmittedEntryCommitsEverywhere) {
  Cluster c(cluster::make_raft_config(5, 1));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  const auto index = c.node(leader).submit(make_cmd("k", "v"));
  ASSERT_TRUE(index.has_value());
  c.sim().run_for(2s);
  for (const NodeId id : c.server_ids()) {
    EXPECT_GE(c.node(id).commit_index(), *index) << "node " << id;
    EXPECT_EQ(c.state_machine(id).data().at("k"), "v") << "node " << id;
  }
}

TEST(Replication, ReplicasAliasOneCopyOfAReplicatedValue) {
  // Zero-copy apply: followers splice the leader's segment into their logs,
  // and every replica's stored value is a view into that one segment — the
  // same bytes, not three copies of them.
  Cluster c(cluster::make_raft_config(3, 5));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  const std::string value(40, 'z');  // past the 15-byte small-string buffer
  ASSERT_TRUE(c.node(leader).submit(make_cmd("k", value)).has_value());
  c.sim().run_for(2s);
  const char* shared = c.state_machine(leader).data().at("k").bytes.data();
  for (const NodeId id : c.server_ids()) {
    EXPECT_EQ(c.state_machine(id).data().at("k"), value) << "node " << id;
    EXPECT_EQ(c.state_machine(id).data().at("k").bytes.data(), shared) << "node " << id;
  }
}

TEST(Replication, SingleServerAppliesFromSealedSegments) {
  // A lone voter never ships a view, so its apply loop seals the open tail
  // itself before handing entries out; later appends into the fresh tail
  // must leave the values it aliased intact.
  Cluster c(cluster::make_raft_config(1, 6));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  for (int i = 0; i < 50; ++i) {
    const std::string value(32, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(c.node(leader).submit(make_cmd("k" + std::to_string(i % 5), value)).has_value());
    c.sim().run_for(10ms);
  }
  c.sim().run_for(1s);
  EXPECT_GT(c.node(leader).log().sealed_runs(), 0u);
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(c.state_machine(leader).data().at("k" + std::to_string(k)),
              std::string(32, static_cast<char>('a' + (45 + k) % 26)))
        << "k" << k;
  }
}

TEST(Replication, NonLeaderRejectsSubmit) {
  Cluster c(cluster::make_raft_config(3, 2));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  for (const NodeId id : c.server_ids()) {
    if (id == leader) continue;
    EXPECT_FALSE(c.node(id).submit(make_cmd("a", "b")).has_value());
  }
}

TEST(Replication, NoopCommittedAtLeadershipStart) {
  Cluster c(cluster::make_raft_config(3, 3));
  ASSERT_TRUE(c.await_leader(30s));
  c.sim().run_for(2s);
  const NodeId leader = c.current_leader();
  const auto& log = c.node(leader).log();
  ASSERT_FALSE(log.empty());
  EXPECT_TRUE(log.front().command.is_noop());
  EXPECT_EQ(log.front().term, c.node(leader).term());
  EXPECT_GE(c.node(leader).commit_index(), log.front().index);
}

TEST(Replication, BatchOfEntriesReplicatesInOrder) {
  Cluster c(cluster::make_raft_config(5, 4));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(c.node(leader).submit(make_cmd("k" + std::to_string(i), "v")).has_value());
  }
  c.sim().run_for(3s);
  for (const NodeId id : c.server_ids()) {
    EXPECT_EQ(c.state_machine(id).size(), 100u) << "node " << id;
    EXPECT_EQ(c.node(id).log().size(), c.node(leader).log().size());
  }
}

TEST(Replication, PausedFollowerCatchesUpOnResume) {
  Cluster c(cluster::make_raft_config(5, 5));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  const NodeId lagger = leader == 0 ? 1 : 0;
  c.pause(lagger);
  for (int i = 0; i < 50; ++i) {
    c.node(leader).submit(make_cmd("k" + std::to_string(i), "v"));
  }
  c.sim().run_for(2s);
  EXPECT_LT(c.node(lagger).commit_index(), c.node(leader).commit_index());
  c.resume(lagger);
  c.sim().run_for(5s);
  EXPECT_EQ(c.node(lagger).commit_index(), c.node(leader).commit_index());
  EXPECT_EQ(c.state_machine(lagger).size(), 50u);
}

/// Entries of `follower` that are the leader's own entries (same address),
/// over the leader's whole log.
std::size_t shared_entries(Cluster& c, NodeId follower, NodeId leader) {
  std::size_t shared = 0;
  const raft::LogIndex last = c.node(leader).last_log_index();
  for (raft::LogIndex i = 1; i <= last && i <= c.node(follower).last_log_index(); ++i) {
    if (&c.node(follower).log().entry(i) == &c.node(leader).log().entry(i)) ++shared;
  }
  return shared;
}

TEST(Replication, CutOffFollowerCatchesUpOnTheLeadersSegments) {
  // A cut link drops the follower's traffic instead of parking it, so the
  // leader commits over many broadcast rounds, one segment each, without
  // it. After the heal one AppendEntries spans those rounds' runs, and the
  // follower adopts the slices it lists: every entry it holds is the
  // leader's entry, not a copy of it.
  Cluster c(cluster::make_raft_config(5, 5));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  const NodeId lagger = leader == 0 ? 1 : 0;
  auto cut = [&](bool blocked) {
    for (const NodeId id : c.server_ids()) {
      if (id == lagger) continue;
      c.network().set_blocked(id, lagger, blocked);
      c.network().set_blocked(lagger, id, blocked);
    }
  };
  cut(true);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(c.node(leader).submit(make_cmd("k" + std::to_string(i), "v")).has_value());
    c.sim().run_for(20ms);
  }
  c.sim().run_for(1s);
  ASSERT_GE(c.node(leader).log().sealed_runs(), 10u);
  EXPECT_LT(c.node(lagger).commit_index(), c.node(leader).commit_index());
  cut(false);
  c.sim().run_for(5s);
  ASSERT_TRUE(c.node(leader).is_leader());
  ASSERT_EQ(c.node(lagger).last_log_index(), c.node(leader).last_log_index());
  EXPECT_EQ(c.node(lagger).commit_index(), c.node(leader).commit_index());
  EXPECT_EQ(c.state_machine(lagger).size(), 50u);
  EXPECT_EQ(shared_entries(c, lagger, leader), c.node(leader).last_log_index());
}

TEST(Replication, DivergentUncommittedEntriesAreTruncated) {
  // Partition the leader with one follower; its appends cannot commit. The
  // majority side elects a new leader and commits different entries. On heal
  // the minority's conflicting suffix must be truncated away.
  Cluster c(cluster::make_raft_config(5, 6));
  ASSERT_TRUE(c.await_leader(30s));
  c.sim().run_for(2s);
  const NodeId old_leader = c.current_leader();
  NodeId buddy = kNoNode;
  std::vector<NodeId> majority;
  for (const NodeId id : c.server_ids()) {
    if (id == old_leader) continue;
    if (buddy == kNoNode) {
      buddy = id;
    } else {
      majority.push_back(id);
    }
  }
  auto set_partition = [&](bool blocked) {
    for (const NodeId a : {old_leader, buddy}) {
      for (const NodeId b : majority) {
        c.network().set_blocked(a, b, blocked);
        c.network().set_blocked(b, a, blocked);
      }
    }
  };
  set_partition(true);

  // Minority side: uncommittable entries.
  for (int i = 0; i < 5; ++i) {
    c.node(old_leader).submit(make_cmd("stale" + std::to_string(i), "x"));
  }
  c.sim().run_for(10s);
  const auto stale_commit = c.node(old_leader).commit_index();

  // Majority side elects and commits fresh entries.
  raft::Term max_term = 0;
  for (const NodeId id : majority) max_term = std::max(max_term, c.node(id).term());
  NodeId new_leader = kNoNode;
  for (const NodeId id : majority) {
    if (c.node(id).is_leader() && c.node(id).term() == max_term) new_leader = id;
  }
  ASSERT_NE(new_leader, kNoNode);
  for (int i = 0; i < 5; ++i) {
    c.node(new_leader).submit(make_cmd("fresh" + std::to_string(i), "y"));
  }
  c.sim().run_for(3s);
  EXPECT_GT(c.node(new_leader).commit_index(), stale_commit);

  set_partition(false);
  c.sim().run_for(10s);

  // Everyone converges on the new leader's log; stale entries are gone. The
  // minority truncated its stale suffix and adopted the new leader's entries
  // themselves, not copies of them.
  for (const NodeId id : c.server_ids()) {
    EXPECT_EQ(c.node(id).log().size(), c.node(new_leader).log().size()) << "node " << id;
    EXPECT_EQ(c.state_machine(id).data().count("stale0"), 0u) << "node " << id;
    EXPECT_EQ(c.state_machine(id).data().at("fresh0"), "y") << "node " << id;
    EXPECT_EQ(shared_entries(c, id, new_leader), c.node(new_leader).last_log_index())
        << "node " << id;
  }
}

TEST(ClientPath, PutAndGetThroughKvClient) {
  Cluster c(cluster::make_raft_config(3, 7));
  ASSERT_TRUE(c.await_leader(30s));
  kv::KvClient client(c.sim(), c.network(), c.server_ids(), c.fork_rng(1));

  std::string put_result, get_result;
  client.put("alpha", "42", [&](const kv::ClientResult& r) {
    ASSERT_TRUE(r.ok);
    put_result = r.value;
  });
  c.sim().run_for(3s);
  EXPECT_TRUE(put_result.rfind("OK", 0) == 0) << put_result;

  client.get("alpha", [&](const kv::ClientResult& r) {
    ASSERT_TRUE(r.ok);
    get_result = r.value;
  });
  c.sim().run_for(3s);
  EXPECT_EQ(get_result, "42");
  EXPECT_EQ(client.completed(), 2u);
}

TEST(ClientPath, ClientFollowsLeaderRedirects) {
  Cluster c(cluster::make_raft_config(5, 8));
  ASSERT_TRUE(c.await_leader(30s));
  // A fresh client starts with a random target; redirects must route it.
  for (int attempt = 0; attempt < 5; ++attempt) {
    kv::KvClient client(c.sim(), c.network(), c.server_ids(), c.fork_rng(100 + attempt));
    bool done = false;
    client.put("k" + std::to_string(attempt), "v", [&](const kv::ClientResult& r) {
      EXPECT_TRUE(r.ok);
      done = true;
    });
    c.sim().run_for(5s);
    EXPECT_TRUE(done);
  }
}

TEST(ClientPath, ClientSurvivesLeaderFailover) {
  Cluster c(cluster::make_raft_config(5, 9));
  ASSERT_TRUE(c.await_leader(30s));
  kv::KvClient client(c.sim(), c.network(), c.server_ids(), c.fork_rng(2));

  // Establish the leader as the client's target.
  bool warm = false;
  client.put("w", "1", [&](const kv::ClientResult& r) { warm = r.ok; });
  c.sim().run_for(3s);
  ASSERT_TRUE(warm);

  const NodeId old_leader = c.current_leader();
  c.pause(old_leader);
  bool done = false;
  client.put("after-failover", "2", [&](const kv::ClientResult& r) {
    EXPECT_TRUE(r.ok);
    done = true;
  });
  c.sim().run_for(30s);
  EXPECT_TRUE(done);
  EXPECT_GT(client.retries(), 0u);
  c.resume(old_leader);
}

}  // namespace
}  // namespace dyna
