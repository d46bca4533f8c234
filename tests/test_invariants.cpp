// InvariantChecker self-tests: the checker must actually fire when safety is
// broken (forged observer events, corrupted log entries, forked terms,
// diverged state machines) and must stay silent on healthy histories —
// including post-restart replay, which rewinds a node's apply watermark.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "kvstore/command.hpp"
#include "kvstore/state_machine.hpp"
#include "raft/invariant_checker.hpp"
#include "test_support.hpp"

namespace dyna {
namespace {

using namespace std::chrono_literals;
using raft::InvariantChecker;
using raft::LogEntry;
using testutil::start_cluster;

LogEntry make_entry(raft::LogIndex index, raft::Term term, std::string payload) {
  LogEntry e;
  e.index = index;
  e.term = term;
  e.command.payload = std::move(payload);
  return e;
}

std::string put(std::string key, std::string value) {
  return kv::encode(kv::KvCommand{kv::Op::Put, std::move(key), std::move(value), {}});
}

std::string del(std::string key) {
  return kv::encode(kv::KvCommand{kv::Op::Del, std::move(key), {}, {}});
}

// ---- Streaming checks -------------------------------------------------------------

TEST(InvariantChecker, ElectionSafetyFlagsTwoLeadersInOneTerm) {
  InvariantChecker chk;
  chk.on_leader_established(1, 5, TimePoint{});
  chk.on_leader_established(1, 5, TimePoint{});  // same leader again: fine
  EXPECT_TRUE(chk.ok());
  chk.on_leader_established(2, 5, TimePoint{});  // forked term
  EXPECT_FALSE(chk.ok());
  EXPECT_EQ(chk.count(), 1u);
  chk.on_leader_established(2, 6, TimePoint{});  // new term: fine
  EXPECT_EQ(chk.count(), 1u);
}

TEST(InvariantChecker, MonotonicApplyFlagsRegression) {
  InvariantChecker chk;
  chk.on_entry_committed(1, make_entry(1, 1, "a"), TimePoint{});
  chk.on_entry_committed(1, make_entry(2, 1, "b"), TimePoint{});
  chk.on_entry_committed(1, make_entry(5, 2, "c"), TimePoint{});  // gap: fine
  EXPECT_TRUE(chk.ok());
  chk.on_entry_committed(1, make_entry(4, 2, "d"), TimePoint{});  // regression
  EXPECT_EQ(chk.count(), 1u);
}

TEST(InvariantChecker, NodeRestartRewindsWatermarkSoReplayIsClean) {
  InvariantChecker chk;
  chk.on_entry_committed(1, make_entry(1, 1, "a"), TimePoint{});
  chk.on_entry_committed(1, make_entry(2, 1, "b"), TimePoint{});
  chk.on_node_started(1, TimePoint{});  // crash + restart: applies replay from 1
  chk.on_entry_committed(1, make_entry(1, 1, "a"), TimePoint{});
  chk.on_entry_committed(1, make_entry(2, 1, "b"), TimePoint{});
  EXPECT_TRUE(chk.ok());
}

TEST(InvariantChecker, ApplyDivergenceFlagsDifferentEntryAtSameIndex) {
  InvariantChecker chk;
  chk.on_entry_committed(1, make_entry(3, 2, "x"), TimePoint{});
  chk.on_entry_committed(2, make_entry(3, 2, "x"), TimePoint{});  // agrees: fine
  EXPECT_TRUE(chk.ok());
  chk.on_entry_committed(3, make_entry(3, 2, "y"), TimePoint{});  // payload differs
  EXPECT_EQ(chk.count(), 1u);
  InvariantChecker chk2;
  chk2.on_entry_committed(1, make_entry(3, 2, "x"), TimePoint{});
  chk2.on_entry_committed(2, make_entry(3, 4, "x"), TimePoint{});  // term differs
  EXPECT_EQ(chk2.count(), 1u);
}

TEST(InvariantChecker, FingerprintCoversTermPayloadAndConfigChange) {
  const LogEntry base = make_entry(1, 3, "cmd");
  LogEntry term_diff = base;
  term_diff.term = 4;
  LogEntry payload_diff = base;
  payload_diff.command.payload = "cmd2";
  LogEntry cfg_diff = base;
  cfg_diff.command.config_change = raft::ConfigChange::AddLearner;
  cfg_diff.command.config_target = 7;
  const std::uint64_t h = InvariantChecker::fingerprint(base);
  EXPECT_NE(h, InvariantChecker::fingerprint(term_diff));
  EXPECT_NE(h, InvariantChecker::fingerprint(payload_diff));
  EXPECT_NE(h, InvariantChecker::fingerprint(cfg_diff));
  EXPECT_EQ(h & 1, 1u);  // 0 is reserved for "unset"
}

TEST(InvariantChecker, FingerprintChangesOnAnySingleByteFlip) {
  // Lengths 0..40 cover whole 8-byte words and every tail length.
  for (std::size_t len = 0; len <= 40; ++len) {
    std::string payload;
    for (std::size_t i = 0; i < len; ++i) payload.push_back(static_cast<char>('a' + i % 26));
    const std::uint64_t h = InvariantChecker::fingerprint(make_entry(1, 3, payload));
    EXPECT_NE(h, InvariantChecker::fingerprint(make_entry(1, 3, payload + '\0')))
        << "len " << len;
    for (std::size_t pos = 0; pos < len; ++pos) {
      for (const unsigned mask : {0x01u, 0x80u, 0xFFu}) {
        std::string flipped = payload;
        flipped[pos] = static_cast<char>(static_cast<unsigned char>(flipped[pos]) ^ mask);
        EXPECT_NE(h, InvariantChecker::fingerprint(make_entry(1, 3, flipped)))
            << "len " << len << " pos " << pos << " mask " << mask;
      }
    }
  }
}

// ---- End-of-trial audit helpers ---------------------------------------------------

TEST(InvariantChecker, AuditLogEntryFlagsCorruptedFollowerLog) {
  InvariantChecker chk;
  chk.on_entry_committed(1, make_entry(4, 2, "good"), TimePoint{});
  chk.audit_log_entry(2, make_entry(4, 2, "good"));
  EXPECT_TRUE(chk.ok());
  chk.audit_log_entry(3, make_entry(4, 2, "corrupt"));
  EXPECT_EQ(chk.count(), 1u);
}

TEST(InvariantChecker, AuditLeaderCoverageFlagsTruncatedLeader) {
  InvariantChecker chk;
  chk.on_entry_committed(1, make_entry(10, 2, "a"), TimePoint{});
  chk.audit_leader_coverage(2, 10);  // covers: fine
  EXPECT_TRUE(chk.ok());
  chk.audit_leader_coverage(2, 9);  // leader's log ends before a committed index
  EXPECT_EQ(chk.count(), 1u);
}

TEST(InvariantChecker, AuditAppliedStateFlagsDivergedReplicas) {
  kv::KvStateMachine a, b, c;
  for (kv::KvStateMachine* m : {&a, &b, &c}) (void)m->apply(put("k", "v"));
  InvariantChecker chk;
  chk.audit_applied_state(1, a, 2, b, 7);
  EXPECT_TRUE(chk.ok());
  (void)c.apply_one(del("k"));
  (void)c.apply_one(put("k", "w"));
  chk.audit_applied_state(1, a, 3, c, 7);
  EXPECT_EQ(chk.count(), 1u);
}

// One random op script per key; interleaving the scripts differently yields
// equal states (same revision, same pairs) with different insertion orders.
struct KeyScripts {
  std::vector<std::vector<std::string>> per_key;

  KeyScripts(Rng& rng, std::size_t keys, double del_p = 0.3) : per_key(keys) {
    for (std::size_t k = 0; k < keys; ++k) {
      const std::string key = "key-" + std::to_string(k);
      const std::size_t ops = 1 + rng.uniform_index(6);
      for (std::size_t i = 0; i < ops; ++i) {
        per_key[k].push_back(rng.bernoulli(del_p)
                                 ? del(key)
                                 : put(key, std::to_string(rng.uniform_index(4))));
      }
    }
  }

  /// One random interleaving that keeps each key's own op order: each step
  /// picks uniformly among the keys with ops left, in key order.
  [[nodiscard]] std::vector<std::string> interleave(Rng& rng) const {
    std::vector<std::size_t> next(per_key.size(), 0);
    std::vector<std::size_t> open;
    for (std::size_t k = 0; k < per_key.size(); ++k) {
      if (!per_key[k].empty()) open.push_back(k);
    }
    std::vector<std::string> out;
    while (!open.empty()) {
      const std::size_t pick = rng.uniform_index(open.size());
      const std::size_t k = open[pick];
      out.push_back(per_key[k][next[k]++]);
      if (next[k] == per_key[k].size()) {
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    return out;
  }
};

/// Apply `ops`, round-tripping the machine through snapshot/restore after
/// the first `cut` of them.
kv::KvStateMachine replay(const std::vector<std::string>& ops, std::size_t cut) {
  kv::KvStateMachine m;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i == cut) {
      const std::string blob = m.snapshot();
      m.restore(blob);
    }
    (void)m.apply_one(ops[i]);
  }
  return m;
}

TEST(InvariantChecker, InPlaceStateComparisonAgreesWithSnapshotBytes) {
  const auto agrees = [](const kv::KvStateMachine& x, const kv::KvStateMachine& y) {
    return (x == y) == (x.snapshot() == y.snapshot());
  };
  Rng rng = testutil::test_rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const KeyScripts scripts(rng, 1 + rng.uniform_index(12));
    const auto ops_a = scripts.interleave(rng);
    const auto ops_b = scripts.interleave(rng);
    const kv::KvStateMachine a = replay(ops_a, rng.uniform_index(ops_a.size() + 1));
    const kv::KvStateMachine b = replay(ops_b, rng.uniform_index(ops_b.size() + 1));
    ASSERT_TRUE(a == b);
    ASSERT_TRUE(agrees(a, b));

    // Same revision, one value differs.
    kv::KvStateMachine ax = a, by = b;
    (void)ax.apply_one(put("key-0", "x"));
    (void)by.apply_one(put("key-0", "y"));
    EXPECT_FALSE(ax == by);
    EXPECT_TRUE(agrees(ax, by));
    // One more PUT: revision and possibly data differ.
    EXPECT_FALSE(a == ax);
    EXPECT_TRUE(agrees(a, ax));
    // Same (key, value) pairs, revision + 2.
    kv::KvStateMachine bumped = b;
    (void)bumped.apply_one(put("scratch", "v"));
    (void)bumped.apply_one(del("scratch"));
    ASSERT_EQ(bumped.data(), a.data());
    EXPECT_FALSE(a == bumped);
    EXPECT_TRUE(agrees(a, bumped));
  }
}

TEST(InvariantChecker, InPlaceStateComparisonAgreesWithSnapshotBytesAtScale) {
  // Thousands of keys and DEL-heavy scripts: two interleavings (and a
  // restore partway through, which reinserts in key order) leave the keys in
  // different slots of the index, and == must still agree with the bytes.
  const auto agrees = [](const kv::KvStateMachine& x, const kv::KvStateMachine& y) {
    return (x == y) == (x.snapshot() == y.snapshot());
  };
  const auto slot_order = [](const kv::KvStateMachine& m) {
    std::vector<std::string> keys;
    m.data().for_each([&](std::string_view key, const kv::Value&) { keys.emplace_back(key); });
    return keys;
  };
  Rng rng = testutil::test_rng(2025);
  int layouts_differ = 0;
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const KeyScripts scripts(rng, 2000 + rng.uniform_index(1000), 0.6);
    const auto ops_a = scripts.interleave(rng);
    const auto ops_b = scripts.interleave(rng);
    const kv::KvStateMachine a = replay(ops_a, rng.uniform_index(ops_a.size() + 1));
    const kv::KvStateMachine b = replay(ops_b, rng.uniform_index(ops_b.size() + 1));
    ASSERT_GE(a.size(), 500u);
    ASSERT_TRUE(a == b);
    ASSERT_TRUE(agrees(a, b));
    layouts_differ += slot_order(a) != slot_order(b) ? 1 : 0;

    const std::string some_key = slot_order(a).front();
    // One key deleted on one side: sizes and revisions differ.
    kv::KvStateMachine fewer = b;
    (void)fewer.apply_one(del(some_key));
    EXPECT_FALSE(a == fewer);
    EXPECT_TRUE(agrees(a, fewer));
    // Same revision and keys, one value differs.
    kv::KvStateMachine ax = a, bx = b;
    (void)ax.apply_one(put(some_key, "x"));
    (void)bx.apply_one(put(some_key, "y"));
    EXPECT_FALSE(ax == bx);
    EXPECT_TRUE(agrees(ax, bx));
    // Same (key, value) pairs after a deleted key comes back; revision + 2.
    kv::KvStateMachine bumped = b;
    const std::string value(b.data().at(some_key).bytes);
    (void)bumped.apply_one(del(some_key));
    (void)bumped.apply_one(put(some_key, value));
    ASSERT_EQ(bumped.data(), a.data());
    EXPECT_FALSE(a == bumped);
    EXPECT_TRUE(agrees(a, bumped));
  }
  EXPECT_GT(layouts_differ, 0);
}

TEST(InvariantChecker, ClearResetsEverything) {
  InvariantChecker chk;
  chk.on_leader_established(1, 5, TimePoint{});
  chk.on_leader_established(2, 5, TimePoint{});
  chk.on_entry_committed(1, make_entry(1, 1, "a"), TimePoint{});
  EXPECT_FALSE(chk.ok());
  chk.clear();
  EXPECT_TRUE(chk.ok());
  EXPECT_EQ(chk.count(), 0u);
  EXPECT_EQ(chk.max_committed(), 0u);
  // A fresh term-5 leader claim after clear is not a violation.
  chk.on_leader_established(3, 5, TimePoint{});
  EXPECT_TRUE(chk.ok());
}

TEST(InvariantChecker, CountKeepsIncrementingPastStorageCap) {
  InvariantChecker chk;
  chk.on_entry_committed(1, make_entry(1, 1, "base"), TimePoint{});
  for (std::size_t i = 0; i < InvariantChecker::kMaxStored + 10; ++i) {
    chk.audit_log_entry(2, make_entry(1, 1, "corrupt" + std::to_string(i)));
  }
  EXPECT_EQ(chk.count(), InvariantChecker::kMaxStored + 10);
  EXPECT_EQ(chk.violations().size(), InvariantChecker::kMaxStored);
}

// ---- Cluster integration ----------------------------------------------------------

TEST(InvariantCluster, HealthyTrialAuditsClean) {
  auto c = start_cluster(cluster::make_raft_config(5, 17));
  for (int i = 0; i < 30; ++i) {
    const NodeId leader = c->current_leader();
    ASSERT_NE(leader, kNoNode);
    raft::Command cmd;
    cmd.payload = "put k" + std::to_string(i) + " v";
    (void)c->node(leader).submit(std::move(cmd));
    c->sim().run_for(50ms);
  }
  c->sim().run_for(2s);
  EXPECT_GT(c->checker().max_committed(), 0u);
  EXPECT_EQ(c->audit_invariants(), 0u);
  EXPECT_TRUE(c->checker().ok());
}

TEST(InvariantCluster, AuditCatchesForgedDivergenceOnRealHistory) {
  // Take a real committed history, then audit a tampered copy of one entry —
  // the end-of-trial sweep must flag it against the streaming commit table.
  auto c = start_cluster(cluster::make_raft_config(3, 23));
  const NodeId leader = c->current_leader();
  ASSERT_NE(leader, kNoNode);
  raft::Command cmd;
  cmd.payload = "put key value";
  const auto idx = c->node(leader).submit(std::move(cmd));
  ASSERT_TRUE(idx.has_value());
  c->sim().run_for(2s);
  ASSERT_GE(c->checker().max_committed(), *idx);

  LogEntry tampered;
  bool found = false;
  c->node(leader).log().for_each(*idx, *idx, [&](const LogEntry& e) {
    tampered = e;
    found = true;
  });
  ASSERT_TRUE(found);
  tampered.command.payload = "put key EVIL";
  c->checker().audit_log_entry(leader, tampered);
  EXPECT_EQ(c->checker().count(), 1u);

  // The untampered cluster state still audits clean on a fresh pass.
  c->checker().clear();
  c->sim().run_for(500ms);
  EXPECT_EQ(c->audit_invariants(), 0u);
}

TEST(InvariantCluster, CheckerSurvivesTrialReset) {
  auto c = start_cluster(cluster::make_raft_config(3, 29));
  c->checker().on_leader_established(999, 12345, TimePoint{});
  c->checker().on_leader_established(998, 12345, TimePoint{});
  EXPECT_FALSE(c->checker().ok());
  c->reset(std::uint64_t{29});
  EXPECT_TRUE(c->checker().ok()) << "reset must clear checker state between trials";
  ASSERT_TRUE(c->await_leader(30s));
  c->sim().run_for(1s);
  EXPECT_EQ(c->audit_invariants(), 0u);
}

TEST(InvariantCluster, ExtraPutOnOneFollowerIsOneAppliedPrefixViolation) {
  auto c = start_cluster(cluster::make_raft_config(5, 31));
  const NodeId leader = c->current_leader();
  for (int i = 0; i < 10; ++i) {
    raft::Command cmd;
    cmd.payload = put("k" + std::to_string(i), "v");
    ASSERT_TRUE(c->node(leader).submit(std::move(cmd)).has_value());
  }
  c->sim().run_for(2s);
  const auto ids = c->server_ids();
  for (const NodeId id : ids) {
    ASSERT_EQ(c->node(id).last_applied(), c->node(leader).last_applied()) << "node " << id;
  }
  ASSERT_EQ(c->audit_invariants(), 0u);

  // The last follower in roster order is compared once, against the first
  // replica; tampering it must yield exactly one violation.
  const NodeId victim = ids.back() != leader ? ids.back() : ids[ids.size() - 2];
  (void)c->state_machine(victim).apply(put("extra", "x"));
  EXPECT_EQ(c->audit_invariants(), 1u);
  ASSERT_EQ(c->checker().violations().size(), 1u);
  EXPECT_NE(c->checker().violations()[0].what.find("applied-prefix equality"), std::string::npos)
      << c->checker().violations()[0].what;
}

TEST(InvariantCluster, StaleResumedLeaderIsNotAuditedForCompleteness) {
  auto c = start_cluster(cluster::make_raft_config(5, 37));
  const NodeId stale = c->current_leader();
  c->pause(stale);
  ASSERT_TRUE(c->await_leader(30s));
  const NodeId successor = c->current_leader();
  ASSERT_NE(successor, stale);
  for (int i = 0; i < 5; ++i) {
    raft::Command cmd;
    cmd.payload = put("k" + std::to_string(i), "v");
    ASSERT_TRUE(c->node(successor).submit(std::move(cmd)).has_value());
  }
  c->sim().run_for(1s);
  ASSERT_GT(c->checker().max_committed(), c->node(stale).last_log_index());

  // Nobody leads the newest term; the stale leader resumes and, until it
  // hears from a newer-term peer, still believes it leads its old term.
  c->pause(successor);
  c->resume(stale);
  ASSERT_EQ(c->current_leader(), stale);
  ASSERT_LT(c->node(stale).term(), c->node(successor).term());
  EXPECT_EQ(c->audit_invariants(), 0u);
  for (const auto& v : c->checker().violations()) ADD_FAILURE() << v.what;
}

}  // namespace
}  // namespace dyna
