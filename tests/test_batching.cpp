// Group commit end to end: batch frame encoding, batch-aware apply, the
// grouped CPU cost model, per-command completion fan-out, the ReadIndex
// fast path, closed-loop workload determinism, and the trial-reuse reset
// contract for the new leader-side accumulator state.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kvstore/client.hpp"
#include "kvstore/command.hpp"
#include "kvstore/state_machine.hpp"
#include "scenario/runner.hpp"
#include "test_support.hpp"
#include "workload/closed_loop.hpp"

namespace dyna {
namespace {

using namespace std::chrono_literals;
using cluster::Cluster;

// ---- Batch frame encoding ---------------------------------------------------------

TEST(BatchFrame, RoundTripPreservesMembersInOrder) {
  const std::vector<std::string> members = {
      kv::encode({kv::Op::Put, "k1", "v1", {}}),
      kv::encode({kv::Op::Get, "k2", {}, {}}),
      kv::encode({kv::Op::Cas, "k3", "new", "old"}),
      kv::encode({kv::Op::Del, "a:b:c", {}, {}}),  // binary-safe framing
  };
  std::string frame;
  for (const auto& m : members) {
    const std::size_t before = frame.size();
    kv::batch_append(frame, m);
    // batch_overhead must predict the exact growth (frame tag aside).
    const std::size_t tag = before == 0 ? 1 : 0;
    EXPECT_EQ(frame.size() - before, kv::batch_overhead(m) + tag);
  }
  ASSERT_TRUE(kv::is_batch(frame));

  std::vector<std::string> decoded;
  ASSERT_TRUE(kv::for_each_batched(frame, [&](std::string_view m) {
    decoded.emplace_back(m);
  }));
  EXPECT_EQ(decoded, members);
}

TEST(BatchFrame, MalformedFramesAreRejectedNotCrashed) {
  EXPECT_FALSE(kv::for_each_batched("", [](std::string_view) {}));
  EXPECT_FALSE(kv::for_each_batched("Pnot-a-batch", [](std::string_view) {}));
  EXPECT_FALSE(kv::for_each_batched("B9999:short", [](std::string_view) {}));
  EXPECT_FALSE(kv::for_each_batch_result("junk", [](std::string_view) {}));

  kv::KvStateMachine sm;
  EXPECT_EQ(sm.apply("B12:truncated"), "ERR malformed-batch");
  EXPECT_EQ(sm.revision(), 0u);  // nothing half-applied at frame level
}

TEST(BatchFrame, BatchApplyEqualsSequentialApply) {
  // The core group-commit equivalence: applying a batch frame must produce
  // the same store state and the same per-command results as applying the
  // members one at a time.
  Rng rng = testutil::test_rng(7);
  std::vector<std::string> script;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(rng.uniform_index(20));
    switch (rng.uniform_index(4)) {
      case 0: script.push_back(kv::encode({kv::Op::Put, key, std::to_string(i), {}})); break;
      case 1: script.push_back(kv::encode({kv::Op::Get, key, {}, {}})); break;
      case 2: script.push_back(kv::encode({kv::Op::Del, key, {}, {}})); break;
      default:
        script.push_back(kv::encode({kv::Op::Cas, key, "swapped", std::to_string(i - 1)}));
        break;
    }
  }

  kv::KvStateMachine sequential;
  kv::KvStateMachine batched;
  std::vector<std::string> seq_results;
  for (const auto& p : script) seq_results.push_back(sequential.apply(p));

  // Re-play the same script through randomly sized frames (1..8 members).
  std::vector<std::string> batch_results;
  std::size_t i = 0;
  while (i < script.size()) {
    const std::size_t n = 1 + rng.uniform_index(8);
    std::string frame;
    std::size_t members = 0;
    for (; members < n && i + members < script.size(); ++members) {
      kv::batch_append(frame, script[i + members]);
    }
    const std::string blob = batched.apply(frame);
    ASSERT_TRUE(kv::for_each_batch_result(blob, [&](std::string_view one) {
      batch_results.emplace_back(one);
    }));
    i += members;
  }

  EXPECT_EQ(seq_results, batch_results);
  EXPECT_EQ(sequential.snapshot(), batched.snapshot());
  EXPECT_EQ(sequential.revision(), batched.revision());
}

// ---- Grouped CPU cost model -------------------------------------------------------

TEST(ServiceQueueGrouped, PendingCommandsShareOneRound) {
  sim::Simulator sim;
  cluster::ServiceQueue q(sim, {2ms, 100us, 8, true});

  std::vector<double> done_ms;
  for (int i = 0; i < 8; ++i) {
    q.enqueue_command([&] { done_ms.push_back(to_ms(sim.now())); });
  }
  EXPECT_EQ(q.pending_commands(), 8u);
  sim.run_for(1s);

  // One round: 2ms fixed + 8 * 0.1ms marginal, all completions together.
  ASSERT_EQ(done_ms.size(), 8u);
  for (const double t : done_ms) EXPECT_DOUBLE_EQ(t, 2.8);
  EXPECT_EQ(q.rounds_served(), 1u);
  EXPECT_EQ(q.pending_commands(), 0u);
}

TEST(ServiceQueueGrouped, RoundSizeCapSplitsTheBacklog) {
  sim::Simulator sim;
  cluster::ServiceQueue q(sim, {1ms, 100us, 4, true});

  std::vector<double> done_ms;
  for (int i = 0; i < 6; ++i) {
    q.enqueue_command([&] { done_ms.push_back(to_ms(sim.now())); });
  }
  sim.run_for(1s);

  // Round 1: 4 commands at 1 + 0.4 = 1.4ms; round 2: 2 commands 1.2ms later.
  ASSERT_EQ(done_ms.size(), 6u);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(done_ms[static_cast<std::size_t>(i)], 1.4);
  for (int i = 4; i < 6; ++i) EXPECT_DOUBLE_EQ(done_ms[static_cast<std::size_t>(i)], 2.6);
  EXPECT_EQ(q.rounds_served(), 2u);
}

TEST(ServiceQueueGrouped, UnbatchedBaselinePaysARoundPerCommand) {
  sim::Simulator sim;
  cluster::ServiceQueue q(sim, {2ms, 100us, 8, false});  // coalesce off

  std::vector<double> done_ms;
  for (int i = 0; i < 3; ++i) {
    q.enqueue_command([&] { done_ms.push_back(to_ms(sim.now())); });
  }
  sim.run_for(1s);

  // Each command is its own round under the same cost split: 2.1ms apiece.
  ASSERT_EQ(done_ms.size(), 3u);
  EXPECT_DOUBLE_EQ(done_ms[0], 2.1);
  EXPECT_DOUBLE_EQ(done_ms[1], 4.2);
  EXPECT_DOUBLE_EQ(done_ms[2], 6.3);
}

// ---- Cluster-level group commit ---------------------------------------------------

cluster::ClusterConfig batching_config(std::uint64_t seed, bool group_commit,
                                       bool read_index = false) {
  cluster::ClusterConfig cfg = cluster::make_raft_config(3, seed);
  net::LinkCondition link;
  link.rtt = 10ms;
  cfg.links = net::ConditionSchedule::constant(link);
  cfg.raft.group_commit = group_commit;
  cfg.raft.read_index = read_index;
  return cfg;
}

TEST(GroupCommit, EveryBatchedCommandCompletesIndividually) {
  auto c = testutil::start_cluster(batching_config(11, /*group_commit=*/true));
  wl::MixConfig mix;
  mix.clients = 12;
  mix.get_ratio = 0.0;
  mix.ops_per_client = 25;
  mix.duration = 60s;
  shard::ShardRouter router(1);
  wl::ClosedLoopPool pool(*c, router, mix, c->fork_rng(1));
  const wl::MixResult r = pool.run();

  // Closed-loop, ops-bound: the fan-out path must complete every single
  // command even though most rode a multi-command frame.
  EXPECT_EQ(r.completed, 12u * 25u);
  EXPECT_EQ(r.failed, 0u);

  raft::RaftNode& leader = c->node(c->current_leader());
  EXPECT_GT(leader.batches_sealed(), 0u);
  EXPECT_GT(leader.batched_commands(), leader.batches_sealed());
  // 12 concurrent sessions coalesce: far fewer entries than commands.
  EXPECT_LT(leader.last_log_index(), 12u * 25u);
}

TEST(GroupCommit, BatchedMatchesUnbatchedFinalState) {
  // Same seed, same closed-loop script, disjoint per-session keyspaces so the
  // final store state is interleaving-independent: batching on and off must
  // land on byte-identical state machines.
  auto run = [](bool group_commit) {
    auto c = testutil::start_cluster(batching_config(23, group_commit));
    wl::MixConfig mix;
    mix.clients = 8;
    mix.get_ratio = 0.0;
    mix.keyspace = 50;
    mix.value_bytes_min = 8;
    mix.value_bytes_max = 64;
    mix.ops_per_client = 30;
    mix.duration = 60s;
    mix.disjoint_keyspace = true;
    shard::ShardRouter router(1);
    wl::ClosedLoopPool pool(*c, router, mix, c->fork_rng(2));
    const wl::MixResult r = pool.run();
    EXPECT_EQ(r.completed, 8u * 30u);
    c->sim().run_for(2s);  // let followers catch up
    // Store contents only (revision counts batched GET no-ops identically,
    // but interleaving can reorder revisions across sessions; keys/values
    // are the invariant).
    return c->state_machine(c->current_leader()).snapshot();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ReadIndex, GetsSkipTheLogAndReadYourWrites) {
  auto c = testutil::start_cluster(
      batching_config(31, /*group_commit=*/true, /*read_index=*/true));
  kv::KvClient client(c->sim(), c->network(), c->server_ids(), c->fork_rng(3));

  std::string got;
  bool put_done = false;
  client.put("answer", "42", [&](const kv::ClientResult& r) {
    ASSERT_TRUE(r.ok);
    put_done = true;
    // Issued from the PUT completion: a serializable read admitted after the
    // write commits must observe it.
    client.get("answer", [&](const kv::ClientResult& g) {
      ASSERT_TRUE(g.ok);
      got = g.value;
    });
  });
  c->sim().run_for(5s);
  ASSERT_TRUE(put_done);
  EXPECT_EQ(got, "42");

  raft::RaftNode& leader = c->node(c->current_leader());
  const raft::LogIndex after_put = leader.last_log_index();
  EXPECT_EQ(leader.reads_served(), 1u);

  // A burst of GETs: all answered, zero log growth.
  int gets_ok = 0;
  for (int i = 0; i < 20; ++i) {
    client.get("answer", [&](const kv::ClientResult& g) {
      if (g.ok && g.value == "42") ++gets_ok;
    });
  }
  c->sim().run_for(5s);
  EXPECT_EQ(gets_ok, 20);
  EXPECT_EQ(leader.reads_served(), 21u);
  EXPECT_EQ(leader.last_log_index(), after_put);
}

// ---- Determinism and trial reuse --------------------------------------------------

scenario::SweepSpec mixed_sweep() {
  scenario::SweepSpec sweep;
  sweep.base.name = "mix";
  sweep.base.servers = 3;
  sweep.base.topology = scenario::TopologySpec::constant(10ms);
  sweep.base.group_commit = true;
  sweep.base.read_index = true;
  sweep.base.round_service_time = 200us;
  sweep.base.command_service_time = 20us;
  wl::MixConfig mix;
  mix.clients = 6;
  mix.get_ratio = 0.5;
  mix.value_bytes_min = 8;
  mix.value_bytes_max = 32;
  mix.ops_per_client = 20;
  mix.duration = 60s;
  sweep.base.workload = scenario::WorkloadPlan::closed_loop(mix);
  sweep.seeds = 3;
  sweep.master_seed = 404;
  return sweep;
}

TEST(ClosedLoop, MixedSweepBitIdenticalAcrossThreadCounts) {
  // The determinism contract extended to the new workload: a batched,
  // mixed-GET/PUT closed-loop sweep is bit-identical on 1, 2 and 8 threads.
  scenario::SweepSpec sweep = mixed_sweep();
  sweep.threads = 1;
  const auto t1 = scenario::ScenarioRunner::run_sweep(sweep);
  sweep.threads = 2;
  const auto t2 = scenario::ScenarioRunner::run_sweep(sweep);
  sweep.threads = 8;
  const auto t8 = scenario::ScenarioRunner::run_sweep(sweep);

  ASSERT_EQ(t1.size(), 3u);
  ASSERT_EQ(t2.size(), 3u);
  ASSERT_EQ(t8.size(), 3u);
  for (std::size_t i = 0; i < t1.size(); ++i) {
    ASSERT_EQ(t1[i].mix.size(), 1u);
    EXPECT_GT(t1[i].mix[0].completed, 0u);
    EXPECT_GT(t1[i].mix[0].gets, 0u);
    EXPECT_GT(t1[i].mix[0].puts, 0u);
    EXPECT_EQ(t1[i], t2[i]) << "seed cell " << i;
    EXPECT_EQ(t1[i], t8[i]) << "seed cell " << i;
  }
}

TEST(TrialReuse, BatchAccumulatorStateDoesNotLeakAcrossTrials) {
  // Substrate reuse with group commit + ReadIndex in play: the second trial
  // on a reused cluster must equal a fresh cluster bit for bit, and no
  // accumulator / route / pending-read state may survive the reset.
  auto run_pool = [](Cluster& c) {
    wl::MixConfig mix;
    mix.clients = 6;
    mix.get_ratio = 0.3;
    mix.ops_per_client = 15;
    mix.duration = 60s;
    shard::ShardRouter router(1);
    wl::ClosedLoopPool pool(c, router, mix, c.fork_rng(5));
    return pool.run();
  };

  auto reused = std::make_unique<Cluster>(batching_config(47, true, true));
  ASSERT_TRUE(reused->await_leader(30s));
  const wl::MixResult first = run_pool(*reused);
  EXPECT_GT(first.completed, 0u);

  reused->reset(/*seed=*/99);
  for (const NodeId id : reused->server_ids()) {
    raft::RaftNode& n = reused->node(id);
    EXPECT_EQ(n.pending_batch_commands(), 0u) << "node " << id;
    EXPECT_EQ(n.pending_batch_routes(), 0u) << "node " << id;
    EXPECT_EQ(n.pending_read_count(), 0u) << "node " << id;
    EXPECT_EQ(n.batches_sealed(), 0u) << "node " << id;
    EXPECT_EQ(n.reads_served(), 0u) << "node " << id;
    EXPECT_EQ(reused->service_queue(id).pending_commands(), 0u) << "node " << id;
  }
  ASSERT_TRUE(reused->await_leader(30s));
  const wl::MixResult second = run_pool(*reused);

  auto fresh = std::make_unique<Cluster>(batching_config(99, true, true));
  ASSERT_TRUE(fresh->await_leader(30s));
  const wl::MixResult baseline = run_pool(*fresh);

  EXPECT_EQ(second, baseline);
}

}  // namespace
}  // namespace dyna
