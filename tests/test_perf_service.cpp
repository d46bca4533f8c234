// ServiceQueue (FIFO CPU) and PerfModel (cost accounting) tests.
#include <gtest/gtest.h>

#include "cluster/perf_model.hpp"
#include "cluster/service_queue.hpp"
#include "shard/sharded_cluster.hpp"
#include "sim/simulator.hpp"

namespace dyna::cluster {
namespace {

using namespace std::chrono_literals;

TEST(ServiceQueue, JobsCompleteInFifoOrderAtComputedTimes) {
  sim::Simulator sim;
  ServiceQueue q(sim);
  std::vector<std::pair<int, double>> completions;  // (job, t_ms)
  for (int i = 0; i < 3; ++i) {
    q.enqueue(10ms, [&, i] { completions.emplace_back(i, to_ms(sim.now())); });
  }
  sim.run_all();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0].first, 0);
  EXPECT_NEAR(completions[0].second, 10.0, 1e-9);
  EXPECT_NEAR(completions[1].second, 20.0, 1e-9);
  EXPECT_NEAR(completions[2].second, 30.0, 1e-9);
}

TEST(ServiceQueue, IdleServerStartsImmediately) {
  sim::Simulator sim;
  ServiceQueue q(sim);
  q.enqueue(5ms, [] {});
  sim.run_all();
  sim.run_for(100ms);
  double done_at = 0;
  q.enqueue(5ms, [&] { done_at = to_ms(sim.now()); });
  sim.run_all();
  EXPECT_NEAR(done_at, 110.0, 1e-9);  // starts at 105 + 5 service
}

TEST(ServiceQueue, BacklogGrowsUnderOverload) {
  sim::Simulator sim;
  ServiceQueue q(sim);
  for (int i = 0; i < 100; ++i) q.enqueue(10ms, [] {});
  EXPECT_NEAR(to_ms(q.backlog()), 1000.0, 1e-9);
  EXPECT_EQ(q.admitted(), 100u);
  EXPECT_EQ(q.completed(), 0u);
  sim.run_for(500ms);
  EXPECT_EQ(q.completed(), 50u);
  EXPECT_NEAR(to_ms(q.backlog()), 500.0, 1e-9);
}

TEST(ServiceQueue, ZeroServiceTimeCompletesSameInstant) {
  sim::Simulator sim;
  ServiceQueue q(sim);
  bool done = false;
  q.enqueue(Duration{0}, [&] { done = true; });
  sim.run_all();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), kSimEpoch);
}

TEST(PerfModel, ChargesSendAndReceiveCosts) {
  CostModel cost;
  cost.heartbeat_send = 100us;
  cost.heartbeat_recv = 50us;
  cost.per_byte = Duration{0};
  PerfModel perf(cost, 1s);
  // 1000 heartbeats sent by node 0, received by node 1, within the first bin.
  for (int i = 0; i < 1000; ++i) {
    perf.on_message_sent(0, 1, raft::MsgKind::Heartbeat, 64, kSimEpoch + i * 1ms);
    perf.on_message_received(1, 0, raft::MsgKind::Heartbeat, 64, kSimEpoch + i * 1ms);
  }
  // node 0: 1000 * 100us = 100 ms busy in a 1 s bin => 10% CPU.
  EXPECT_NEAR(perf.cpu_percent_at(0, kSimEpoch + 500ms), 10.0, 1e-6);
  EXPECT_NEAR(perf.cpu_percent_at(1, kSimEpoch + 500ms), 5.0, 1e-6);
  EXPECT_EQ(perf.total_busy(0), 100ms);
}

TEST(PerfModel, BinsSeparateTimeWindows) {
  CostModel cost;
  cost.heartbeat_send = 1ms;
  cost.per_byte = Duration{0};
  PerfModel perf(cost, 1s);
  perf.on_message_sent(0, 1, raft::MsgKind::Heartbeat, 0, kSimEpoch + 100ms);
  perf.on_message_sent(0, 1, raft::MsgKind::Heartbeat, 0, kSimEpoch + 2500ms);
  EXPECT_GT(perf.cpu_percent_at(0, kSimEpoch + 500ms), 0.0);
  EXPECT_DOUBLE_EQ(perf.cpu_percent_at(0, kSimEpoch + 1500ms), 0.0);
  EXPECT_GT(perf.cpu_percent_at(0, kSimEpoch + 2700ms), 0.0);
  EXPECT_DOUBLE_EQ(perf.cpu_percent_at(0, kSimEpoch + 10s), 0.0);  // beyond data
}

TEST(PerfModel, TuningSurchargeOnlyWhenEnabled) {
  CostModel with;
  with.charge_tuning = true;
  with.per_byte = Duration{0};
  CostModel without;
  without.charge_tuning = false;
  without.per_byte = Duration{0};
  PerfModel a(with, 1s), b(without, 1s);
  a.on_message_received(0, 1, raft::MsgKind::Heartbeat, 0, kSimEpoch);
  b.on_message_received(0, 1, raft::MsgKind::Heartbeat, 0, kSimEpoch);
  EXPECT_EQ(a.total_busy(0) - b.total_busy(0), with.tuning_per_heartbeat);
}

TEST(PerfModel, PerByteCostScalesWithSize) {
  CostModel cost;
  cost.append_send = Duration{0};
  cost.per_byte = 10ns;
  PerfModel perf(cost, 1s);
  perf.on_message_sent(0, 1, raft::MsgKind::Append, 1000, kSimEpoch);
  EXPECT_EQ(perf.total_busy(0), 10us);
}

TEST(PerfModel, CpuSeriesCoversAllBins) {
  CostModel cost;
  PerfModel perf(cost, 1s);
  perf.on_message_sent(0, 1, raft::MsgKind::Heartbeat, 64, kSimEpoch + 4500ms);
  const auto series = perf.cpu_series(0, "node0");
  ASSERT_EQ(series.points().size(), 5u);  // bins 0..4
  EXPECT_GT(series.points().back().value, 0.0);
}

TEST(PerfModel, ChargesAnyNodeIdAndReadsZeroForUnseenIds) {
  CostModel cost;
  cost.heartbeat_send = 1ms;
  cost.per_byte = Duration{0};
  PerfModel perf(cost, 1s);
  perf.on_message_sent(300, 0, raft::MsgKind::Heartbeat, 0, kSimEpoch);
  EXPECT_EQ(perf.total_busy(300), 1ms);
  EXPECT_EQ(perf.total_busy(299), Duration{0});
  EXPECT_EQ(perf.total_busy(5000), Duration{0});
  EXPECT_DOUBLE_EQ(perf.cpu_percent_at(5000, kSimEpoch), 0.0);
  EXPECT_TRUE(perf.cpu_series(5000, "unseen").points().empty());
}

TEST(PerfModel, SharedSubstrateGroupAboveNodeId128IsCharged) {
  // 27 groups x 5 servers: the last group's servers are network ids 130..134,
  // past any fixed-size per-node table sized for one cluster.
  shard::ShardedConfig cfg;
  cfg.shards = 27;
  cfg.group = make_raft_low_config(5, 11);
  cfg.group.perf_cost = CostModel{};
  shard::ShardedCluster sc(cfg);
  ASSERT_TRUE(sc.await_all_leaders(30s));
  sc.sim().run_for(1s);
  Cluster& last = sc.shard(26);
  ASSERT_EQ(last.node_base(), 130);
  ASSERT_NE(last.perf(), nullptr);
  for (const NodeId id : last.server_ids()) {
    EXPECT_GT(last.perf()->total_busy(id), Duration{0}) << "node " << id;
  }
  EXPECT_EQ(last.perf()->total_busy(0), Duration{0});  // another group's node
}

}  // namespace
}  // namespace dyna::cluster
