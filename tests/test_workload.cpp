// Open-loop workload generator: rates, latency floor, saturation behaviour;
// and the client session it drives, whose pending table grows on demand.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "kvstore/client.hpp"
#include "shard/client.hpp"
#include "workload/open_loop.hpp"

namespace dyna {
namespace {

using namespace std::chrono_literals;
using cluster::Cluster;

std::unique_ptr<Cluster> make_loaded_cluster(std::uint64_t seed, Duration service_time) {
  cluster::ClusterConfig cfg = cluster::make_raft_config(3, seed);
  net::LinkCondition link;
  link.rtt = 20ms;
  cfg.links = net::ConditionSchedule::constant(link);
  cfg.command_service_time = service_time;  // group commit off: one round per request
  auto c = std::make_unique<Cluster>(std::move(cfg));
  if (!c->await_leader(30s)) return nullptr;
  return c;
}

TEST(OpenLoop, AchievedMatchesOfferedBelowCapacity) {
  auto c = make_loaded_cluster(1, 100us);  // capacity 10k req/s
  ASSERT_NE(c, nullptr);
  shard::ShardRouter router(1);
  shard::ShardedKvClient client(*c, router, c->fork_rng(1));
  wl::RampConfig ramp;
  ramp.start_rps = 500;
  ramp.step_rps = 500;
  ramp.max_rps = 1500;
  ramp.level_duration = 2s;
  wl::OpenLoopRamp runner(*c, client, ramp, c->fork_rng(2));
  const auto levels = runner.run();
  ASSERT_EQ(levels.size(), 3u);
  for (const auto& l : levels) {
    EXPECT_NEAR(l.achieved_rps, l.offered_rps, l.offered_rps * 0.15)
        << "offered " << l.offered_rps;
    EXPECT_EQ(l.failed, 0u);
  }
}

TEST(OpenLoop, LatencyFloorIsRoundTripBound) {
  auto c = make_loaded_cluster(2, 50us);
  ASSERT_NE(c, nullptr);
  shard::ShardRouter router(1);
  shard::ShardedKvClient client(*c, router, c->fork_rng(3));
  wl::RampConfig ramp;
  ramp.start_rps = 200;
  ramp.step_rps = 0;  // single level
  ramp.max_rps = 200;
  ramp.level_duration = 3s;
  wl::OpenLoopRamp runner(*c, client, ramp, c->fork_rng(4));
  const auto levels = runner.run();
  ASSERT_EQ(levels.size(), 1u);
  // client->leader 10ms + replication RTT 20ms + return 10ms = ~40ms floor.
  EXPECT_GE(levels[0].mean_latency_ms, 35.0);
  EXPECT_LE(levels[0].mean_latency_ms, 80.0);
}

TEST(OpenLoop, ThroughputPinsAtServiceCapacity) {
  auto c = make_loaded_cluster(3, 1ms);  // capacity 1000 req/s
  ASSERT_NE(c, nullptr);
  shard::ShardRouter router(1);
  shard::ShardedKvClient client(*c, router, c->fork_rng(5));
  wl::RampConfig ramp;
  ramp.start_rps = 500;
  ramp.step_rps = 500;
  ramp.max_rps = 2500;
  ramp.level_duration = 2s;
  wl::OpenLoopRamp runner(*c, client, ramp, c->fork_rng(6));
  const auto levels = runner.run();
  const double peak = wl::OpenLoopRamp::peak_throughput(levels);
  EXPECT_NEAR(peak, 1000.0, 120.0);
  // Latency must blow past the floor once offered > capacity.
  EXPECT_GT(levels.back().mean_latency_ms, levels.front().mean_latency_ms * 3.0);
}

TEST(OpenLoop, PeakThroughputHelper) {
  std::vector<wl::LevelResult> levels(3);
  levels[0].achieved_rps = 10;
  levels[1].achieved_rps = 30;
  levels[2].achieved_rps = 20;
  EXPECT_DOUBLE_EQ(wl::OpenLoopRamp::peak_throughput(levels), 30.0);
  EXPECT_DOUBLE_EQ(wl::OpenLoopRamp::peak_throughput({}), 0.0);
}

TEST(OpenLoop, HigherServiceTimeLowersPeak) {
  // The Fig 5 mechanism in miniature: Dynatune's service overhead must shift
  // the peak down proportionally.
  auto run = [](Duration service) {
    auto c = make_loaded_cluster(4, service);
    if (c == nullptr) return 0.0;
    shard::ShardRouter router(1);
    shard::ShardedKvClient client(*c, router, c->fork_rng(7));
    wl::RampConfig ramp;
    ramp.start_rps = 400;
    ramp.step_rps = 400;
    ramp.max_rps = 2000;
    ramp.level_duration = 2s;
    wl::OpenLoopRamp runner(*c, client, ramp, c->fork_rng(8));
    return wl::OpenLoopRamp::peak_throughput(runner.run());
  };
  const double fast = run(1ms);
  const double slow = run(from_ms(1.25));
  EXPECT_GT(fast, slow);
  EXPECT_NEAR(slow / fast, 0.8, 0.1);
}

TEST(KvClient, PendingTableGrowsFromOneSlotWithCallbacksLive) {
  // A client's pending table starts at one slot. 100 ops submitted while
  // the leader is paused are all in flight at once, so the table doubles
  // seven times with their callbacks inside it; after the resume each op
  // must complete exactly once.
  cluster::Cluster c(cluster::make_raft_config(3, 31));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  kv::KvClient client(c.sim(), c.network(), c.server_ids(), c.fork_rng(1));
  client.set_target(leader);

  constexpr int kOps = 100;
  c.pause(leader);
  std::vector<int> completions(kOps, 0);
  std::vector<int> failures(kOps, 0);
  for (int i = 0; i < kOps; ++i) {
    client.put("k" + std::to_string(i), "v" + std::to_string(i),
               [&completions, &failures, i](const kv::ClientResult& r) {
                 ++completions[static_cast<std::size_t>(i)];
                 if (!r.ok) ++failures[static_cast<std::size_t>(i)];
               });
  }
  EXPECT_EQ(client.outstanding(), static_cast<std::size_t>(kOps));
  c.sim().run_for(500ms);  // under the 1 s retry timeout: nothing retried yet
  EXPECT_EQ(client.outstanding(), static_cast<std::size_t>(kOps));
  EXPECT_EQ(client.completed() + client.failed(), 0u);

  c.resume(leader);
  c.sim().run_for(30s);
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_EQ(client.completed(), static_cast<std::uint64_t>(kOps));
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(completions[static_cast<std::size_t>(i)], 1) << "op " << i;
    EXPECT_EQ(failures[static_cast<std::size_t>(i)], 0) << "op " << i;
  }
  const NodeId now_leader = c.current_leader();
  ASSERT_NE(now_leader, kNoNode);
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(c.state_machine(now_leader).data().at("k" + std::to_string(i)),
              "v" + std::to_string(i));
  }
}

}  // namespace
}  // namespace dyna
