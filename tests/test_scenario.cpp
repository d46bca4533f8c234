// The declarative scenario layer: spec -> runner -> sink.
//
// Covers spec compilation (variants, custom factories, tick overrides),
// topology layering (default schedule, WAN matrix, per-direction asymmetric
// overrides, correlated loss bursts), plan execution, and the CSV/table
// sinks' unified schemas.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dynatune/policy.hpp"
#include "scenario/runner.hpp"
#include "scenario/sink.hpp"
#include "test_support.hpp"

namespace dyna {
namespace {

using namespace std::chrono_literals;
using testutil::constant_link;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// ---- Spec -> cluster compilation --------------------------------------------------

TEST(ScenarioSpec, VariantsCompileToNamedConfigs) {
  for (const auto& [variant, name] :
       {std::pair{scenario::Variant::Raft, "Raft"},
        std::pair{scenario::Variant::RaftLow, "Raft-Low"},
        std::pair{scenario::Variant::Dynatune, "Dynatune"},
        std::pair{scenario::Variant::FixK, "Fix-K"}}) {
    scenario::ScenarioSpec spec;
    spec.variant = variant;
    spec.servers = 3;
    auto c = scenario::ScenarioRunner::materialize(spec);
    EXPECT_EQ(c->config().name, name);
    EXPECT_EQ(c->size(), 3u);
  }
}

TEST(ScenarioSpec, CustomFactoryOverridesVariant) {
  scenario::ScenarioSpec spec;
  spec.variant = scenario::Variant::Raft;  // ignored
  spec.servers = 3;
  spec.seed = 9;
  spec.config_factory = [](std::size_t servers, std::uint64_t seed) {
    cluster::ClusterConfig cfg = cluster::make_raft_low_config(servers, seed);
    cfg.name = "custom";
    return cfg;
  };
  const scenario::ScenarioResult r = scenario::ScenarioRunner::run(spec);
  EXPECT_EQ(r.variant, "custom");
  EXPECT_TRUE(r.leader_elected);
}

TEST(ScenarioSpec, RaftTickOverrideReachesConfig) {
  scenario::ScenarioSpec spec;
  spec.raft_tick = 10ms;
  auto c = scenario::ScenarioRunner::materialize(spec);
  EXPECT_EQ(c->config().raft.tick, 10ms);
}

// ---- Topology layering ------------------------------------------------------------

TEST(ScenarioTopology, AsymmetricOverridesReachNetworkCondition) {
  // Forward and reverse directions of one path carry different schedules;
  // both must be visible through Network::condition() while untouched links
  // keep the base condition.
  scenario::ScenarioSpec spec;
  spec.servers = 3;
  spec.topology = scenario::TopologySpec::constant(40ms);
  spec.topology.add_asymmetric_pair(0, 1, constant_link(100ms), constant_link(300ms));
  auto c = scenario::ScenarioRunner::materialize(spec);

  EXPECT_EQ(c->network().condition(0, 1).rtt, 100ms);
  EXPECT_EQ(c->network().condition(1, 0).rtt, 300ms);
  EXPECT_EQ(c->network().condition(0, 2).rtt, 40ms);
  EXPECT_EQ(c->network().condition(2, 1).rtt, 40ms);

  // The cluster still elects and runs over the asymmetric mesh.
  EXPECT_TRUE(c->await_leader(30s));
}

TEST(ScenarioTopology, WanMatrixAppliesPerPair) {
  scenario::ScenarioSpec spec;
  spec.servers = 5;
  spec.topology.wan = cluster::WanTopology::aws_five_regions();
  auto c = scenario::ScenarioRunner::materialize(spec);
  EXPECT_EQ(c->network().condition(0, 1).rtt, 210ms);  // tokyo <-> london
  EXPECT_EQ(c->network().condition(3, 4).rtt, 310ms);  // sydney <-> sao-paulo
}

TEST(ConditionSchedule, LossBurstsAlternateCleanAndBursty) {
  net::LinkCondition base;
  base.rtt = 80ms;
  const auto s = net::ConditionSchedule::loss_bursts(base, /*burst_loss=*/0.4,
                                                     /*period=*/60s, /*burst_len=*/10s,
                                                     /*bursts=*/3, kSimEpoch + 30s);
  EXPECT_DOUBLE_EQ(s.at(kSimEpoch).loss, 0.0);
  EXPECT_DOUBLE_EQ(s.at(kSimEpoch + 35s).loss, 0.4);   // inside burst 1
  EXPECT_DOUBLE_EQ(s.at(kSimEpoch + 45s).loss, 0.0);   // between bursts
  EXPECT_DOUBLE_EQ(s.at(kSimEpoch + 95s).loss, 0.4);   // inside burst 2
  EXPECT_DOUBLE_EQ(s.at(kSimEpoch + 155s).loss, 0.4);  // inside burst 3
  EXPECT_DOUBLE_EQ(s.at(kSimEpoch + 500s).loss, 0.0);  // after the last burst
  for (const auto& seg : s.segments()) {
    EXPECT_EQ(seg.condition.rtt, 80ms);  // bursts change loss only
  }
}

TEST(ScenarioTopology, LossBurstsDriveTheDefaultSchedule) {
  // A burst schedule installed through the spec is what every link sees:
  // correlated across the whole mesh, visible in Network::condition(), and
  // survivable by the cluster (Dynatune's K raises heartbeat redundancy).
  net::LinkCondition base;
  base.rtt = 60ms;
  scenario::ScenarioSpec spec;
  spec.variant = scenario::Variant::Dynatune;
  spec.servers = 5;
  spec.seed = 21;
  spec.topology.schedule = net::ConditionSchedule::loss_bursts(base, 0.3, 20s, 5s, 3,
                                                               kSimEpoch + 10s);
  spec.samples = scenario::SamplePlan::every(1s, 60s);
  auto c = scenario::ScenarioRunner::materialize(spec);
  const scenario::ScenarioResult r = scenario::ScenarioRunner::run_on(*c, spec);
  ASSERT_TRUE(r.leader_elected);

  // Burst visible on two different links at the same instants (correlated).
  bool saw_burst = false;
  for (const auto& p : r.samples) {
    if (p.loss_pct > 29.0) saw_burst = true;
  }
  EXPECT_TRUE(saw_burst);
  EXPECT_EQ(c->network().condition(0, 1).loss, c->network().condition(2, 3).loss);
  // Datagram heartbeats really experienced the bursts.
  std::uint64_t lost = 0;
  for (const NodeId id : c->server_ids()) lost += c->network().traffic(id).lost;
  EXPECT_GT(lost, 0u);
}

// ---- Plans ------------------------------------------------------------------------

TEST(ScenarioRunner, PathSamplesRecordPerFollowerTelemetry) {
  scenario::ScenarioSpec spec;
  spec.variant = scenario::Variant::Dynatune;
  spec.servers = 5;
  spec.seed = 3;
  spec.topology = scenario::TopologySpec::constant(100ms);
  spec.warmup = 10s;
  spec.sample_paths = true;
  const scenario::ScenarioResult r = scenario::ScenarioRunner::run(spec);
  ASSERT_TRUE(r.leader_elected);
  ASSERT_NE(r.paths_leader, kNoNode);
  ASSERT_EQ(r.paths.size(), 4u);  // every follower
  for (const auto& p : r.paths) {
    EXPECT_NE(p.follower, r.paths_leader);
    EXPECT_NEAR(p.rtt_ms, 100.0, 1e-9);
    EXPECT_GT(p.et_ms, 0.0);
    EXPECT_GT(p.h_ms, 0.0);
  }
}

TEST(ScenarioRunner, WorkloadPlanProducesLevels) {
  scenario::ScenarioSpec spec;
  spec.servers = 3;
  spec.seed = 12;
  spec.topology = scenario::TopologySpec::constant(20ms);
  spec.warmup = 1s;
  wl::RampConfig ramp;
  ramp.start_rps = 100;
  ramp.step_rps = 100;
  ramp.max_rps = 300;
  ramp.level_duration = 1s;
  spec.workload = scenario::WorkloadPlan::open_loop_ramp(ramp);
  const scenario::ScenarioResult r = scenario::ScenarioRunner::run(spec);
  ASSERT_TRUE(r.leader_elected);
  ASSERT_EQ(r.levels.size(), 3u);
  EXPECT_GT(r.levels.front().completed, 0u);
  EXPECT_DOUBLE_EQ(r.levels.back().offered_rps, 300.0);
}

TEST(ScenarioRunner, RejectsNonPositiveSampleInterval) {
  scenario::ScenarioSpec spec;
  spec.servers = 3;
  spec.seed = 5;
  for (const Duration every : {Duration{0}, Duration{-1s}}) {
    spec.samples = scenario::SamplePlan::every(every, 5s);
    EXPECT_THROW((void)scenario::ScenarioRunner::run(spec), std::invalid_argument);
  }
}

// ---- Sinks ------------------------------------------------------------------------

scenario::ScenarioResult small_failover_result() {
  scenario::ScenarioSpec spec;
  spec.name = "sink-test";
  spec.servers = 3;
  spec.seed = 4;
  spec.faults = scenario::FaultPlan::leader_kills(2, 2s);
  spec.samples = scenario::SamplePlan::every(1s, 3s);
  return scenario::ScenarioRunner::run(spec);
}

TEST(ResultSink, CsvSchemasCarryIdentityColumns) {
  const scenario::ScenarioResult r = small_failover_result();
  ASSERT_EQ(r.failovers.size(), 2u);
  ASSERT_EQ(r.samples.size(), 3u);

  const std::string dir = ::testing::TempDir();
  {
    scenario::CsvSink failover(dir + "scenario_failover.csv", scenario::CsvSection::Failover);
    failover.consume(r);
    scenario::CsvSink samples(dir + "scenario_samples.csv", scenario::CsvSection::Samples);
    samples.consume(r);
    scenario::CsvSink levels(dir + "scenario_levels.csv", scenario::CsvSection::Levels);
    levels.consume(r);
  }

  const auto failover_lines = read_lines(dir + "scenario_failover.csv");
  ASSERT_EQ(failover_lines.size(), 1u + r.failovers.size());
  EXPECT_EQ(failover_lines[0],
            "scenario,variant,servers,seed,kill,detection_ms,ots_ms,election_ms,"
            "mean_randomized_ms,ok");
  EXPECT_EQ(failover_lines[1].rfind("sink-test,Raft,3,4,0,", 0), 0u);

  const auto sample_lines = read_lines(dir + "scenario_samples.csv");
  ASSERT_EQ(sample_lines.size(), 1u + r.samples.size());
  EXPECT_EQ(sample_lines[0],
            "scenario,variant,servers,seed,t_sec,rtt_ms,loss_pct,randomized_kth_ms,"
            "et_median_ms,h_mean_ms,hb_per_sec,leader_cpu_pct,follower_cpu_pct,available");

  const auto level_lines = read_lines(dir + "scenario_levels.csv");
  ASSERT_EQ(level_lines.size(), 1u);  // header only: no workload plan ran
}

TEST(ResultSink, TableSinkRendersOneRowPerResult) {
  const scenario::ScenarioResult r = small_failover_result();
  scenario::TableSink table;
  table.consume(r);
  table.consume(r);

  const std::string path = ::testing::TempDir() + "scenario_table.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    table.print(f);
    std::fclose(f);
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);  // header + rule + 2 rows
  EXPECT_NE(lines[0].find("scenario"), std::string::npos);
  EXPECT_NE(lines[2].find("sink-test"), std::string::npos);
  EXPECT_NE(lines[2].find("2/2"), std::string::npos);
}

}  // namespace
}  // namespace dyna
