// Fuzz soak over the fault zoo: 200+ randomized schedules crossing crash
// points x symmetric/asymmetric partitions x rolling restarts x membership
// churn x log compaction, with the invariant checker on everywhere. Each
// schedule is a pure function of its trial seed (SweepSpec::mutate), so the
// soak is bit-identical across thread counts and both settings of
// reuse_substrate — and any surviving violation is replayable from
// (master_seed, seed index) alone. Under a mutate hook the reuse flag
// selects fresh construction either way (the spec changes every trial); the
// seed reset under each fault class is pinned by
// SweepReuse.EveryFaultClassSeedResetMatchesFresh.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace dyna {
namespace {

using namespace std::chrono_literals;

/// Derive a fault schedule from the trial seed. Fault classes draw their
/// partition targets from disjoint node sets ({0,1} symmetric, {2,3}
/// directed) so every generated plan passes FaultPlan::validate by
/// construction — the fuzzer explores behavior, not plan-validation errors.
void mutate_faults(scenario::ScenarioSpec& spec, std::size_t /*index*/, std::uint64_t seed) {
  Rng rng(derive_seed(seed, 0xF022));
  scenario::FaultPlan plan;

  // Crash points on ~2/3 of schedules, cycling through all three modes.
  if (rng.uniform_index(3) != 0) {
    fault::InjectorConfig inj;
    switch (rng.uniform_index(3)) {
      case 0:
        inj.mode = fault::Mode::Independent;
        inj.independent_prob = 1e-3;
        break;
      case 1:
        inj.mode = fault::Mode::RunLength;
        inj.run_length = 50 + rng.uniform_index(350);
        break;
      default:
        inj.mode = fault::Mode::UniformOverRun;
        inj.uniform_max = 200 + rng.uniform_index(1800);
        break;
    }
    inj.restart_delay = Duration(std::chrono::milliseconds(200 + rng.uniform_index(600)));
    plan.crash_points = inj;
  }

  // Symmetric partition window on node 0 or 1.
  if (rng.uniform_index(2) == 0) {
    scenario::FaultPlan::PartitionWindow w;
    w.start = Duration(std::chrono::milliseconds(500 + rng.uniform_index(1500)));
    w.duration = Duration(std::chrono::milliseconds(400 + rng.uniform_index(1100)));
    w.nodes = {static_cast<NodeId>(rng.uniform_index(2))};
    plan.partition_windows.push_back(w);
  }

  // Asymmetric (directed) window on node 2 or 3.
  if (rng.uniform_index(2) == 0) {
    scenario::FaultPlan::DirectedPartitionWindow w;
    w.start = Duration(std::chrono::milliseconds(500 + rng.uniform_index(1500)));
    w.duration = Duration(std::chrono::milliseconds(400 + rng.uniform_index(1100)));
    w.nodes = {static_cast<NodeId>(2 + rng.uniform_index(2))};
    w.block_inbound = rng.uniform_index(2) == 0;
    w.block_outbound = !w.block_inbound || rng.uniform_index(2) == 0;
    plan.asym_windows.push_back(w);
  }

  // One rolling-restart pass on a quarter of schedules.
  if (rng.uniform_index(4) == 0) {
    plan.rolling = scenario::FaultPlan::RollingRestart{1, 1500ms, 500ms};
  }

  // One membership-churn round on a third of schedules.
  if (rng.uniform_index(3) == 0) {
    plan.churn = scenario::FaultPlan::MembershipChurn{1, 500ms, 10s};
  }

  plan.validate(spec.servers);  // by construction; a throw is a fuzzer bug
  spec.faults = plan;

  // Log compaction on half of schedules, drawn after every fault draw so
  // the fault schedules above stay put. With churn, a snapshot can cover a
  // round's config entries, so a restart or InstallSnapshot must restore the
  // roster from the snapshot itself.
  if (rng.uniform_index(2) == 0) {
    spec.snapshot_threshold = 2 + rng.uniform_index(63);
    spec.snapshot_trailing = rng.uniform_index(8);
  }
}

scenario::SweepSpec soak_sweep(std::size_t seeds, unsigned threads, bool reuse) {
  scenario::ScenarioSpec base;
  base.name = "fault-fuzz";
  base.servers = 5;
  base.warmup = 1s;
  wl::MixConfig mix;
  mix.clients = 2;
  mix.duration = 3s;
  base.workload = scenario::WorkloadPlan::closed_loop(mix);

  scenario::SweepSpec sweep;
  sweep.base = base;
  sweep.seeds = seeds;
  sweep.master_seed = 0xFA22;
  sweep.threads = threads;
  sweep.reuse_substrate = reuse;
  sweep.mutate = mutate_faults;
  return sweep;
}

TEST(FaultFuzz, SoakOf200SchedulesHoldsEveryInvariant) {
  const auto results = scenario::ScenarioRunner::run_sweep(soak_sweep(200, 8, true));
  ASSERT_EQ(results.size(), 200u);

  std::uint64_t violations = 0;
  std::uint64_t firings = 0;
  std::size_t churn_rounds = 0;
  std::size_t elected = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    violations += results[i].invariant_violations;
    firings += results[i].crash_firings;
    churn_rounds += results[i].membership_rounds;
    elected += results[i].leader_elected ? 1 : 0;
    EXPECT_EQ(results[i].invariant_violations, 0u)
        << "schedule " << i << " broke a safety invariant (replay: master_seed=0xFA22, "
        << "seed index " << i << ")";
  }
  EXPECT_EQ(violations, 0u);
  // Coverage: the corpus must actually exercise the machinery it claims to.
  EXPECT_GE(firings, 1u) << "no crash point fired across 200 schedules";
  EXPECT_GE(churn_rounds, 1u) << "no membership round completed across 200 schedules";
  EXPECT_GE(elected, 190u) << "too many schedules never elected a leader";

  // The full soak replays bit-identically single-threaded on fresh substrates.
  const auto replay = scenario::ScenarioRunner::run_sweep(soak_sweep(200, 1, false));
  EXPECT_TRUE(results == replay) << "soak is not reproducible across threads/substrates";
}

TEST(FaultFuzz, MutatedSoakIsBitIdenticalAcrossThreadCounts) {
  // The thread axis only: a mutate hook builds every trial fresh whatever
  // reuse_substrate says, so reuse legs would repeat these sweeps. The soak
  // above compares a reuse sweep at 8 threads with fresh construction at 1.
  const auto baseline = scenario::ScenarioRunner::run_sweep(soak_sweep(24, 1, false));
  ASSERT_EQ(baseline.size(), 24u);
  for (const unsigned threads : {2u, 8u}) {
    const auto run = scenario::ScenarioRunner::run_sweep(soak_sweep(24, threads, false));
    EXPECT_TRUE(run == baseline) << "divergence at threads=" << threads;
  }
}

}  // namespace
}  // namespace dyna
