// Fig 5 + §IV-B2: peak throughput and latency without failures.
//
// Same cluster as Fig 4 (5 servers, RTT 100 ms, no loss), no failures.
// Open-loop clients ramp the offered PUT rate in +1000 req/s levels (paper:
// 10 s per level) and we record each level's achieved throughput and mean
// latency.
//
// The leader's request pipeline is a FIFO CPU (cluster::ServiceQueue) whose
// per-request service time is calibrated so the baseline peaks near the
// paper's 13 678 req/s; Dynatune carries a calibrated per-request overhead
// for its measurement/tuning plumbing (per-follower timers, UDP socket path)
// reproducing the paper's 6.4 % peak-throughput cost. Latency floor =
// client->leader half RTT + replication RTT + return half RTT = ~200 ms.
//
// Usage: fig5_throughput [--level-sec=N] [--max-rps=R] [--seed=S] [--csv=FILE]
#include <cstdio>

#include "common/cli.hpp"
#include "scenario/runner.hpp"
#include "scenario/sink.hpp"
#include "workload/open_loop.hpp"

namespace {

using namespace dyna;
using namespace std::chrono_literals;

scenario::ScenarioSpec fig5_spec(bool dynatune, Duration level_duration, double max_rps,
                                 std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.name = "fig5";
  spec.variant = dynatune ? scenario::Variant::Dynatune : scenario::Variant::Raft;
  spec.servers = 5;
  spec.seed = seed;
  spec.topology = scenario::TopologySpec::constant(100ms, 1ms);
  // Calibrated once against the paper's baseline peak (13 678 req/s);
  // Dynatune pays the measured 6.4 % tuning overhead on the same budget.
  // Group commit is off, so every request is its own CPU round costing
  // exactly this per-command time.
  spec.command_service_time = dynatune ? std::chrono::nanoseconds(77'800)
                                       : std::chrono::nanoseconds(73'100);
  spec.warmup = 5s;  // let Dynatune warm up before offering load

  wl::RampConfig ramp;
  ramp.start_rps = 1000;
  ramp.step_rps = 1000;
  ramp.max_rps = max_rps;
  ramp.level_duration = level_duration;
  ramp.value_bytes = 16;
  spec.workload = scenario::WorkloadPlan::open_loop_ramp(ramp);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.get_or("seed", std::int64_t{1}));
  // Paper: 10 s per level; default 3 s keeps the run quick (DYNA_BENCH_SCALE
  // or --level-sec restores paper scale).
  const auto level_sec = std::chrono::seconds(cli.scaled(cli.get_or("level-sec", std::int64_t{3})));
  const double max_rps = cli.get_or("max-rps", 16000.0);

  metrics::banner("Fig 5: throughput vs latency (open-loop ramp, +1000 req/s per level)");
  std::printf("level duration: %.0f s (paper: 10 s), ramp to %.0f req/s\n",
              to_sec(Duration(level_sec)), max_rps);

  const scenario::ScenarioResult raft =
      scenario::ScenarioRunner::run(fig5_spec(false, level_sec, max_rps, seed));
  const scenario::ScenarioResult dynatune =
      scenario::ScenarioRunner::run(fig5_spec(true, level_sec, max_rps, seed + 1));

  metrics::Table t({"offered (req/s)", "Raft tput", "Raft lat (ms)", "Dynatune tput",
                    "Dynatune lat (ms)"});
  for (std::size_t i = 0; i < raft.levels.size() && i < dynatune.levels.size(); ++i) {
    const auto& r = raft.levels[i];
    const auto& d = dynatune.levels[i];
    t.row({metrics::Table::num(r.offered_rps, 0), metrics::Table::num(r.achieved_rps, 0),
           metrics::Table::num(r.mean_latency_ms), metrics::Table::num(d.achieved_rps, 0),
           metrics::Table::num(d.mean_latency_ms)});
  }
  t.print();

  const double raft_peak = wl::OpenLoopRamp::peak_throughput(raft.levels);
  const double dyna_peak = wl::OpenLoopRamp::peak_throughput(dynatune.levels);
  const double drop = 100.0 * (1.0 - dyna_peak / raft_peak);
  std::printf("\npeak throughput: Raft %.0f req/s, Dynatune %.0f req/s (-%.1f%%)\n", raft_peak,
              dyna_peak, drop);
  std::printf("paper:           Raft 13678 req/s, Dynatune 12800 req/s (-6.4%%)\n");

  if (const auto csv_path = cli.get("csv")) {
    scenario::CsvSink csv(*csv_path, scenario::CsvSection::Levels);
    csv.consume(raft);
    csv.consume(dynatune);
    std::printf("wrote %s\n", csv_path->c_str());
  }
  return 0;
}
