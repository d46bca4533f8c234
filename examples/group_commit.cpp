// Group commit at production intensity: a closed-loop client fleet over a
// mixed GET/PUT workload, run twice through the scenario API — batching off,
// then batching on with the ReadIndex fast path — under the batch-aware CPU
// cost model. Prints the side-by-side throughput/latency comparison and the
// leader's coalescing telemetry.
//
// Run: ./group_commit [--clients=48] [--get-ratio=0.5] [--seconds=5]
//                     [--seed=7]
#include <cstdio>

#include "common/cli.hpp"
#include "scenario/runner.hpp"

using namespace dyna;
using namespace std::chrono_literals;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto clients = static_cast<std::size_t>(cli.get_or("clients", std::int64_t{48}));
  const double get_ratio = cli.get_or("get-ratio", 0.5);
  const auto seconds = cli.get_or("seconds", std::int64_t{5});
  const auto seed = static_cast<std::uint64_t>(cli.get_or("seed", std::int64_t{7}));

  // One spec describes the deployment and the workload; only the batching
  // knobs differ between the two runs.
  scenario::ScenarioSpec spec;
  spec.name = "group-commit";
  spec.servers = 5;
  spec.seed = seed;
  spec.topology = scenario::TopologySpec::constant(/*rtt=*/2ms);
  // Batch-aware CPU model: a commit round costs 2 ms fixed + 50 us per
  // command it carries. Unbatched, every command is its own round.
  spec.round_service_time = 2ms;
  spec.command_service_time = 50us;

  wl::MixConfig mix;
  mix.clients = clients;
  mix.get_ratio = get_ratio;
  mix.value_bytes_min = 16;
  mix.value_bytes_max = 128;
  mix.duration = std::chrono::seconds(seconds);
  spec.workload = scenario::WorkloadPlan::closed_loop(mix);

  std::printf("closed loop: %zu sessions, %.0f%% GET, %lld sim-s per mode\n\n", clients,
              get_ratio * 100.0, static_cast<long long>(seconds));

  wl::MixResult results[2];
  for (const bool batched : {false, true}) {
    spec.group_commit = batched;
    spec.read_index = batched;  // GETs skip the log in the batched config

    // materialize + run_on (instead of run) keeps the live cluster around
    // for the leader-side telemetry below.
    auto c = scenario::ScenarioRunner::materialize(spec);
    const scenario::ScenarioResult r = scenario::ScenarioRunner::run_on(*c, spec);
    if (!r.leader_elected || r.mix.empty()) {
      std::printf("no leader / no workload result - aborting\n");
      return 1;
    }
    const wl::MixResult& m = results[batched ? 1 : 0] = r.mix[0];

    raft::RaftNode& leader = c->node(c->current_leader());
    std::printf("%s:\n", batched ? "batching on (+ ReadIndex)" : "batching off");
    std::printf("  %.0f req/s (%.0f GET + %.0f PUT), mean %.1f ms, p99 %.1f ms\n",
                m.achieved_rps, m.get_rps, m.put_rps, m.mean_latency_ms, m.p99_latency_ms);
    std::printf("  leader: %llu batch frames carried %llu commands; "
                "%llu reads served without a log write; log grew to %llu entries\n\n",
                static_cast<unsigned long long>(leader.batches_sealed()),
                static_cast<unsigned long long>(leader.batched_commands()),
                static_cast<unsigned long long>(leader.reads_served()),
                static_cast<unsigned long long>(leader.last_log_index()));
  }

  std::printf("group commit speedup: %.1fx throughput, p99 %.1f ms -> %.1f ms\n",
              results[1].achieved_rps / results[0].achieved_rps,
              results[0].p99_latency_ms, results[1].p99_latency_ms);
  return 0;
}
