// Open-loop workload ramp (Fig 5's procedure): clients issue PUTs at a fixed
// offered rate regardless of completions; the rate steps up every level
// (paper: +1000 req/s every 10 s) and each level's achieved throughput and
// mean latency are recorded. PUTs route by key across every group of the
// deployment (a standalone cluster is one group).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "shard/client.hpp"
#include "shard/sharded_cluster.hpp"

namespace dyna::wl {

using namespace std::chrono_literals;

struct RampConfig {
  double start_rps = 1000.0;
  double step_rps = 1000.0;
  double max_rps = 16000.0;
  Duration level_duration = 10s;
  std::size_t keyspace = 10'000;   ///< keys drawn uniformly from this many
  std::size_t value_bytes = 16;
};

struct LevelResult {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;     ///< completions during the level / duration
  double mean_latency_ms = 0.0;  ///< over completions during the level
  double p99_latency_ms = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;

  friend bool operator==(const LevelResult&, const LevelResult&) = default;
};

class OpenLoopRamp {
 public:
  OpenLoopRamp(const shard::DeploymentView& deployment, shard::ShardedKvClient& client,
               RampConfig config, Rng rng)
      : sim_(&deployment.sim()), client_(&client), cfg_(config), rng_(std::move(rng)) {}

  /// Run the whole ramp; one result per offered-rate level.
  [[nodiscard]] std::vector<LevelResult> run();

  /// Highest achieved throughput across levels (the paper's "peak").
  [[nodiscard]] static double peak_throughput(const std::vector<LevelResult>& levels);

 private:
  void arm_arrival(double rate, TimePoint level_end);
  void fire_request();

  sim::Simulator* sim_;
  shard::ShardedKvClient* client_;
  RampConfig cfg_;
  Rng rng_;

  // Per-level collection (completions attributed to the level they finish in).
  std::vector<double> latencies_ms_;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace dyna::wl
