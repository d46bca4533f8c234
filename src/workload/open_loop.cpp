#include "workload/open_loop.hpp"

#include <algorithm>

#include "common/stats.hpp"

namespace dyna::wl {

std::vector<LevelResult> OpenLoopRamp::run() {
  std::vector<LevelResult> results;
  DYNA_EXPECTS(cfg_.start_rps > 0.0 && cfg_.step_rps >= 0.0);

  for (double rate = cfg_.start_rps; rate <= cfg_.max_rps + 1e-9; rate += cfg_.step_rps) {
    latencies_ms_.clear();
    // Completions can't exceed (roughly) the offered arrivals, so one
    // up-front reservation per level stops the latency vector from
    // reallocating mid-measurement at high rates. Later levels reserve more,
    // and reserve() never shrinks, so the buffer is reused across levels.
    latencies_ms_.reserve(static_cast<std::size_t>(rate * to_sec(cfg_.level_duration)) + 16);
    completed_ = 0;
    failed_ = 0;

    const TimePoint level_end = sim_->now() + cfg_.level_duration;
    arm_arrival(rate, level_end);
    sim_->run_until(level_end);

    LevelResult r;
    r.offered_rps = rate;
    r.completed = completed_;
    r.failed = failed_;
    r.achieved_rps = static_cast<double>(completed_) / to_sec(cfg_.level_duration);
    if (!latencies_ms_.empty()) {
      const Summary s = Summary::of(latencies_ms_);
      r.mean_latency_ms = s.mean;
      r.p99_latency_ms = s.p99;
    }
    results.push_back(r);
    if (cfg_.step_rps <= 0.0) break;
  }
  return results;
}

double OpenLoopRamp::peak_throughput(const std::vector<LevelResult>& levels) {
  double peak = 0.0;
  for (const auto& l : levels) peak = std::max(peak, l.achieved_rps);
  return peak;
}

void OpenLoopRamp::arm_arrival(double rate, TimePoint level_end) {
  const Duration gap = from_ms(1000.0 * rng_.exponential(rate));
  const TimePoint when = sim_->now() + gap;
  if (when >= level_end) return;  // level over; the next level re-arms
  sim_->schedule_at(when, [this, rate, level_end] {
    fire_request();
    arm_arrival(rate, level_end);
  });
}

void OpenLoopRamp::fire_request() {
  const std::uint64_t key_id = rng_.uniform_index(cfg_.keyspace);
  std::string key = "key-" + std::to_string(key_id);
  auto done = [this](const kv::ClientResult& result) {
    if (result.ok) {
      ++completed_;
      latencies_ms_.push_back(to_ms(result.latency));
    } else {
      ++failed_;
    }
  };
  client_->put(std::move(key), std::string(cfg_.value_bytes, 'x'), std::move(done));
}

}  // namespace dyna::wl
