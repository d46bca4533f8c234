#include "workload/closed_loop.hpp"

#include <algorithm>
#include <utility>

#include "common/stats.hpp"

namespace dyna::wl {

ClosedLoopPool::ClosedLoopPool(const shard::DeploymentView& deployment,
                               shard::ShardRouter& router, MixConfig config, Rng rng)
    : router_(&router),
      sim_(&deployment.sim()),
      cfg_(config),
      rng_(std::move(rng)),
      per_shard_(router.shards()) {
  DYNA_EXPECTS(cfg_.clients >= 1);
  DYNA_EXPECTS(cfg_.get_ratio >= 0.0 && cfg_.get_ratio <= 1.0);
  DYNA_EXPECTS(cfg_.value_bytes_min <= cfg_.value_bytes_max);
  DYNA_EXPECTS(cfg_.duration > Duration{0});
  sessions_.reserve(cfg_.clients);
  for (std::size_t i = 0; i < cfg_.clients; ++i) {
    // Session RNGs fork from the pool stream in construction order: stream
    // 2i for the session's decisions, 2i+1 for its client (which applies the
    // deployment's client-stream rule). Every random decision in the run is
    // fixed by the pool RNG alone.
    Rng session_rng = rng_.fork(2 * i);
    auto client =
        std::make_unique<shard::ShardedKvClient>(deployment, router, rng_.fork(2 * i + 1));
    const std::size_t pin = cfg_.pin_sessions_to_shards ? i % router.shards() : kUnpinned;
    sessions_.push_back(Session{std::move(client), std::move(session_rng), 0, pin});
  }
}

bool ClosedLoopPool::session_done(const Session& s) const noexcept {
  return cfg_.ops_per_client > 0 && s.ops >= cfg_.ops_per_client;
}

MixResult ClosedLoopPool::run() {
  const TimePoint start = sim_->now();
  horizon_ = start + cfg_.duration;
  remaining_ = cfg_.ops_per_client > 0 ? sessions_.size() : 0;
  latencies_ms_.reserve(1024);

  for (std::size_t i = 0; i < sessions_.size(); ++i) issue(i);

  if (cfg_.ops_per_client > 0) {
    // Ops-bound: run until every session reaches its quota (horizon acts as
    // a stuck-run cap only). Completion callbacks drive progress, so polling
    // granularity does not affect the event schedule.
    while (remaining_ > 0 && sim_->now() < horizon_) {
      sim_->run_for(std::chrono::milliseconds(10));
    }
  } else {
    sim_->run_until(horizon_);
  }

  MixResult r;
  r.completed = completed_;
  r.failed = failed_;
  r.gets = gets_;
  r.puts = puts_;
  const double elapsed = to_sec(sim_->now() - start);
  if (elapsed > 0.0) {
    r.achieved_rps = static_cast<double>(completed_) / elapsed;
    r.get_rps = static_cast<double>(gets_) / elapsed;
    r.put_rps = static_cast<double>(puts_) / elapsed;
  }
  if (!latencies_ms_.empty()) {
    // The pool is single-use: hand the samples over for sorting, no copy.
    const Summary s = Summary::of(std::move(latencies_ms_));
    r.mean_latency_ms = s.mean;
    r.p99_latency_ms = s.p99;
  }
  return r;
}

void ClosedLoopPool::issue(std::size_t session) {
  Session& s = sessions_[session];
  if (session_done(s) || sim_->now() >= horizon_) return;

  const bool is_get = s.rng.uniform() < cfg_.get_ratio;
  const std::uint64_t key_id = s.rng.uniform_index(cfg_.keyspace);
  std::string key;
  if (cfg_.disjoint_keyspace) {
    key = "c" + std::to_string(session) + "-key-" + std::to_string(key_id);
  } else {
    key = "key-" + std::to_string(key_id);
  }
  std::size_t shard = 0;
  if (s.pin != kUnpinned) {
    // Pinned session: relocate the drawn key into the session's own shard
    // (deterministic — same stem always yields the same shard-local key).
    shard = s.pin;
    key = router_->key_for_shard(shard, key);
  } else {
    shard = router_->shard_of(key);
  }

  auto done = [this, session, is_get, shard](const kv::ClientResult& result) {
    Session& sess = sessions_[session];
    ++sess.ops;
    if (result.ok) {
      ++completed_;
      (is_get ? gets_ : puts_)++;
      latencies_ms_.push_back(to_ms(result.latency));
    } else {
      ++failed_;
    }
    ShardOps& ops = per_shard_[shard];
    if (result.ok) {
      ++ops.completed;
      (is_get ? ops.gets : ops.puts)++;
    } else {
      ++ops.failed;
    }
    if (session_done(sess)) {
      if (remaining_ > 0) --remaining_;
      return;
    }
    if (cfg_.think_time > Duration{0}) {
      sim_->schedule_after(cfg_.think_time, [this, session] { issue(session); });
    } else {
      issue(session);
    }
  };

  if (is_get) {
    s.client->get(std::move(key), std::move(done));
  } else {
    const std::size_t span = cfg_.value_bytes_max - cfg_.value_bytes_min + 1;
    const std::size_t bytes = cfg_.value_bytes_min + s.rng.uniform_index(span);
    s.client->put(std::move(key), std::string(bytes, 'v'), std::move(done));
  }
}

}  // namespace dyna::wl
