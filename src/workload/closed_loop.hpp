// Closed-loop client pool at production intensity: N independent sessions,
// each with its own routed client (one network endpoint per group), issuing
// one operation at a time — the next op goes out only after the previous
// one completes (plus an optional think time). Unlike the open-loop ramp,
// offered load self-paces at whatever the service can actually absorb, which
// is how real client fleets behave at saturation and what makes group commit
// measurable: concurrent sessions are exactly the commands a batch window can
// coalesce.
//
// Operations draw from a GET/PUT mix with a value-size distribution; every
// random decision comes from a per-session RNG forked deterministically from
// the pool's stream, so a run is a pure function of (cluster seed, pool
// stream) — bit-identical whether the surrounding sweep uses 1 or 8 threads.
// One pool serves every deployment kind: a standalone cluster is one group.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "shard/client.hpp"
#include "shard/sharded_cluster.hpp"

namespace dyna::wl {

using namespace std::chrono_literals;

struct MixConfig {
  std::size_t clients = 8;        ///< concurrent closed-loop sessions
  double get_ratio = 0.0;         ///< fraction of ops that are GETs
  std::size_t keyspace = 10'000;  ///< keys drawn uniformly per session
  std::size_t value_bytes_min = 16;  ///< PUT value size, uniform in [min, max]
  std::size_t value_bytes_max = 16;
  Duration think_time{0};         ///< delay between completion and next op
  Duration duration = 10s;        ///< measurement horizon (and ops-mode cap)
  /// When > 0, each session stops after this many completions instead of at
  /// the horizon (equivalence checks want a load-independent op count;
  /// `duration` then only bounds a stuck run).
  std::uint64_t ops_per_client = 0;
  /// Give each session its own key prefix. With ops_per_client this makes
  /// the final store state independent of cross-session interleaving —
  /// the property the batched-vs-unbatched equivalence check pins.
  bool disjoint_keyspace = false;
  /// Pin session i to shard (i % shards) and draw its keys inside that
  /// shard via ShardRouter::key_for_shard (a no-op with one group). Combined
  /// with ops_per_client + disjoint_keyspace this makes each shard's final
  /// store state independent of the other shards' timing — the isolation pin
  /// used by the shard-leader-kill checks.
  bool pin_sessions_to_shards = false;
};

/// Per-group slice of a pool run.
struct ShardOps {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;

  friend bool operator==(const ShardOps&, const ShardOps&) = default;
};

struct MixResult {
  double achieved_rps = 0.0;      ///< completions / elapsed
  double get_rps = 0.0;
  double put_rps = 0.0;
  double mean_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t gets = 0;         ///< completed GETs
  std::uint64_t puts = 0;         ///< completed PUTs

  friend bool operator==(const MixResult&, const MixResult&) = default;
};

class ClosedLoopPool {
 public:
  /// One client mix spans every group of the deployment. Each session holds
  /// a ShardedKvClient and routes per-op by key through `router` (or is
  /// pinned, see MixConfig::pin_sessions_to_shards).
  ClosedLoopPool(const shard::DeploymentView& deployment, shard::ShardRouter& router,
                 MixConfig config, Rng rng);

  ClosedLoopPool(const ClosedLoopPool&) = delete;
  ClosedLoopPool& operator=(const ClosedLoopPool&) = delete;

  /// Run the pool to its horizon (or until every session reaches
  /// ops_per_client). Single-use.
  [[nodiscard]] MixResult run();

  /// Per-group op counts, one entry per router shard.
  [[nodiscard]] const std::vector<ShardOps>& per_shard() const noexcept {
    return per_shard_;
  }

 private:
  struct Session {
    std::unique_ptr<shard::ShardedKvClient> client;
    Rng rng;
    std::uint64_t ops = 0;  ///< completions (ok or failed) so far
    std::size_t pin = kUnpinned;
  };
  static constexpr std::size_t kUnpinned = static_cast<std::size_t>(-1);

  void issue(std::size_t session);
  [[nodiscard]] bool session_done(const Session& s) const noexcept;

  shard::ShardRouter* router_;
  sim::Simulator* sim_;
  MixConfig cfg_;
  Rng rng_;
  std::vector<Session> sessions_;
  TimePoint horizon_{};
  std::uint64_t remaining_ = 0;  ///< ops-mode: sessions still short of quota
  std::vector<double> latencies_ms_;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t gets_ = 0;
  std::uint64_t puts_ = 0;
  std::vector<ShardOps> per_shard_;
};

}  // namespace dyna::wl
