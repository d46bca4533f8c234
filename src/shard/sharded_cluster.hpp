// Sharded multi-raft deployment: k independent cluster::Cluster consensus
// groups multiplexed onto ONE Simulator and ONE Network. Sharing the
// substrate is the point — every group's traffic rides the same network
// (block-diagonal link table: one n×n tile per group, sparse promotion
// for touched cross-group pairs), so groups genuinely contend for the
// shared event queue and the network's jitter rng, which is the
// interference question the policy grid probes.
//
// Group g owns network node ids [g*servers, (g+1)*servers); client
// endpoints land after every server. Per-group seeds fork from the master
// seed in fixed group order, so a run is a pure function of (config, seed)
// exactly like a single cluster.
//
// Reset contract: reset(seed) per trial, same as Cluster (fresh == reused,
// pinned by tests). The three-phase protocol matters — every group's
// reset_begin runs first (node teardown against the OLD simulator), then
// the shared Simulator/Network reset exactly once, then every group's
// reset_finish (rebuild against the fresh substrate). A different config —
// a new geometry (shards or servers-per-group) included — is a different
// deployment: construct a new ShardedCluster. Installed handlers capture
// the id→group mapping, which resizing the tiles in place would silently
// invalidate.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "shard/router.hpp"

namespace dyna::shard {

struct ShardedConfig {
  std::size_t shards = 2;
  /// Router partition mode baked into make_router().
  PartitionMode partition = PartitionMode::Hash;
  /// Per-group template: `servers` is the group size, `seed` the master
  /// seed (each group derives its own), everything else applies verbatim to
  /// every group. shared_sim/shared_net/node_base must stay null/0 — the
  /// ShardedCluster fills them per group.
  cluster::ClusterConfig group;
};

class ShardedCluster {
 public:
  explicit ShardedCluster(ShardedConfig config);

  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  /// A new trial of the same deployment under master seed `seed`;
  /// observationally identical to a fresh ShardedCluster built from
  /// config() with that seed. Mirrors Cluster::reset(seed).
  void reset(std::uint64_t seed);

  // ---- Accessors ----
  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] net::Network& network() noexcept { return *net_; }
  [[nodiscard]] const ShardedConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t shards() const noexcept { return groups_.size(); }
  [[nodiscard]] std::size_t total_servers() const noexcept {
    return cfg_.shards * cfg_.group.servers;
  }
  [[nodiscard]] cluster::Cluster& shard(std::size_t s) {
    DYNA_EXPECTS(s < groups_.size());
    return *groups_[s];
  }
  /// Every group, in group order.
  [[nodiscard]] std::span<cluster::Cluster* const> groups() const noexcept { return members_; }

  /// A router matching this deployment's shard count and partition mode.
  [[nodiscard]] ShardRouter make_router() const {
    return ShardRouter(cfg_.shards, cfg_.partition);
  }

  /// Advance simulation until every group has a leader (true) or `timeout`
  /// elapses. Groups elect concurrently on the shared substrate.
  bool await_all_leaders(Duration timeout);

  /// The seed group g derives from `master` (exposed for tests).
  [[nodiscard]] static std::uint64_t group_seed(std::uint64_t master, std::size_t g) {
    return derive_seed(master, 0x5AAD00 + g);
  }

  /// Fork an independent RNG stream for drivers built on this deployment
  /// (same derivation as Cluster::fork_rng, keyed by the master seed).
  [[nodiscard]] Rng fork_rng(std::uint64_t stream) const {
    return Rng(derive_seed(cfg_.group.seed, 0xC0FFEE ^ stream));
  }

 private:
  [[nodiscard]] cluster::ClusterConfig group_config(std::size_t g);

  ShardedConfig cfg_;
  // Declaration order is destruction order in reverse: groups_ dies first
  // (node/timer destructors cancel against the still-live simulator), then
  // the network, then the simulator.
  sim::Simulator sim_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<cluster::Cluster>> groups_;
  std::vector<cluster::Cluster*> members_;  ///< groups_, unowned (the view's table)
};

/// Non-owning view of a running deployment: k >= 1 consensus groups on one
/// shared Simulator/Network. The run-level drivers — ScenarioRunner's run
/// body, ShardedKvClient, the closed- and open-loop workloads — are written
/// once against it. Built from a standalone Cluster (one group owning its
/// substrate) or from a ShardedCluster (any k, including 1). A view lives for
/// one run and is not copyable: a standalone view's group table points into
/// the view itself.
class DeploymentView {
 public:
  // Implicit on purpose: drivers take a view, callers hand them a cluster.
  DeploymentView(cluster::Cluster& c) noexcept  // NOLINT(google-explicit-constructor)
      : sim_(&c.sim()), net_(&c.network()), seed_(c.config().seed), single_(&c),
        groups_(&single_, 1) {}
  DeploymentView(ShardedCluster& sc) noexcept  // NOLINT(google-explicit-constructor)
      : sim_(&sc.sim()), net_(&sc.network()), seed_(sc.config().group.seed),
        partition_(sc.config().partition), groups_(sc.groups()) {}

  DeploymentView(const DeploymentView&) = delete;
  DeploymentView& operator=(const DeploymentView&) = delete;

  [[nodiscard]] sim::Simulator& sim() const noexcept { return *sim_; }
  [[nodiscard]] net::Network& network() const noexcept { return *net_; }
  [[nodiscard]] std::size_t groups() const noexcept { return groups_.size(); }
  [[nodiscard]] cluster::Cluster& group(std::size_t g) const {
    DYNA_EXPECTS(g < groups_.size());
    return *groups_[g];
  }
  /// A standalone Cluster, as opposed to any ShardedCluster (even k = 1).
  [[nodiscard]] bool standalone() const noexcept { return single_ != nullptr; }

  /// A router matching the group count and partition mode.
  [[nodiscard]] ShardRouter make_router() const { return ShardRouter(groups(), partition_); }

  /// Fork a driver stream from the master seed (the derivation of
  /// Cluster::fork_rng and ShardedCluster::fork_rng alike).
  [[nodiscard]] Rng fork_rng(std::uint64_t stream) const {
    return Rng(derive_seed(seed_, 0xC0FFEE ^ stream));
  }

  /// The client-stream rule, keyed on the deployment kind, never on the
  /// group count: a standalone deployment hands its one group client the
  /// driver's stream unforked; a sharded one gives group g's client
  /// rng.fork(g), forked in group order, at every k — the stream layout the
  /// reference traces were recorded with.
  [[nodiscard]] Rng client_stream(Rng& rng, std::size_t g) const {
    return standalone() ? rng : rng.fork(g);
  }

  /// Advance simulation until every group has a leader (true) or `timeout`
  /// elapses, polling every 10 ms. One group polls through
  /// Cluster::await_leader's memoized leader scan (same schedule, same
  /// answer).
  bool await_leaders(Duration timeout) const;

 private:
  sim::Simulator* sim_;
  net::Network* net_;
  std::uint64_t seed_;
  PartitionMode partition_ = PartitionMode::Hash;
  cluster::Cluster* single_ = nullptr;  ///< the standalone group, else null
  std::span<cluster::Cluster* const> groups_;
};

}  // namespace dyna::shard
