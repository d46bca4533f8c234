#include "shard/sharded_cluster.hpp"

#include <algorithm>

namespace dyna::shard {

ShardedCluster::ShardedCluster(ShardedConfig config) : cfg_(std::move(config)) {
  DYNA_EXPECTS(cfg_.shards >= 1);
  DYNA_EXPECTS(cfg_.group.servers >= 1);
  DYNA_EXPECTS(cfg_.group.shared_sim == nullptr && cfg_.group.shared_net == nullptr);
  DYNA_EXPECTS(cfg_.group.node_base == 0);

  // Same rng stream derivation as a standalone Cluster: the network draws
  // jitter from fork(1) of the master seed. One shared stream for every
  // group — link-level randomness couples the groups by construction.
  Rng master(cfg_.group.seed);
  net_ = std::make_unique<net::Network>(sim_, master.fork(1), cfg_.group.transport);
  // Block-diagonal link table: one servers^2 tile per shard instead of a
  // (shards*servers)^2 matrix. Cross-group pairs (client endpoints,
  // injected partitions) materialize sparsely on first touch; where a pair
  // is stored never changes the rng draw order, so traces do not depend on
  // the layout.
  net_->configure_groups(cfg_.group.servers, cfg_.shards);
  net_->set_default_schedule(cfg_.group.links);

  groups_.reserve(cfg_.shards);
  for (std::size_t g = 0; g < cfg_.shards; ++g) {
    // Construction order is the id-assignment order: group g's ctor calls
    // add_node() exactly `servers` times, landing on its node_base slice.
    groups_.push_back(std::make_unique<cluster::Cluster>(group_config(g)));
    members_.push_back(groups_.back().get());
  }
}

cluster::ClusterConfig ShardedCluster::group_config(std::size_t g) {
  cluster::ClusterConfig c = cfg_.group;
  c.seed = group_seed(cfg_.group.seed, g);
  c.shared_sim = &sim_;
  c.shared_net = net_.get();
  c.node_base = static_cast<NodeId>(g * cfg_.group.servers);
  return c;
}

void ShardedCluster::reset(std::uint64_t seed) {
  // Three phases, substrate reset exactly once in the middle.
  cfg_.group.seed = seed;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    groups_[g]->reset_begin(group_seed(seed, g));
  }
  sim_.reset();
  Rng master(seed);
  net_->reset_for_trial(master.fork(1), total_servers());
  for (auto& g : groups_) g->reset_finish();
}

bool ShardedCluster::await_all_leaders(Duration timeout) {
  return DeploymentView(*this).await_leaders(timeout);
}

bool DeploymentView::await_leaders(Duration timeout) const {
  if (groups_.size() == 1) return groups_[0]->await_leader(timeout);
  const TimePoint deadline = sim_->now() + timeout;
  const auto all_led = [this] {
    return std::all_of(groups_.begin(), groups_.end(),
                       [](cluster::Cluster* g) { return g->current_leader() != kNoNode; });
  };
  while (!all_led()) {
    if (sim_->now() >= deadline) return false;
    sim_->run_for(std::chrono::milliseconds(10));
  }
  return true;
}

}  // namespace dyna::shard
