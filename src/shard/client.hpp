// Routed KV client: one kv::KvClient per consensus group of a deployment
// behind a shared ShardRouter. Each op routes by key, rides the group
// client's normal redirect/retry machinery, and on success publishes the
// discovered leader back to the router (a KvClient leader listener) — so
// every client constructed later starts its first op at the right server
// instead of walking the group.
//
// One ShardedKvClient == one logical client session whose key mix spans the
// deployment's groups (a closed-loop session, an open-loop generator, an
// example). It serves every deployment kind: on a standalone Cluster it is
// one plain KvClient. Group client streams follow the view's client-stream
// rule (DeploymentView::client_stream).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "kvstore/client.hpp"
#include "shard/sharded_cluster.hpp"

namespace dyna::shard {

class ShardedKvClient {
 public:
  ShardedKvClient(const DeploymentView& deployment, ShardRouter& router, Rng rng);

  ShardedKvClient(const ShardedKvClient&) = delete;
  ShardedKvClient& operator=(const ShardedKvClient&) = delete;

  void put(std::string key, std::string value, kv::KvClient::DoneFn done);
  void get(std::string key, kv::KvClient::DoneFn done);

  [[nodiscard]] std::size_t shard_of(std::string_view key) const {
    return router_->shard_of(key);
  }
  [[nodiscard]] kv::KvClient& client(std::size_t shard) {
    DYNA_EXPECTS(shard < clients_.size());
    return *clients_[shard];
  }

 private:
  ShardRouter* router_;
  std::vector<std::unique_ptr<kv::KvClient>> clients_;  // one per shard
};

}  // namespace dyna::shard
