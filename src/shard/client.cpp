#include "shard/client.hpp"

#include <utility>

namespace dyna::shard {

ShardedKvClient::ShardedKvClient(const DeploymentView& deployment, ShardRouter& router,
                                 Rng rng)
    : router_(&router) {
  DYNA_EXPECTS(router.shards() == deployment.groups());
  clients_.reserve(deployment.groups());
  for (std::size_t s = 0; s < deployment.groups(); ++s) {
    auto client = std::make_unique<kv::KvClient>(
        deployment.sim(), deployment.network(), deployment.group(s).server_ids(),
        deployment.client_stream(rng, s));
    // Start at the router's cached leader when one is known — this is what
    // makes the cache pay: only the first client per shard walks the group.
    if (const NodeId hint = router_->leader_hint(s); hint != kNoNode) {
      client->set_target(hint);
    }
    client->set_leader_listener([this, s](NodeId leader) { router_->note_leader(s, leader); });
    clients_.push_back(std::move(client));
  }
}

void ShardedKvClient::put(std::string key, std::string value, kv::KvClient::DoneFn done) {
  const std::size_t s = router_->shard_of(key);
  clients_[s]->put(std::move(key), std::move(value), std::move(done));
}

void ShardedKvClient::get(std::string key, kv::KvClient::DoneFn done) {
  const std::size_t s = router_->shard_of(key);
  clients_[s]->get(std::move(key), std::move(done));
}

}  // namespace dyna::shard
