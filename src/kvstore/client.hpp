// KV client session: a network endpoint that finds the leader, retries on
// redirects and timeouts, and completes requests through callbacks.
//
// This is the open-loop workload generator's building block and what the
// examples use to talk to a cluster.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "kvstore/command.hpp"
#include "net/network.hpp"
#include "raft/message.hpp"
#include "sim/simulator.hpp"

namespace dyna::kv {

using namespace std::chrono_literals;

/// Final outcome of one client operation.
struct ClientResult {
  bool ok = false;
  std::string value;       ///< state-machine result (when ok)
  Duration latency{};      ///< submit -> completion
  int attempts = 0;        ///< sends performed (1 = first try succeeded)
};

class KvClient {
 public:
  using DoneFn = std::function<void(const ClientResult&)>;

  KvClient(sim::Simulator& simulator, net::Network& network, std::vector<NodeId> servers,
           Rng rng);

  KvClient(const KvClient&) = delete;
  KvClient& operator=(const KvClient&) = delete;

  /// Unhooks the endpoint handler and cancels every pending timer: both
  /// capture `this`, and a scenario keeps simulating long after the workload
  /// phase (and this client) are gone.
  ~KvClient();

  /// This client's network endpoint id.
  [[nodiscard]] NodeId endpoint() const noexcept { return endpoint_; }

  /// The server currently believed to be the leader (follows redirects).
  [[nodiscard]] NodeId target() const noexcept { return target_; }

  /// Seed the leader belief (e.g. from shard::ShardRouter's cache) so the
  /// first op skips the random-start leader walk. `leader` must be one of
  /// this client's servers.
  void set_target(NodeId leader) {
    DYNA_EXPECTS(std::find(servers_.begin(), servers_.end(), leader) != servers_.end());
    target_ = leader;
  }

  /// Called with the server an op ended on each time one succeeds, before
  /// the op's own completion — how shard::ShardedKvClient feeds the router's
  /// leader cache without wrapping (and allocating) every op's callback.
  void set_leader_listener(std::function<void(NodeId)> listener) {
    leader_listener_ = std::move(listener);
  }

  /// Drop a server removed from the cluster (membership churn): it leaves
  /// the retry rotation, and if it was the current target the client rotates
  /// immediately instead of timing out against a dead endpoint. At least one
  /// server must remain.
  void remove_server(NodeId id) {
    const auto it = std::find(servers_.begin(), servers_.end(), id);
    if (it == servers_.end()) return;
    DYNA_EXPECTS(servers_.size() > 1);
    servers_.erase(it);
    if (target_ == id) rotate_target();
  }

  /// Register a server added to the cluster: it joins the retry rotation.
  void add_server(NodeId id) {
    if (std::find(servers_.begin(), servers_.end(), id) == servers_.end()) {
      servers_.push_back(id);
    }
  }

  void put(std::string key, std::string value, DoneFn done);
  void get(std::string key, DoneFn done);

  /// Fire a raw encoded command (workload generator path).
  void submit(std::string payload, DoneFn done);

  // ---- Counters ----
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  [[nodiscard]] std::size_t outstanding() const noexcept { return pending_live_; }

 private:
  struct Pending {
    std::string payload;
    DoneFn done;
    TimePoint submitted;
    int attempts = 0;
    sim::EventId timeout_event = sim::kInvalidEvent;
  };

  /// Open-addressed slot in the pending table (see pending_ below).
  struct PendingSlot {
    std::uint64_t seq = 0;
    bool live = false;
    Pending p;
  };

  [[nodiscard]] Pending* find_pending(std::uint64_t seq) noexcept;
  Pending& insert_pending(std::uint64_t seq);
  void grow_pending();

  void send_attempt(std::uint64_t seq);
  void on_message(NodeId from, const net::Message& payload);
  void complete(std::uint64_t seq, bool ok, std::string value);
  void rotate_target();

  sim::Simulator* sim_;
  net::Network* net_;
  std::vector<NodeId> servers_;
  Rng rng_;
  NodeId endpoint_;
  NodeId target_;  ///< server currently believed to be the leader
  std::function<void(NodeId)> leader_listener_;
  std::uint64_t next_seq_ = 1;
  /// Pending table: flat, open-addressed on `seq & (capacity-1)`. Sequence
  /// numbers are dense and mostly-FIFO, so the direct slot is almost always
  /// free; a live collision means the in-flight window outgrew the table and
  /// it doubles (rehash — rare, amortized). Replaces a std::map that paid a
  /// node allocation + red-black rebalance per request on the hottest client
  /// path; lookup/insert/erase are now O(1) with zero steady-state
  /// allocation.
  std::vector<PendingSlot> pending_;
  std::size_t pending_live_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retries_ = 0;
};

}  // namespace dyna::kv
