// CPU cost model: turns message traffic into per-node busy time and CPU%.
//
// We cannot reproduce the Go runtime's absolute per-message cost, so the
// constants below are calibrated once against two anchors from the paper —
// baseline peak throughput ~13.7 k req/s (Fig 5) and the Fix-K N=65 leader
// saturating one core (Fig 7b) — and then held fixed across every variant,
// so relative comparisons (Dynatune vs Fix-K vs Raft) remain meaningful.
// CPU% follows `docker stats` semantics: 100% == one fully busy core, and a
// 2-core container tops out at 200% (the paper's Fig 7b axis).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "metrics/timeseries.hpp"
#include "raft/observer.hpp"

namespace dyna::cluster {

using namespace std::chrono_literals;

struct CostModel {
  // Heartbeat path (dominates the Fig 7 experiments): marshalling, socket
  // syscall, raft-loop dispatch.
  Duration heartbeat_send = 200us;
  Duration heartbeat_recv = 80us;
  Duration heartbeat_resp_send = 80us;
  Duration heartbeat_resp_recv = 150us;
  // Replication path.
  Duration append_send = 60us;
  Duration append_recv = 80us;
  Duration append_resp_send = 30us;
  Duration append_resp_recv = 40us;
  // Election path (rare; negligible in steady state).
  Duration vote_send = 50us;
  Duration vote_recv = 50us;
  // Client path.
  Duration client_recv = 25us;
  Duration client_resp_send = 20us;
  // Per-byte handling cost (payload marshalling / copying).
  Duration per_byte = 8ns;
  // Dynatune's follower-side estimator update + retuning per heartbeat
  // (charged only when `charge_tuning` is set — Dynatune/Fix-K variants).
  Duration tuning_per_heartbeat = 25us;

  bool charge_tuning = false;
};

class PerfModel final : public raft::Observer {
 public:
  explicit PerfModel(CostModel cost, Duration bin = 5s) : cost_(cost), bin_(bin) {
    DYNA_EXPECTS(bin > Duration{0});
  }

  void on_message_sent(NodeId from, NodeId /*to*/, raft::MsgKind kind, std::size_t bytes,
                       TimePoint when) override {
    charge(from, send_cost(kind, bytes), when);
  }

  void on_message_received(NodeId node, NodeId /*from*/, raft::MsgKind kind, std::size_t bytes,
                           TimePoint when) override {
    charge(node, recv_cost(kind, bytes), when);
  }

  /// CPU percentage for `node` in the bin containing time `t`
  /// (100 == one core fully busy).
  [[nodiscard]] double cpu_percent_at(NodeId node, TimePoint t) const {
    const auto& bins = bins_of(node);
    const std::size_t idx = bin_index(t);
    if (idx >= bins.size()) return 0.0;
    return 100.0 * to_sec(bins[idx]) / to_sec(bin_);
  }

  /// Full CPU% time series for a node (one point per bin midpoint).
  [[nodiscard]] metrics::TimeSeries cpu_series(NodeId node, const std::string& name) const {
    metrics::TimeSeries series(name);
    const auto& bins = bins_of(node);
    for (std::size_t i = 0; i < bins.size(); ++i) {
      const double mid = (static_cast<double>(i) + 0.5) * to_sec(bin_);
      series.push_sec(mid, 100.0 * to_sec(bins[i]) / to_sec(bin_));
    }
    return series;
  }

  [[nodiscard]] Duration total_busy(NodeId node) const {
    Duration total{0};
    for (const Duration d : bins_of(node)) total += d;
    return total;
  }

  [[nodiscard]] const CostModel& cost() const noexcept { return cost_; }

  /// Forget every charge (trial reuse: the next trial starts from a model
  /// indistinguishable from a fresh one).
  void clear() noexcept { busy_.clear(); }

 private:
  [[nodiscard]] std::size_t bin_index(TimePoint t) const {
    return static_cast<std::size_t>(t.time_since_epoch().count() / bin_.count());
  }

  /// Bins of `node`; empty (all readers report 0) for an id never charged.
  [[nodiscard]] const std::vector<Duration>& bins_of(NodeId node) const {
    static const std::vector<Duration> kNone;
    const auto slot = static_cast<std::size_t>(node);
    return slot < busy_.size() ? busy_[slot] : kNone;
  }

  /// Grows busy_ to cover any global NodeId: a shared-substrate group's
  /// servers sit at node_base and beyond, not at 0..servers.
  void charge(NodeId node, Duration cost, TimePoint when) {
    DYNA_EXPECTS(node >= 0);
    const auto slot = static_cast<std::size_t>(node);
    if (busy_.size() <= slot) busy_.resize(slot + 1);
    auto& bins = busy_[slot];
    const std::size_t idx = bin_index(when);
    if (bins.size() <= idx) bins.resize(idx + 1, Duration{0});
    bins[idx] += cost;
  }

  [[nodiscard]] Duration send_cost(raft::MsgKind kind, std::size_t bytes) const {
    const Duration byte_cost = cost_.per_byte * static_cast<std::int64_t>(bytes);
    switch (kind) {
      case raft::MsgKind::Heartbeat: return cost_.heartbeat_send + byte_cost;
      case raft::MsgKind::HeartbeatResponse: return cost_.heartbeat_resp_send + byte_cost;
      case raft::MsgKind::Append: return cost_.append_send + byte_cost;
      case raft::MsgKind::AppendResponse: return cost_.append_resp_send + byte_cost;
      case raft::MsgKind::PreVote:
      case raft::MsgKind::Vote: return cost_.vote_send + byte_cost;
      case raft::MsgKind::PreVoteResponse:
      case raft::MsgKind::VoteResponse: return cost_.vote_send + byte_cost;
      // Snapshot transfer cost is dominated by the blob, i.e. the per-byte
      // term; the fixed part is billed like a (bulk) append.
      case raft::MsgKind::InstallSnapshot: return cost_.append_send + byte_cost;
      case raft::MsgKind::InstallSnapshotResponse: return cost_.append_resp_send + byte_cost;
      case raft::MsgKind::Client: return cost_.client_recv + byte_cost;
      case raft::MsgKind::ClientResponse: return cost_.client_resp_send + byte_cost;
    }
    return byte_cost;
  }

  [[nodiscard]] Duration recv_cost(raft::MsgKind kind, std::size_t bytes) const {
    const Duration byte_cost = cost_.per_byte * static_cast<std::int64_t>(bytes);
    switch (kind) {
      case raft::MsgKind::Heartbeat: {
        Duration c = cost_.heartbeat_recv + byte_cost;
        if (cost_.charge_tuning) c += cost_.tuning_per_heartbeat;  // follower-side retune
        return c;
      }
      case raft::MsgKind::HeartbeatResponse: return cost_.heartbeat_resp_recv + byte_cost;
      case raft::MsgKind::Append: return cost_.append_recv + byte_cost;
      case raft::MsgKind::AppendResponse: return cost_.append_resp_recv + byte_cost;
      case raft::MsgKind::PreVote:
      case raft::MsgKind::Vote: return cost_.vote_recv + byte_cost;
      case raft::MsgKind::PreVoteResponse:
      case raft::MsgKind::VoteResponse: return cost_.vote_recv + byte_cost;
      case raft::MsgKind::InstallSnapshot: return cost_.append_recv + byte_cost;
      case raft::MsgKind::InstallSnapshotResponse: return cost_.append_resp_recv + byte_cost;
      case raft::MsgKind::Client: return cost_.client_recv + byte_cost;
      case raft::MsgKind::ClientResponse: return cost_.client_resp_send + byte_cost;
    }
    return byte_cost;
  }

  CostModel cost_;
  Duration bin_;
  std::vector<std::vector<Duration>> busy_;  // [node id][bin] accumulated work
};

}  // namespace dyna::cluster
