// Simulated message network with two transport classes.
//
// The paper's implementation sends heartbeats over UDP (so loss/reordering is
// observable — that is what the measurement needs) and all other Raft traffic
// over TCP. We model the same split:
//
//  * Transport::Datagram — each message independently suffers the link's
//    delay + jitter, can be lost, duplicated, and reordered (reordering
//    emerges from jitter; no ordering is enforced).
//  * Transport::Reliable — never lost and delivered in FIFO order per
//    directed (src,dst) pair; packet loss instead manifests as retransmission
//    delay (a small number of RTT-scale penalties), mimicking TCP recovery.
//
// Node pause ("container sleep", the paper's fault model): a paused node's
// datagrams are dropped on delivery (UDP buffer overflow) while reliable
// messages queue and flush on resume (kernel TCP buffering).
//
// Hot-path layout (see ARCHITECTURE.md): payloads are typed net::Message
// values (no std::any, no RTTI), in-flight messages live in a recycled arena
// so a delivery event is a sub-48-byte closure with no allocation, and all
// per-directed-link state (schedule override, FIFO watermark, TCP turbulence,
// partition flag) sits in an indexed Link table — one load per send where the
// seed engine did four red-black-tree lookups.
//
// Link-table layout: configure_groups(g, k) before adding nodes gives the
// table k *tiles*, one g*g block per group over node ids [0, k*g) — O(k*g^2)
// memory instead of O((k*g)^2). A standalone Cluster is one tile over its
// servers, a ShardedCluster one tile per shard. Every pair outside a tile
// (cross-group servers, client endpoints and servers added after the tiled
// region, every pair of a network nobody tiles) is *routable but stateless*:
// it shares the network's jitter rng and the default ConditionSchedule, and
// reads see one immutable default Link. The first state-bearing touch (a
// send's FIFO watermark or TCP stream update, set_blocked,
// set_link_schedule) promotes the pair into a sparse side table with full
// per-pair state — so semantics do not depend on where a pair is stored.
//
// Trial reset (sweep substrate): every Link carries a trial-epoch stamp.
// reset_for_trial bumps the network's epoch instead of walking the table;
// a link whose stamp is stale is rewound to its freshly-built state on
// first touch. Reset cost is O(nodes + touched cross-pairs), independent of
// the tile storage size — what keeps reset-in-place sweeps alive at
// thousand-node geometries.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/condition.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"

namespace dyna::net {

enum class Transport : std::uint8_t {
  Datagram,  ///< lossy, unordered (UDP-like) — used for Dynatune heartbeats
  Reliable,  ///< lossless, FIFO per pair, loss => extra delay (TCP-like)
};

/// Called on the destination node when a message arrives.
using Handler = std::function<void(NodeId from, const Message& payload)>;

/// Per-node traffic counters (message accounting for CPU/bandwidth models).
struct NodeTraffic {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t sent_bytes = 0;
  std::uint64_t received_bytes = 0;
  std::uint64_t lost = 0;           ///< datagrams dropped by link loss
  std::uint64_t dropped_paused = 0; ///< datagrams dropped because node paused
};

/// Node-level processing stalls: models CPU oversubscription, GC pauses and
/// scheduler hiccups (the paper's testbed ran five 4-core containers on a
/// 12-core Xeon). While a node is stalled, its outgoing messages queue until
/// the stall ends and incoming deliveries are deferred — a correlated
/// disturbance across all of the node's links, which is precisely what trips
/// aggressively-tuned static timeouts (Raft-Low) while Dynatune's σ-term
/// absorbs it into the measured RTT distribution.
struct StallConfig {
  /// Mean gap between stalls per node; zero disables stalls.
  Duration mean_interval{0};
  /// Stall durations are lognormal with this median (ms) ...
  double duration_median_ms = 30.0;
  /// ... and this ln-space sigma.
  double duration_sigma = 1.0;
};

class Network {
 public:
  /// Knobs for the reliable transport's loss-recovery model.
  struct Config {
    /// Extra delay charged per simulated retransmission round.
    Duration retransmit_penalty = std::chrono::milliseconds(20);
    /// Cap on retransmission rounds per message (keeps tails bounded).
    int max_retransmits = 8;
    /// Processing-stall process applied to every node.
    StallConfig stall;
    /// TCP turbulence after an abrupt RTT increase: when a link's RTT jumps
    /// by more than `turbulence_threshold`, the sender's RTO/cwnd state is
    /// stale — segments in flight look lost, the head of the stream is
    /// spuriously retransmitted with exponential backoff, and in-order
    /// delivery blocks everything behind it. We model this as a stream
    /// outage: reliable messages sent inside the turbulence window depart
    /// when the window closes. Datagram traffic is unaffected — this
    /// asymmetry is exactly why Dynatune moves heartbeats to UDP.
    /// Only streams that were *active* at the jump carry stale RTO state; an
    /// idle connection's first post-jump packet just sees the new RTT. A
    /// stream counts as active if it sent within max(4 x old RTT, 250 ms).
    bool tcp_turbulence = true;
    double turbulence_threshold = 0.5;     ///< relative RTT jump that triggers it
    double turbulence_duration_rtts = 1.5; ///< outage length in new-RTT units
  };

  Network(sim::Simulator& simulator, Rng rng, Config config)
      : sim_(&simulator), rng_(std::move(rng)), config_(config) {}

  Network(sim::Simulator& simulator, Rng rng)
      : Network(simulator, std::move(rng), Config{}) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Give the link table `groups` tiles of `group_size` x `group_size`,
  /// covering node ids [0, groups*group_size). Must be called before any
  /// node is added; the geometry is fixed for the network's lifetime — a
  /// different geometry is a different deployment, with a Network of its
  /// own. Nodes added beyond the tiled region (client endpoints) take the
  /// sparse cross-pair path; without this call every pair does.
  void configure_groups(std::size_t group_size, std::size_t groups);

  /// Register a node; returns its id. Handlers may be set/replaced later
  /// (nodes are constructed after the network exists).
  NodeId add_node(Handler handler = nullptr) {
    const NodeId id = add_nodes(1);
    nodes_.back().handler = std::move(handler);
    return id;
  }

  /// Register `count` nodes at once; returns the first id (ids are
  /// contiguous, so a group's servers land on its tile).
  NodeId add_nodes(std::size_t count);

  void set_handler(NodeId node, Handler handler) {
    state(node).handler = std::move(handler);
  }

  [[nodiscard]] bool has_handler(NodeId node) const {
    return static_cast<bool>(state(node).handler);
  }

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Return to the freshly-built state for a new trial while keeping the big
  /// allocations warm: the link table, the in-flight message arena and the
  /// per-node state vectors stay allocated; the RNG is replaced and all
  /// per-trial state (traffic counters, stall windows, pause/parked queues,
  /// link overrides, FIFO watermarks, TCP stream state, partition flags) is
  /// logically cleared. Link state is cleared *lazily*: the trial epoch is
  /// bumped and each Link rewinds on its first touch of the new trial, so
  /// the reset itself is O(nodes + touched cross-pairs) — it never walks the
  /// tile storage. Node handlers, the transport config and the default
  /// schedule are configuration, not trial state: they survive, handlers
  /// for the node indices that survive. On a tiled network `node_count`
  /// must equal groups*group_size: the reset drops the endpoints beyond the
  /// tiles. An untiled network resizes to any `node_count`. The reset
  /// contract (fresh-construction equivalence) is pinned by
  /// tests/test_trial_reuse.cpp and tests/test_net_equivalence.cpp.
  void reset_for_trial(Rng rng, std::size_t node_count);

  /// Default schedule for every link without a specific override.
  void set_default_schedule(ConditionSchedule schedule) {
    default_schedule_ = std::move(schedule);
  }

  /// Directed-link override. Use both orders for a symmetric path.
  void set_link_schedule(NodeId from, NodeId to, ConditionSchedule schedule) {
    link(from, to).override_schedule =
        std::make_unique<ConditionSchedule>(std::move(schedule));
  }

  /// Symmetric convenience: applies to both directions.
  void set_path_schedule(NodeId a, NodeId b, const ConditionSchedule& schedule) {
    set_link_schedule(a, b, schedule);
    set_link_schedule(b, a, schedule);
  }

  [[nodiscard]] const LinkCondition& condition(NodeId from, NodeId to) const {
    return schedule_for(link(from, to)).at(sim_->now());
  }

  /// Send `payload` from `from` to `to`. `bytes` feeds traffic accounting
  /// only; delivery semantics depend on the transport class.
  void send(NodeId from, NodeId to, Message payload, Transport transport,
            std::size_t bytes = 256);

  // ---- Fault injection -----------------------------------------------------

  /// Freeze / unfreeze a node's network endpoint (see file comment).
  void set_paused(NodeId node, bool paused);

  [[nodiscard]] bool paused(NodeId node) const { return state(node).paused; }

  /// Directionally block a link (network partition). Blocked messages are
  /// silently dropped for Datagram and for Reliable alike (a partition is
  /// indistinguishable from an endless outage, which TCP also cannot cross).
  void set_blocked(NodeId from, NodeId to, bool blocked) {
    link(from, to).blocked = blocked;
  }

  [[nodiscard]] bool link_blocked(NodeId from, NodeId to) const {
    return link(from, to).blocked;
  }

  /// Partition the node from everyone, both directions.
  void isolate(NodeId node, bool isolated) {
    for (NodeId other = 0; other < static_cast<NodeId>(nodes_.size()); ++other) {
      if (other == node) continue;
      set_blocked(node, other, isolated);
      set_blocked(other, node, isolated);
    }
  }

  // ---- Introspection --------------------------------------------------------

  [[nodiscard]] const NodeTraffic& traffic(NodeId node) const { return state(node).traffic; }

  /// Resident size of the link table (the scaling study's memory curve —
  /// see bench/fig_scale.cpp and bench/fig_shard.cpp): tile storage plus an
  /// estimate of the sparse cross-pair entries (hash node = key + Link + two
  /// pointers of bucket overhead). Deterministic for a given layout and ABI.
  [[nodiscard]] std::size_t link_table_bytes() const noexcept {
    return links_.capacity() * sizeof(Link) + cross_.size() * kCrossEntryBytes;
  }

  /// What a dense table over `nodes` endpoints would cost — the comparison
  /// baseline for the block-diagonal layout's memory claim.
  [[nodiscard]] static std::size_t dense_link_table_bytes(std::size_t nodes) noexcept {
    return nodes * nodes * sizeof(Link);
  }

  /// Touched cross-tile pairs currently materialized in the sparse table.
  [[nodiscard]] std::size_t cross_link_count() const noexcept { return cross_.size(); }

  /// Remaining stall time if `node` is stalled at `t` (lazy renewal process).
  [[nodiscard]] Duration stall_penalty(NodeId node, TimePoint t);

  /// Test hook: force the trial-epoch counter (exercises the wrap path of
  /// the epoch-stamped lazy reset without 2^32 real trials).
  void set_trial_epoch_for_test(std::uint32_t epoch) noexcept { trial_epoch_ = epoch; }

 private:
  struct StallWindow {
    TimePoint start = kNever;
    TimePoint end = kSimEpoch;
  };

  /// Advance the stall renewal process by one window.
  void roll_stall(StallWindow& window);

  struct NodeState {
    Handler handler;
    bool paused = false;
    /// Reliable messages that arrived while paused; flushed on resume.
    std::deque<std::pair<NodeId, Message>> parked;
    NodeTraffic traffic;
    StallWindow stall;
  };

  /// Per-directed-link TCP state for the turbulence model.
  struct StreamState {
    Duration last_rtt{0};
    TimePoint last_send = kNever;  // kNever => never sent
    TimePoint turbulent_until = kSimEpoch;
  };

  /// Everything the transport tracks about one directed (from,to) pair.
  /// Lives in a tile, or in the sparse cross-pair table once touched.
  /// `epoch` is the lazy-reset stamp: a Link whose epoch differs from the
  /// network's trial_epoch_ is logically in its freshly-built state and is
  /// physically rewound on first access (see refresh()). The stamp lives in
  /// what used to be padding — sizeof(Link) is unchanged at 48 bytes on
  /// LP64, which the committed link_table_bytes reference columns depend on.
  struct Link {
    std::unique_ptr<ConditionSchedule> override_schedule;  ///< null => default
    TimePoint reliable_last_delivery = kSimEpoch;          ///< FIFO watermark
    StreamState stream;
    std::uint32_t epoch = 0;  ///< trial stamp; != trial_epoch_ => stale
    bool blocked = false;
  };

  /// Sparse cross-pair hash node estimate for link_table_bytes(): key,
  /// value, forward pointer + one bucket slot amortized.
  static constexpr std::size_t kCrossEntryBytes =
      sizeof(std::uint64_t) + sizeof(Link) + 2 * sizeof(void*);

  [[nodiscard]] bool valid(NodeId n) const noexcept {
    return n >= 0 && static_cast<std::size_t>(n) < nodes_.size();
  }

  NodeState& state(NodeId n) {
    DYNA_EXPECTS(valid(n));
    return nodes_[static_cast<std::size_t>(n)];
  }

  const NodeState& state(NodeId n) const {
    DYNA_EXPECTS(valid(n));
    return nodes_[static_cast<std::size_t>(n)];
  }

  [[nodiscard]] static std::uint64_t cross_key(NodeId from, NodeId to) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
           static_cast<std::uint32_t>(to);
  }

  /// Rewind a stale Link to its freshly-built state (the lazy half of
  /// reset_for_trial). A stale stamp can never alias live state: stamps only
  /// ever equal a value trial_epoch_ has held, trial_epoch_ is monotone
  /// within its 32-bit period, and the wrap path below hard-clears every
  /// stamp before the counter re-enters old values.
  Link& refresh(Link& l) const noexcept {
    if (l.epoch != trial_epoch_) {
      l.override_schedule.reset();
      l.reliable_last_delivery = kSimEpoch;
      l.stream = StreamState{};
      l.blocked = false;
      l.epoch = trial_epoch_;
    }
    return l;
  }

  /// Storage cell for (from,to) if both endpoints share a group tile.
  /// nullptr => cross-tile pair (sparse path).
  [[nodiscard]] Link* tile_slot(NodeId from, NodeId to) const noexcept {
    const auto f = static_cast<std::size_t>(from);
    const auto t = static_cast<std::size_t>(to);
    // Also catches an untiled network (0 tiles) before any division by zero.
    if (f >= group_count_ * group_size_) return nullptr;
    const std::size_t g = f / group_size_;
    if (g != t / group_size_) return nullptr;
    const std::size_t base = g * group_size_;
    return &links_[base * group_size_ + (f - base) * group_size_ + (t - base)];
  }

  /// The (from,to) Link with its per-trial state live (refreshed if stale).
  /// Cross-tile pairs are promoted into the sparse table on this path —
  /// mutating accessors and the send hot path need a real cell.
  Link& link(NodeId from, NodeId to) {
    DYNA_EXPECTS(valid(from) && valid(to));
    if (Link* l = tile_slot(from, to)) return refresh(*l);
    return refresh(cross_[cross_key(from, to)]);
  }

  /// Const read: an untouched cross-tile pair stays stateless and reads the
  /// shared immutable default Link (default schedule, unblocked, no stream).
  /// Refreshing a stale tile/sparse cell is logically const — it
  /// materializes the state reset_for_trial already promised.
  [[nodiscard]] const Link& link(NodeId from, NodeId to) const {
    DYNA_EXPECTS(valid(from) && valid(to));
    if (Link* l = tile_slot(from, to)) return refresh(*l);
    const auto it = cross_.find(cross_key(from, to));
    if (it == cross_.end()) return default_link_;
    return refresh(it->second);
  }

  /// Eager fallback for the epoch wrap: physically rewind every tile cell
  /// so stale stamps from the previous 32-bit period cannot alias.
  void hard_reset_links();

  /// The schedule governing one link: its override if set, else the default.
  [[nodiscard]] const ConditionSchedule& schedule_for(const Link& l) const {
    return l.override_schedule != nullptr ? *l.override_schedule : default_schedule_;
  }

  /// Sample a one-way delay for the current condition of (from,to).
  [[nodiscard]] Duration sample_one_way_delay(const LinkCondition& cond);

  void deliver(NodeId from, NodeId to, const Message& payload, Transport transport,
               std::size_t bytes);

  /// `l` must be the (from,to) link — send() already holds it, so the hot
  /// path does not resolve the table index twice. Takes the payload by
  /// rvalue: one move from the sender's stack straight into the arena slot
  /// (the old by-value chain moved the variant three extra times per send).
  void schedule_delivery(Link& l, NodeId from, NodeId to, Message&& payload,
                         Transport transport, std::size_t bytes, Duration delay);

  /// Park `payload` in the in-flight arena; returns its slot.
  std::uint32_t arena_acquire(Message&& payload);

  /// Move the payload out of `slot` and recycle it.
  Message arena_release(std::uint32_t slot);

  sim::Simulator* sim_;
  Rng rng_;
  Config config_;
  ConditionSchedule default_schedule_{};
  std::vector<NodeState> nodes_;

  // ---- Link table ----
  /// group_count_ tiles of group_size_^2, tile g at offset g*group_size_^2.
  /// `mutable`: refresh() rewinds lazily-reset cells through const reads —
  /// observable state is unchanged (that is the reset contract).
  mutable std::vector<Link> links_;
  /// Touched cross-tile pairs, keyed (from<<32)|to.
  mutable std::unordered_map<std::uint64_t, Link> cross_;
  /// Shared stateless entry read by untouched cross-tile pairs. Never
  /// mutated, never stamped — it *is* the freshly-built state.
  Link default_link_;
  std::size_t group_size_ = 0;
  std::size_t group_count_ = 0;  ///< 0 => untiled: every pair is sparse
  std::uint32_t trial_epoch_ = 1;

  /// In-flight message arena: a delivery event captures only a slot index,
  /// so scheduling it never allocates (the closure fits InlineFn's buffer)
  /// and slots are recycled through a free list.
  std::vector<Message> arena_;
  std::vector<std::uint32_t> arena_free_;
};

}  // namespace dyna::net
