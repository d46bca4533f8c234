// Cluster harness: builds an N-server replicated KV service over the
// simulated network, wires probes/perf models, and exposes fault injection.
//
// One Cluster == one running deployment inside one Simulator. The three
// paper variants are constructed through the named factories at the bottom.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/perf_model.hpp"
#include "cluster/probe.hpp"
#include "cluster/service_queue.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "dynatune/config.hpp"
#include "fault/injector.hpp"
#include "kvstore/state_machine.hpp"
#include "net/network.hpp"
#include "raft/config.hpp"
#include "raft/invariant_checker.hpp"
#include "raft/node.hpp"
#include "sim/simulator.hpp"

namespace dyna::cluster {

struct ClusterConfig {
  std::size_t servers = 5;
  std::uint64_t seed = 42;

  raft::RaftConfig raft = raft::RaftConfig::etcd_default();

  /// Election policy per node; defaults to StaticPolicy(raft.election_timeout,
  /// raft.heartbeat_interval). Dynatune variants install DynatunePolicy here.
  std::function<std::unique_ptr<raft::ElectionPolicy>(NodeId)> policy_factory;

  /// Default link schedule applied to every pair (fluctuation experiments
  /// replace this); per-pair overrides go through network() after build.
  net::ConditionSchedule links =
      net::ConditionSchedule::constant(net::LinkCondition{});

  /// Transport/stall knobs (retransmit model, CPU-contention stalls).
  net::Network::Config transport{};

  /// Client-request CPU (throughput experiments): when either is > 0, client
  /// requests pass through a per-server FIFO CPU before reaching Raft, and
  /// serving a round of k coalesced commands costs round_service_time +
  /// k·command_service_time. The round size cap and whether commands
  /// coalesce at all mirror the raft group-commit knobs
  /// (raft.max_batch_commands / raft.group_commit), so the CPU model and the
  /// consensus batching tell one story; with group commit off every request
  /// is its own round of round_service_time + command_service_time.
  Duration round_service_time{0};
  Duration command_service_time{0};

  [[nodiscard]] bool grouped_service() const noexcept {
    return round_service_time > Duration{0} || command_service_time > Duration{0};
  }

  /// CPU accounting (Fig 7b); disabled by default to keep hot paths lean.
  std::optional<CostModel> perf_cost;
  Duration perf_bin = std::chrono::seconds(5);

  /// Probabilistic crash points (src/fault/). When set, every server gets a
  /// per-trial Injector seeded from (seed, slot) and a crashed node is
  /// rebuilt from storage after `fault->restart_delay`. Off by default — the
  /// hot paths stay branch-free.
  std::optional<fault::InjectorConfig> fault;

  /// Additional observers attached to every node (and re-attached across
  /// restarts). Non-owning; must outlive the cluster.
  std::vector<raft::Observer*> observers;

  std::string name = "cluster";

  // ---- Shared-substrate mode (sharded multi-raft, src/shard/) ----
  /// When set, this cluster is one consensus group multiplexed onto an
  /// externally owned Simulator/Network instead of building its own; its
  /// servers occupy network node ids [node_base, node_base + servers). The
  /// owner (shard::ShardedCluster) holds the network's rng/default schedule
  /// and drives the per-trial substrate reset via the reset_begin/
  /// reset_finish protocol below; this cluster only builds and resets its
  /// own nodes.
  sim::Simulator* shared_sim = nullptr;
  net::Network* shared_net = nullptr;
  NodeId node_base = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// A new trial of the same deployment under `seed`: observationally
  /// identical to destroying this cluster and constructing a fresh one from
  /// config() with that seed, but reusing the warmed allocations — the
  /// simulator's event containers, the network's link tile / in-flight
  /// arena / handler closures, the per-server storage buffers, service
  /// queues and node objects. A node is rebuilt only when its policy cannot
  /// rewind itself (ElectionPolicy::resettable_for_trial); every other layer
  /// is reset, not reallocated. A different config is a different
  /// deployment: construct a new Cluster. Fresh-construction equivalence is
  /// the reset contract pinned by tests/test_trial_reuse.cpp; external
  /// observers in `config().observers` see consecutive trials and must cope
  /// on their own.
  void reset(std::uint64_t seed);

  /// Shared-substrate reset protocol (shard::ShardedCluster). reset() is
  /// exactly reset_begin + substrate reset + reset_finish; the split exists
  /// so an owner multiplexing k groups onto one Simulator/Network can call
  /// begin on every group, reset the shared substrate once, then finish
  /// every group. Phase order is load-bearing: reset_begin tears down node
  /// objects against the *old* simulator state (their timer destructors must
  /// not run after the simulator reset — a stale (slot, generation) could
  /// alias a fresh event), and reset_finish rebuilds them against the fresh
  /// one.
  void reset_begin(std::uint64_t seed);
  void reset_finish();

  // ---- Accessors ----
  [[nodiscard]] sim::Simulator& sim() noexcept { return *sim_; }
  [[nodiscard]] net::Network& network() noexcept { return *net_; }
  /// First network node id of this cluster's servers (0 unless this is a
  /// shared-substrate group).
  [[nodiscard]] NodeId node_base() const noexcept { return cfg_.node_base; }
  [[nodiscard]] Probe& probe() noexcept { return probe_; }
  [[nodiscard]] PerfModel* perf() noexcept { return perf_.get(); }
  [[nodiscard]] const ClusterConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t size() const noexcept { return cfg_.servers; }
  [[nodiscard]] std::vector<NodeId> server_ids() const;

  /// The node object (must currently exist — i.e. not crashed).
  [[nodiscard]] raft::RaftNode& node(NodeId id);
  [[nodiscard]] raft::RaftNode* node_if_alive(NodeId id);
  [[nodiscard]] kv::KvStateMachine& state_machine(NodeId id);
  [[nodiscard]] ServiceQueue& service_queue(NodeId id);

  /// Highest-term live leader, or kNoNode.
  [[nodiscard]] NodeId current_leader() const;

  /// Advance simulation until a leader exists (true) or `timeout` elapses.
  bool await_leader(Duration timeout);

  /// k-th smallest current randomizedTimeout across servers (1-based k).
  /// Crashed/paused servers count as +infinity. This is Fig 6's metric.
  [[nodiscard]] Duration randomized_timeout_kth(std::size_t k) const;

  // ---- Fault injection ----
  void pause(NodeId id);    ///< freeze node + its network endpoint
  void resume(NodeId id);
  void crash(NodeId id);    ///< lose volatile state; storage survives
  /// Rebuild node + state machine from storage: the log cut back to its
  /// durable watermark, the snapshot, and the log suffix behind it.
  void restart(NodeId id);

  // ---- Dynamic membership (single-server changes) ----
  /// Provision a fresh server (storage, state machine, network endpoint) and
  /// start it as a learner (default) or direct voter candidate. Returns the
  /// new server's id. The server only *joins* once a leader commits the
  /// matching AddLearner/AddVoter config entry (propose_config_change).
  /// Requires an owned substrate.
  NodeId add_server(bool as_learner = true);

  /// Tear down a server whose Remove entry has committed: the node object is
  /// destroyed and its slot tombstoned for the rest of the trial (a trial
  /// reset restores the founding roster).
  void finalize_removal(NodeId id);

  /// Propose a membership change through the current leader. Returns the log
  /// index of the config entry, or nullopt when there is no leader or a
  /// change is already in flight.
  std::optional<raft::LogIndex> propose_config_change(raft::ConfigChange kind, NodeId target);

  /// Advance simulation until the current leader has applied `index` (true)
  /// or `timeout` elapses.
  bool await_applied(raft::LogIndex index, Duration timeout);

  // ---- Safety invariants / fault engine ----
  /// The always-on invariant checker attached to every node of every trial.
  [[nodiscard]] raft::InvariantChecker& checker() noexcept { return checker_; }

  /// End-of-trial deep audit: every live log entry vs the commit table,
  /// leader completeness (when a leader holds the maximum live term),
  /// applied-prefix equality. Returns the checker's total violation count
  /// (streaming + audit).
  std::uint64_t audit_invariants();

  /// Per-server crash-point injector (nullptr when fault injection is off).
  [[nodiscard]] fault::Injector* injector(NodeId id);

  /// Total crash-point firings across all servers this trial.
  [[nodiscard]] std::uint64_t fault_firings() const;

  /// Fork an independent RNG stream for drivers built on this cluster.
  [[nodiscard]] Rng fork_rng(std::uint64_t stream) {
    return Rng(derive_seed(cfg_.seed, 0xC0FFEE ^ stream));
  }

 private:
  void build_node(NodeId id, bool as_learner = false);
  void arm_injector(std::size_t idx);
  [[nodiscard]] bool owns_substrate() const noexcept { return owned_sim_ != nullptr; }
  [[nodiscard]] std::size_t index_of(NodeId id) const;
  [[nodiscard]] GroupCostModel group_model() const;

  ClusterConfig cfg_;
  // Owned in the classic single-group case, borrowed from the owner in
  // shared-substrate mode; sim_/net_ are always the live handles.
  std::unique_ptr<sim::Simulator> owned_sim_;
  std::unique_ptr<net::Network> owned_net_;
  sim::Simulator* sim_ = nullptr;
  net::Network* net_ = nullptr;
  Probe probe_;
  raft::InvariantChecker checker_;
  std::unique_ptr<PerfModel> perf_;
  std::vector<std::shared_ptr<raft::Storage>> storages_;
  std::vector<std::unique_ptr<kv::KvStateMachine>> state_machines_;
  /// The log segment the last apply handed the KV store, converted to its
  /// owner type. Consecutive entries of a segment, and every replica that
  /// applies the same shared segment, reuse it: one conversion per segment
  /// instead of one per entry.
  kv::Owner apply_owner_;
  std::vector<std::unique_ptr<raft::RaftNode>> nodes_;
  std::vector<std::unique_ptr<ServiceQueue>> service_;
  /// Server id per slot, kNoNode once removed. Slots are never erased — the
  /// network handler closures capture slot indices — only tombstoned; a
  /// trial reset restores the founding roster [node_base, node_base+servers).
  std::vector<NodeId> roster_;
  /// Per-slot crash-point injectors (empty unless cfg_.fault). Armed once
  /// per trial so max_fires survives mid-trial crash/restart cycles.
  std::vector<std::unique_ptr<fault::Injector>> injectors_;
};

/// True when some live node leads at the cluster's maximum term — i.e. the
/// service can commit. The complement is the paper's OTS shading.
[[nodiscard]] bool service_available(Cluster& cluster);

// ---- Variant factories (paper §IV-A settings) -----------------------------------

/// Baseline "Raft": etcd defaults (Et 1000 ms, h 100 ms), static policy.
[[nodiscard]] ClusterConfig make_raft_config(std::size_t servers, std::uint64_t seed);

/// "Raft-Low": parameters at 1/10 of the defaults.
[[nodiscard]] ClusterConfig make_raft_low_config(std::size_t servers, std::uint64_t seed);

/// "Dynatune": measurement + per-path tuning with the given knobs.
[[nodiscard]] ClusterConfig make_dynatune_config(std::size_t servers, std::uint64_t seed,
                                                 dt::DynatuneConfig dt = {});

/// "Fix-K": Dynatune with h-tuning disabled, K pinned (paper: 10).
[[nodiscard]] ClusterConfig make_fixk_config(std::size_t servers, std::uint64_t seed,
                                             int k = 10, dt::DynatuneConfig dt = {});

}  // namespace dyna::cluster
