#include "scenario/runner.hpp"

#include <algorithm>
#include <map>
#include <mutex>

#include "common/stats.hpp"
#include "kvstore/client.hpp"
#include "parallel/trial_runner.hpp"
#include "scenario/sink.hpp"
#include "shard/client.hpp"
#include "workload/open_loop.hpp"

namespace dyna::scenario {

using namespace std::chrono_literals;

namespace {

// ---- Spec -> ClusterConfig --------------------------------------------------------

cluster::ClusterConfig build_config(const ScenarioSpec& spec) {
  cluster::ClusterConfig cfg;
  if (spec.config_factory) {
    cfg = spec.config_factory(spec.servers, spec.seed);
  } else {
    switch (spec.variant) {
      case Variant::Raft:
        cfg = cluster::make_raft_config(spec.servers, spec.seed);
        break;
      case Variant::RaftLow:
        cfg = cluster::make_raft_low_config(spec.servers, spec.seed);
        break;
      case Variant::Dynatune:
        cfg = cluster::make_dynatune_config(spec.servers, spec.seed, spec.dynatune);
        break;
      case Variant::FixK:
        cfg = cluster::make_fixk_config(spec.servers, spec.seed, spec.fix_k, spec.dynatune);
        break;
    }
  }
  cfg.links = spec.topology.schedule.value_or(net::ConditionSchedule::constant(spec.topology.base));
  cfg.transport = spec.transport;
  if (spec.raft_tick) cfg.raft.tick = *spec.raft_tick;
  if (spec.snapshot_threshold) cfg.raft.snapshot_threshold = *spec.snapshot_threshold;
  if (spec.snapshot_trailing) cfg.raft.snapshot_trailing = *spec.snapshot_trailing;
  cfg.round_service_time = spec.round_service_time;
  cfg.command_service_time = spec.command_service_time;
  if (spec.group_commit) cfg.raft.group_commit = *spec.group_commit;
  if (spec.max_batch_commands) cfg.raft.max_batch_commands = *spec.max_batch_commands;
  if (spec.read_index) cfg.raft.read_index = *spec.read_index;
  cfg.perf_cost = spec.perf_cost;
  cfg.perf_bin = spec.perf_bin;
  cfg.fault = spec.faults.crash_points;
  return cfg;
}

// ---- Internal strategies ----------------------------------------------------------

/// The paper's §IV-B1 procedure: repeatedly freeze the leader ("container
/// sleep"), read detection / OTS instants from the probe's event stream,
/// revive, repeat. Kill i lands on group i mod k, so every group's failover
/// path runs and the sample count still matches the plan.
std::vector<FailoverSample> run_failovers(const shard::DeploymentView& d,
                                          const FaultPlan& plan) {
  std::vector<FailoverSample> samples;
  samples.reserve(plan.kills);

  for (std::size_t kill = 0; kill < plan.kills; ++kill) {
    cluster::Cluster& c = d.group(kill % d.groups());

    // Multi-machine measurement noise (AWS experiment): each server's log
    // timestamps carry a fixed NTP offset, set just before its group's
    // first kill.
    if (plan.clock_skew_ms && kill < d.groups()) {
      Rng skew_rng = c.fork_rng(0x5C1E);
      for (const NodeId id : c.server_ids()) {
        c.probe().set_clock_offset(id, from_ms(skew_rng.normal(0.0, *plan.clock_skew_ms)));
      }
    }

    FailoverSample sample;

    if (!c.await_leader(plan.max_wait)) {
      samples.push_back(sample);  // ok == false
      continue;
    }
    c.sim().run_for(plan.settle);
    const NodeId leader = c.current_leader();
    if (leader == kNoNode) {
      samples.push_back(sample);
      continue;
    }

    // Mean randomizedTimeout across the followers just before the kill
    // (the §IV-B1 telemetry: 1454 ms for Raft vs 152 ms for Dynatune; the
    // leader is excluded — its stale draw never gates failure detection).
    {
      Welford w;
      for (const NodeId id : c.server_ids()) {
        if (id == leader) continue;
        if (auto* n = c.node_if_alive(id); n != nullptr && n->running()) {
          w.add(to_ms(n->randomized_timeout()));
        }
      }
      sample.mean_randomized_ms = w.mean();
    }

    const TimePoint t_kill = c.sim().now();
    if (plan.mode == FaultMode::CrashRestart) {
      c.crash(leader);
    } else {
      c.pause(leader);
    }

    // Advance until a successor emerges.
    const TimePoint deadline = t_kill + plan.max_wait;
    std::optional<cluster::Probe::LeaderEvent> new_leader;
    while (c.sim().now() < deadline) {
      new_leader = c.probe().first_leader_after(t_kill, /*exclude=*/leader);
      if (new_leader) break;
      c.sim().run_for(5ms);
    }

    const auto detection = c.probe().first_timeout_after(t_kill);
    if (new_leader && detection) {
      sample.detection_ms = to_ms(detection->when - t_kill);
      sample.ots_ms = to_ms(new_leader->when - t_kill);
      sample.election_ms = sample.ots_ms - sample.detection_ms;
      sample.ok = true;
    }
    samples.push_back(sample);

    c.sim().run_for(plan.resume_delay);
    if (plan.mode == FaultMode::CrashRestart) {
      c.restart(leader);  // recovers from storage: snapshot + log suffix
    } else {
      c.resume(leader);
    }
  }
  return samples;
}

/// Median follower election timeout in force; -1 when no follower is live.
double follower_et_median_ms(cluster::Cluster& c, NodeId leader) {
  std::vector<double> ets;
  for (const NodeId id : c.server_ids()) {
    if (id == leader) continue;
    if (auto* n = c.node_if_alive(id); n != nullptr && n->running()) {
      ets.push_back(to_ms(n->policy().election_timeout()));
    }
  }
  if (ets.empty()) return -1.0;
  const auto mid = ets.begin() + static_cast<std::ptrdiff_t>(ets.size() / 2);
  std::nth_element(ets.begin(), mid, ets.end());
  return *mid;
}

/// The §IV-C1 sampling loop generalized: every `sample_every`, record the
/// link condition in force, the k-th smallest randomizedTimeout, follower Et
/// / leader pace telemetry, CPU (when modeled) and availability.
std::vector<SamplePoint> run_samples(cluster::Cluster& c, const SamplePlan& plan) {
  std::vector<SamplePoint> points;
  const auto total =
      static_cast<std::size_t>(plan.duration.count() / plan.sample_every.count());
  points.reserve(total);
  std::uint64_t last_sent = 0;
  NodeId last_leader = c.current_leader();
  if (last_leader != kNoNode) last_sent = c.network().traffic(last_leader).sent;
  for (std::size_t i = 0; i < total; ++i) {
    c.sim().run_for(plan.sample_every);
    const TimePoint now = c.sim().now();

    SamplePoint p;
    p.t_sec = to_sec(now);
    const net::LinkCondition& cond = c.network().condition(0, 1);
    p.rtt_ms = to_ms(cond.rtt);
    p.loss_pct = cond.loss * 100.0;
    const Duration kth = c.randomized_timeout_kth(plan.kth);
    p.randomized_kth_ms = kth == Duration::max() ? -1.0 : to_ms(kth);
    p.available = cluster::service_available(c);

    const NodeId leader = c.current_leader();
    if (leader != kNoNode) {
      p.et_median_ms = follower_et_median_ms(c, leader);
      double h_sum = 0.0;
      int h_n = 0;
      raft::RaftNode& ln = c.node(leader);
      for (const NodeId id : c.server_ids()) {
        if (id == leader) continue;
        h_sum += to_ms(ln.effective_heartbeat_interval(id));
        ++h_n;
      }
      if (h_n > 0) p.h_mean_ms = h_sum / h_n;

      // The send rate is a delta of the leader's cumulative counter; a
      // leadership change between samples makes the previous baseline another
      // node's counter, so the bin after a change has no rate.
      const std::uint64_t sent = c.network().traffic(leader).sent;
      if (leader == last_leader) {
        p.hb_per_sec = static_cast<double>(sent - last_sent) / to_sec(plan.sample_every);
      }
      last_sent = sent;

      if (c.perf() != nullptr) {
        const NodeId follower = leader == 0 ? 1 : 0;
        p.leader_cpu_pct = c.perf()->cpu_percent_at(leader, now - plan.sample_every);
        p.follower_cpu_pct = c.perf()->cpu_percent_at(follower, now - plan.sample_every);
      }
    }
    last_leader = leader;
    points.push_back(p);
  }
  return points;
}

std::vector<PathSample> record_paths(cluster::Cluster& c, NodeId leader) {
  std::vector<PathSample> paths;
  if (leader == kNoNode) return paths;
  raft::RaftNode& ln = c.node(leader);
  for (const NodeId id : c.server_ids()) {
    if (id == leader) continue;
    PathSample p;
    p.follower = id;
    p.rtt_ms = to_ms(c.network().condition(leader, id).rtt);
    if (auto* n = c.node_if_alive(id); n != nullptr && n->running()) {
      p.et_ms = to_ms(n->policy().election_timeout());
    }
    p.h_ms = to_ms(ln.effective_heartbeat_interval(id));
    paths.push_back(p);
  }
  return paths;
}

/// The per-pair topology layers applied on top of the compiled config (the
/// link-table state a reset deliberately clears between trials). Every group
/// gets its own copy at its node base: WAN positions and override ids are
/// group-local.
void apply_topology(const shard::DeploymentView& d, const ScenarioSpec& spec) {
  for (std::size_t g = 0; g < d.groups(); ++g) {
    const NodeId base = d.group(g).node_base();
    if (spec.topology.wan) {
      DYNA_EXPECTS(spec.topology.wan->size() >= spec.servers);
      spec.topology.wan->apply(d.network(), base);
    }
    for (const auto& o : spec.topology.overrides) {
      d.network().set_link_schedule(base + o.from, base + o.to, o.schedule);
    }
  }
}

// ---- Partition windows ------------------------------------------------------------

/// (Un)cut `nodes` from every other registered endpoint: inbound blocks
/// traffic *toward* the listed nodes, outbound traffic *from* them, and both
/// together make a symmetric cut. Members keep reaching each other, so
/// listing one group's servers isolates the group whole.
void cut_nodes_directed(net::Network& net, const std::vector<NodeId>& nodes, bool inbound,
                        bool outbound, bool blocked) {
  const auto n = static_cast<NodeId>(net.node_count());
  std::vector<char> inside(static_cast<std::size_t>(n), 0);
  for (const NodeId id : nodes) {
    DYNA_EXPECTS(id >= 0 && id < n);
    inside[static_cast<std::size_t>(id)] = 1;
  }
  for (const NodeId a : nodes) {
    for (NodeId b = 0; b < n; ++b) {
      if (inside[static_cast<std::size_t>(b)] != 0) continue;
      if (outbound) net.set_blocked(a, b, blocked);
      if (inbound) net.set_blocked(b, a, blocked);
    }
  }
}

/// Schedule the plan's partition windows (symmetric and directed) relative
/// to now (the measurement start). Endpoints registered after a window
/// begins (e.g. a client built mid-window) are not retroactively cut.
void schedule_partition_windows(sim::Simulator& sim, net::Network& net,
                                const FaultPlan& plan) {
  for (const auto& w : plan.partition_windows) {
    if (w.nodes.empty() || w.duration <= Duration{0}) continue;
    sim.schedule_after(w.start, [&net, nodes = w.nodes] {
      cut_nodes_directed(net, nodes, true, true, true);
    });
    sim.schedule_after(w.start + w.duration, [&net, nodes = w.nodes] {
      cut_nodes_directed(net, nodes, true, true, false);
    });
  }
  for (const auto& w : plan.asym_windows) {
    if (w.nodes.empty() || w.duration <= Duration{0}) continue;
    if (!w.block_inbound && !w.block_outbound) continue;
    sim.schedule_after(w.start, [&net, nodes = w.nodes, in = w.block_inbound,
                                 out = w.block_outbound] {
      cut_nodes_directed(net, nodes, in, out, true);
    });
    sim.schedule_after(w.start + w.duration, [&net, nodes = w.nodes, in = w.block_inbound,
                                              out = w.block_outbound] {
      cut_nodes_directed(net, nodes, in, out, false);
    });
  }
}

// ---- Rolling restarts / membership churn ------------------------------------------

/// Staggered crash/restart sweep over the live servers: each round crashes
/// every server in id order, `stagger` apart, each down for `down_time`.
/// Coexists with crash-point injection — both sides' crash/restart guards
/// make the overlapping case (injector fells a server the sweep is about to
/// touch, or vice versa) a deterministic no-op.
void run_rolling_restarts(cluster::Cluster& c, const FaultPlan& plan) {
  const FaultPlan::RollingRestart& r = *plan.rolling;
  for (std::size_t round = 0; round < r.rounds; ++round) {
    for (const NodeId id : c.server_ids()) {
      if (c.node_if_alive(id) != nullptr) c.crash(id);
      c.sim().run_for(r.down_time);
      if (c.node_if_alive(id) == nullptr) c.restart(id);
      c.sim().run_for(r.stagger - r.down_time);
    }
  }
}

/// One churn round: provision a fresh server, join it as a learner, promote
/// it to voter, then remove a non-leader voter and tear it down — net size
/// unchanged, identity rotated. Returns rounds fully completed (a round that
/// cannot commit its config change within max_wait aborts the loop; the
/// invariant audit still runs over whatever membership resulted).
std::size_t run_membership_churn(cluster::Cluster& c, const FaultPlan& plan) {
  const FaultPlan::MembershipChurn& mc = *plan.churn;
  std::size_t completed = 0;
  for (std::size_t round = 0; round < mc.rounds; ++round) {
    if (!c.await_leader(mc.max_wait)) break;

    const NodeId joiner = c.add_server(/*as_learner=*/true);
    const auto add = c.propose_config_change(raft::ConfigChange::AddLearner, joiner);
    if (!add || !c.await_applied(*add, mc.max_wait)) break;
    c.sim().run_for(mc.settle);  // learner catch-up

    const auto promote = c.propose_config_change(raft::ConfigChange::Promote, joiner);
    if (!promote || !c.await_applied(*promote, mc.max_wait)) break;
    c.sim().run_for(mc.settle);

    const NodeId leader = c.current_leader();
    NodeId victim = kNoNode;
    for (const NodeId id : c.server_ids()) {
      if (id != leader && id != joiner) {
        victim = id;
        break;
      }
    }
    if (victim == kNoNode) break;
    const auto remove = c.propose_config_change(raft::ConfigChange::Remove, victim);
    if (!remove || !c.await_applied(*remove, mc.max_wait)) break;
    c.sim().run_for(mc.settle);
    c.finalize_removal(victim);
    ++completed;
  }
  return completed;
}

/// Group g's slice of a sharded run's counters.
ShardSample shard_sample(cluster::Cluster& c, std::size_t g, std::size_t servers,
                         const std::vector<wl::ShardOps>& ops, double window_sec) {
  ShardSample s;
  s.shard = g;
  s.servers = servers;
  s.leader_elected = c.current_leader() != kNoNode;
  if (!ops.empty()) {
    s.completed = ops[g].completed;
    s.failed = ops[g].failed;
  }
  if (window_sec > 0.0) s.achieved_rps = static_cast<double>(s.completed) / window_sec;
  for (const NodeId id : c.server_ids()) {
    if (auto* n = c.node_if_alive(id); n != nullptr) {
      s.applied = std::max(s.applied, static_cast<std::uint64_t>(n->last_applied()));
    }
  }
  return s;
}

/// The run shape, written once for every deployment: await every group's
/// leader, warm up, then run the workload / fault / sampling plans and
/// collect counters summed over the groups. Semantics that depend on the
/// deployment, all stated here:
///   * partition-window ids are network ids across the whole deployment;
///   * membership churn needs a standalone deployment (it provisions fresh
///     endpoints, which a shared substrate's fixed tiled geometry cannot
///     grow mid-trial);
///   * kill i lands on group i mod k; rolling restarts visit the groups in
///     order (they share one simulator, so each group's sweep runs against
///     live traffic from the others);
///   * timeline samples and path telemetry read group 0;
///   * shard_stats holds one row per group of every sharded deployment
///     (k >= 1) and stays empty for a standalone one.
ScenarioResult run_deployment(const shard::DeploymentView& d, const ScenarioSpec& spec) {
  spec.faults.validate(d.groups() * spec.servers);
  if (spec.samples.sample_every <= Duration{0}) {
    throw std::invalid_argument("SamplePlan: sample_every must be > 0");
  }
  if (spec.faults.churn && !d.standalone()) {
    throw std::runtime_error("ScenarioRunner: membership churn requires a standalone cluster");
  }

  ScenarioResult r;
  r.scenario = spec.name;
  r.servers = spec.servers;  // per-group size
  r.seed = spec.seed;
  r.variant = d.group(0).config().name;  // factory-supplied configs keep their own name

  r.leader_elected = d.await_leaders(spec.await_leader);
  if (!r.leader_elected) {
    for (std::size_t g = 0; g < d.groups(); ++g) {
      cluster::Cluster& c = d.group(g);
      r.timer_expiries += c.probe().timeouts().size();
      r.invariant_violations += c.audit_invariants();
      r.crash_firings += c.fault_firings();
    }
    r.sim_seconds = to_sec(d.sim().now());
    return r;
  }
  d.sim().run_for(spec.warmup);

  if (spec.sample_paths) {
    r.paths_leader = d.group(0).current_leader();
    r.paths = record_paths(d.group(0), r.paths_leader);
  }

  const TimePoint measure_start = d.sim().now();
  schedule_partition_windows(d.sim(), d.network(), spec.faults);

  std::vector<wl::ShardOps> shard_ops;  // per group; sized only when a workload runs
  if (spec.workload.enabled) {
    // One router serves the whole workload; it publishes discovered leaders
    // as it goes. Fixed RNG stream ids keep the trace a pure function of
    // (config, master seed); the closed-loop id is fresh so the open-loop
    // streams keep their pre-scenario-API Fig 5 values.
    shard::ShardRouter router = d.make_router();
    if (spec.workload.kind == WorkloadPlan::Kind::ClosedLoop) {
      wl::ClosedLoopPool pool(d, router, spec.workload.mix, d.fork_rng(0xC10D));
      r.mix.push_back(pool.run());
      shard_ops = pool.per_shard();
    } else {
      shard::ShardedKvClient client(d, router, d.fork_rng(0xC11E47));
      wl::OpenLoopRamp ramp(d, client, spec.workload.ramp, d.fork_rng(0x10AD));
      r.levels = ramp.run();
      shard_ops.resize(d.groups());
      for (std::size_t g = 0; g < d.groups(); ++g) {
        shard_ops[g].completed = client.client(g).completed();
        shard_ops[g].failed = client.client(g).failed();
      }
    }
  }

  if (spec.faults.kills > 0) {
    r.failovers = run_failovers(d, spec.faults);
  }

  if (spec.faults.rolling && spec.faults.rolling->rounds > 0) {
    for (std::size_t g = 0; g < d.groups(); ++g) run_rolling_restarts(d.group(g), spec.faults);
  }

  if (spec.faults.churn) {
    r.membership_rounds = run_membership_churn(d.group(0), spec.faults);
  }

  if (spec.samples.duration > Duration{0}) {
    r.samples = run_samples(d.group(0), spec.samples);
    for (const auto& p : r.samples) {
      if (!p.available) r.ots_seconds += to_sec(spec.samples.sample_every);
    }
  }

  const TimePoint now = d.sim().now();
  for (std::size_t g = 0; g < d.groups(); ++g) {
    cluster::Cluster& c = d.group(g);
    const std::size_t elections = c.probe().elections_started_in(measure_start, now);
    const std::size_t expiries = c.probe().timeouts().size();
    if (!d.standalone()) {
      ShardSample s = shard_sample(c, g, spec.servers, shard_ops, to_sec(now - measure_start));
      s.elections = elections;
      s.timer_expiries = expiries;
      r.shard_stats.push_back(s);
    }
    r.elections += elections;
    r.timer_expiries += expiries;
    r.invariant_violations += c.audit_invariants();
    r.crash_firings += c.fault_firings();
  }
  r.sim_seconds = to_sec(now);
  return r;
}

}  // namespace

std::unique_ptr<cluster::Cluster> ScenarioRunner::materialize(const ScenarioSpec& spec) {
  auto c = std::make_unique<cluster::Cluster>(build_config(spec));
  apply_topology(*c, spec);
  return c;
}

std::unique_ptr<shard::ShardedCluster> ScenarioRunner::materialize_sharded(
    const ScenarioSpec& spec) {
  DYNA_EXPECTS(spec.shards >= 1);
  auto sc = std::make_unique<shard::ShardedCluster>(shard::ShardedConfig{
      .shards = spec.shards, .partition = spec.partition_mode, .group = build_config(spec)});
  apply_topology(*sc, spec);
  return sc;
}

ScenarioResult ScenarioRunner::run(const ScenarioSpec& spec) {
  if (spec.shards > 1) {
    auto sc = materialize_sharded(spec);
    return run_on(*sc, spec);
  }
  auto c = materialize(spec);
  return run_on(*c, spec);
}

ScenarioResult ScenarioRunner::run_on(cluster::Cluster& c, const ScenarioSpec& spec) {
  return run_deployment(c, spec);
}

ScenarioResult ScenarioRunner::run_on(shard::ShardedCluster& sc, const ScenarioSpec& spec) {
  return run_deployment(sc, spec);
}

std::uint64_t ScenarioRunner::sweep_seed(const SweepSpec& sweep, std::size_t seed_index) {
  const std::uint64_t master = sweep.master_seed != 0 ? sweep.master_seed : sweep.base.seed;
  return derive_seed(master, seed_index);
}

namespace {

/// One (variant, size) cell of a sweep's cross product.
struct SweepCell {
  Variant variant = Variant::Raft;
  std::size_t servers = 0;
};

/// The sweep's enumeration, flattened: trial i belongs to cell i / seeds at
/// seed index i % seeds. No per-trial ScenarioSpec copies — the old path
/// materialized the whole cross product as a spec vector up front, which at
/// 10k trials was 10k allocation-heavy copies of the base spec.
struct SweepPlan {
  std::vector<SweepCell> cells;  ///< variant-major, then size
  std::size_t seeds = 1;
  std::uint64_t master = 0;
  unsigned threads = 1;

  [[nodiscard]] std::size_t total() const noexcept { return cells.size() * seeds; }
};

SweepPlan plan_sweep(const SweepSpec& sweep) {
  SweepPlan plan;
  const std::vector<std::size_t> sizes =
      sweep.sizes.empty() ? std::vector<std::size_t>{sweep.base.servers} : sweep.sizes;

  const std::vector<Variant> variants =
      sweep.variants.empty() ? std::vector<Variant>{sweep.base.variant} : sweep.variants;

  plan.cells.reserve(variants.size() * sizes.size());
  for (const Variant v : variants) {
    for (const std::size_t n : sizes) plan.cells.push_back({v, n});
  }
  plan.seeds = std::max<std::size_t>(1, sweep.seeds);
  plan.master = sweep.master_seed != 0 ? sweep.master_seed : sweep.base.seed;
  plan.threads = sweep.threads != 0 ? sweep.threads : std::thread::hardware_concurrency();
  if (plan.threads == 0) plan.threads = 1;
  return plan;
}

/// Worker-local trial execution: every worker owns one spec value and one
/// simulation substrate, built at cell boundaries and reset to the next seed
/// between same-cell trials. The reset contract makes this invisible in the
/// results (tests/test_trial_reuse.cpp); reuse_substrate=false falls back to
/// one fresh deployment per trial for exactly that comparison.
class SweepExecutor {
 public:
  SweepExecutor(const SweepSpec& sweep, const SweepPlan& plan)
      : sweep_(&sweep), plan_(&plan), slots_(plan.threads) {}

  [[nodiscard]] ScenarioResult run_trial(std::size_t index) {
    const int wid = par::ThreadPool::current_worker();
    DYNA_ASSERT(wid >= 0 && static_cast<std::size_t>(wid) < slots_.size());
    Slot& slot = slots_[static_cast<std::size_t>(wid)];

    const std::size_t cell_index = index / plan_->seeds;
    const SweepCell& cell = plan_->cells[cell_index];
    const std::uint64_t seed = derive_seed(plan_->master, index % plan_->seeds);

    const bool new_cell = slot.cell != cell_index;
    if (new_cell || sweep_->mutate != nullptr) {
      // With a mutate hook the spec must be rebuilt from base every trial —
      // mutations would otherwise accumulate across a worker's trial run.
      slot.spec = sweep_->base;
      slot.spec.variant = cell.variant;
      slot.spec.servers = cell.servers;
      slot.cell = cell_index;
    }
    slot.spec.seed = seed;
    if (sweep_->mutate) sweep_->mutate(slot.spec, index, seed);

    // A reset changes only the seed, so any other config change is a new
    // deployment: a new cell, a config_factory (it receives the trial seed
    // and may vary with it) and a mutate hook all build fresh. So does
    // reuse_substrate=false, the reference the reset contract is pinned
    // against.
    const bool fresh = !sweep_->reuse_substrate || new_cell ||
                       slot.spec.config_factory != nullptr || sweep_->mutate != nullptr;
    return run_deployment(slot.deploy(fresh), slot.spec);
  }

 private:
  struct Slot {
    std::size_t cell = static_cast<std::size_t>(-1);
    ScenarioSpec spec;
    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<shard::ShardedCluster> sharded;

    /// Materialize the spec's deployment (`fresh`), else reset the current
    /// one to the spec's seed and re-apply the per-pair topology the reset
    /// cleared. The trial's one branch on deployment kind.
    shard::DeploymentView deploy(bool fresh) {
      if (fresh) {
        // The old substrate dies before the new one is built, so a
        // kilo-node geometry never holds two at once.
        cluster.reset();
        sharded.reset();
      }
      if (spec.shards > 1) {
        if (sharded == nullptr) {
          sharded = ScenarioRunner::materialize_sharded(spec);
        } else {
          sharded->reset(spec.seed);
          apply_topology(*sharded, spec);
        }
        return *sharded;
      }
      if (cluster == nullptr) {
        cluster = ScenarioRunner::materialize(spec);
      } else {
        cluster->reset(spec.seed);
        apply_topology(*cluster, spec);
      }
      return *cluster;
    }
  };

  const SweepSpec* sweep_;
  const SweepPlan* plan_;
  std::vector<Slot> slots_;
};

}  // namespace

std::vector<ScenarioResult> ScenarioRunner::run_sweep(const SweepSpec& sweep) {
  const SweepPlan plan = plan_sweep(sweep);
  SweepExecutor exec(sweep, plan);
  return par::run_trials<ScenarioResult>(
      plan.total(), plan.master,
      [&exec](std::size_t i, std::uint64_t /*derived*/) { return exec.run_trial(i); },
      plan.threads);
}

void ScenarioRunner::run_sweep(const SweepSpec& sweep, ResultSink& sink) {
  const SweepPlan plan = plan_sweep(sweep);
  SweepExecutor exec(sweep, plan);

  // In-order streaming: whichever worker completes the next-in-order trial
  // drains it (plus any buffered successors) into the sink. Trials start in
  // index order (one shared cursor), so the window holds only the trials the
  // other workers finish while the oldest unfinished one runs: bounded by the
  // spread of trial costs, not by the sweep size.
  std::mutex mu;
  std::map<std::size_t, ScenarioResult> window;
  std::size_t next = 0;

  par::for_trials(
      plan.total(), plan.master,
      [&](std::size_t i, std::uint64_t /*derived*/) {
        ScenarioResult r = exec.run_trial(i);
        std::lock_guard lock(mu);
        if (i != next) {
          window.emplace(i, std::move(r));
          return;
        }
        sink.consume(r);
        ++next;
        while (!window.empty() && window.begin()->first == next) {
          sink.consume(window.begin()->second);
          window.erase(window.begin());
          ++next;
        }
      },
      plan.threads);
  DYNA_ASSERT(window.empty());
}

}  // namespace dyna::scenario
