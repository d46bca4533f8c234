// Shard-scale characterization: aggregate closed-loop throughput vs shard
// count on the shared simulation substrate, plus a failover column showing
// one shard's leader loss leaves every other shard untouched.
//
// Three phases, one process:
//
//   scale    — shards x group-size grid. Each cell multiplexes k consensus
//              groups onto ONE Simulator/Network (genuine shared-link
//              contention), drives --clients zero-think closed-loop sessions
//              through the hash ShardRouter under the grouped CPU model
//              (a commit round costs --round-us plus --cmd-us per command),
//              and reports aggregate + per-shard throughput. One group's
//              leader is the CPU bottleneck, so routing across k groups
//              multiplies the ceiling — the headline pin: at the first
//              group size, shards=4 must beat shards=1 by >= --min-scaling
//              (2.5x) in aggregate achieved req/s, or the bench aborts.
//
//   failover — the isolation gate. A 4-shard deployment runs a pinned,
//              ops-bound, disjoint-keyspace workload twice from the same
//              seed: once undisturbed, once with a FaultPlan partition
//              window cutting shard 0's leader off mid-run (elections,
//              stalls and retries on shard 0 only). After both runs drain,
//              every replica snapshot of shards 1..k-1 must be
//              byte-identical across the two runs — the bench aborts if a
//              shard-leader kill perturbs any other shard's applied state.
//
//   kilo     — the thousand-node frontier enabled by the block-diagonal
//              link table: --kilo-shards x group-size grid up to 64x33 =
//              2112 server nodes, closed-loop as above, one aggregate row
//              per cell. Each row adds the memory and reset-cost evidence:
//              link_table_bytes() sampled after elections but BEFORE client
//              endpoints join (the steady tiled footprint — the same idle
//              sampling point fig_scale pins; client sessions later add
//              O(touched pairs) sparse entries on top), the dense (k*n)^2
//              formula it replaces, executed events per simulated second
//              over the measurement window, and the mean per-trial
//              reset_for_trial cost measured on a standalone network of the
//              cell's geometry. Two self-pins: every kilo cell must show
//              dense/actual >= 8x (the layout's k-fold claim at k >= 8),
//              and the reset cost ratio between the largest and smallest
//              kilo cells must stay under 1/8th of the dense link-count
//              ratio (reset is O(nodes + touched), not O(links) — the
//              epoch-stamp contract).
//
// All emitted columns except reset_us and peak_rss_mib are simulated-time
// or layout metrics — deterministic per seed, so the committed reference
// CSV sits in the strict band of tools/check_bench_csv.py (the two wall
//-clock columns sit in the machine band).
//
// Usage: fig_shard [--shards=1,2,4,8] [--sizes=5,15,33] [--clients=32]
//                  [--measure-sec=3] [--round-us=2000] [--cmd-us=50]
//                  [--ops=600] [--min-scaling=2.5] [--seed=42]
//                  [--kilo-shards=8,16,32,64] [--kilo-measure-sec=2]
//                  [--kilo-reset-reps=256] [--csv=FILE]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "metrics/report.hpp"
#include "scenario/runner.hpp"
#include "shard/client.hpp"
#include "shard/router.hpp"
#include "shard/sharded_cluster.hpp"
#include "workload/closed_loop.hpp"

namespace {

using namespace dyna;
using namespace std::chrono_literals;

struct BenchParams {
  std::vector<std::size_t> shard_counts{1, 2, 4, 8};
  std::vector<std::size_t> sizes{5, 15, 33};
  std::size_t clients = 32;
  int measure_sec = 3;
  Duration round{};
  Duration per_command{};
  std::uint64_t ops = 600;
  std::uint64_t seed = 42;
  std::vector<std::size_t> kilo_shard_counts{8, 16, 32, 64};
  int kilo_measure_sec = 2;
  std::size_t kilo_reset_reps = 256;
};

/// One CSV row. `shard == -1` marks a cell-aggregate row; `undisturbed` is
/// -1 outside the failover phase; the trailing layout/cost columns are -1
/// outside the kilo phase.
struct Row {
  std::string phase;
  std::size_t shards = 0;
  std::size_t servers = 0;  ///< per group
  long long shard = -1;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double rps = 0.0;
  std::uint64_t applied = 0;
  int undisturbed = -1;
  long long link_table_bytes = -1;        ///< block-diagonal table, post-election
  long long dense_link_table_bytes = -1;  ///< the (k*n)^2 formula it replaces
  double events_per_sim_sec = -1.0;       ///< over the measurement window
  double reset_us = -1.0;                 ///< mean per-trial reset (standalone net)
  double peak_rss_mib = -1.0;             ///< process VmHWM after the cell
};

/// Peak resident set size of this process in MiB (Linux VmHWM), or -1 where
/// /proc is unavailable. Monotone over the process lifetime — the kilo grid
/// runs ascending, so each row reports the high-water mark through its own
/// (largest-so-far) configuration.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

cluster::ClusterConfig group_config(const BenchParams& p, std::size_t servers,
                                    bool model_cpu) {
  cluster::ClusterConfig cfg = cluster::make_raft_config(servers, p.seed);
  net::LinkCondition link;
  link.rtt = 2ms;
  cfg.links = net::ConditionSchedule::constant(link);
  if (model_cpu) {
    cfg.round_service_time = p.round;
    cfg.command_service_time = p.per_command;
  }
  return cfg;
}

/// Leader's applied index for group g (0 when the group has no leader).
std::uint64_t leader_applied(cluster::Cluster& c) {
  const NodeId leader = c.current_leader();
  if (leader == kNoNode) return 0;
  raft::RaftNode* n = c.node_if_alive(leader);
  return n != nullptr ? n->last_applied() : 0;
}

// ---- Phase 1: scale grid -----------------------------------------------------------

/// One (shards, group size) cell: aggregate + per-shard rows appended.
double run_scale_cell(const BenchParams& p, std::size_t shards, std::size_t servers,
                      std::vector<Row>& rows) {
  shard::ShardedConfig cfg;
  cfg.shards = shards;
  cfg.group = group_config(p, servers, /*model_cpu=*/true);
  shard::ShardedCluster sc(cfg);
  if (!sc.await_all_leaders(30s)) {
    std::fprintf(stderr, "FATAL: scale %zux%zu: not every shard elected a leader\n",
                 shards, servers);
    std::exit(1);
  }
  sc.sim().run_for(1s);  // settle heartbeats before measuring

  shard::ShardRouter router = sc.make_router();
  wl::MixConfig mix;
  mix.clients = p.clients;
  mix.get_ratio = 0.0;
  mix.keyspace = 1000;
  mix.value_bytes_min = 16;
  mix.value_bytes_max = 64;
  mix.duration = std::chrono::seconds(p.measure_sec);
  wl::ClosedLoopPool pool(sc, router, mix, sc.fork_rng(0xF165));
  const wl::MixResult result = pool.run();

  Row agg;
  agg.phase = "scale";
  agg.shards = shards;
  agg.servers = servers;
  agg.completed = result.completed;
  agg.failed = result.failed;
  agg.rps = result.achieved_rps;
  for (std::size_t g = 0; g < shards; ++g) agg.applied += leader_applied(sc.shard(g));
  rows.push_back(agg);

  const auto& per_shard = pool.per_shard();
  const double elapsed = static_cast<double>(p.measure_sec);
  for (std::size_t g = 0; g < shards; ++g) {
    Row r;
    r.phase = "scale";
    r.shards = shards;
    r.servers = servers;
    r.shard = static_cast<long long>(g);
    r.completed = per_shard[g].completed;
    r.failed = per_shard[g].failed;
    r.rps = elapsed > 0.0 ? static_cast<double>(per_shard[g].completed) / elapsed : 0.0;
    r.applied = leader_applied(sc.shard(g));
    rows.push_back(r);
  }
  return result.achieved_rps;
}

// ---- Phase 2: failover isolation gate ----------------------------------------------

struct FailoverRun {
  scenario::ScenarioResult result;
  /// Every replica snapshot of shards 1..k-1, shard-major then node order,
  /// taken after the run drains to quiescence.
  std::vector<std::string> other_snapshots;
};

/// The failover workload spec: pinned sessions, per-session op quotas,
/// disjoint keys — each shard's final store is a pure function of its own
/// command stream, independent of the other shards' timing.
scenario::ScenarioSpec failover_spec(const BenchParams& p, std::size_t shards,
                                     std::size_t servers) {
  scenario::ScenarioSpec spec;
  spec.name = "fig_shard";
  spec.servers = servers;
  spec.shards = shards;
  spec.seed = p.seed;
  spec.topology = scenario::TopologySpec::constant(2ms);
  wl::MixConfig mix;
  mix.clients = 2 * shards;  // two pinned sessions per shard
  mix.get_ratio = 0.0;
  mix.ops_per_client = p.ops;
  mix.duration = 300s;  // ops-mode: duration only bounds a stuck run
  mix.disjoint_keyspace = true;
  mix.pin_sessions_to_shards = true;
  spec.workload = scenario::WorkloadPlan::closed_loop(mix);
  return spec;
}

FailoverRun run_failover(const BenchParams& p, std::size_t shards, std::size_t servers,
                         bool cut_shard0_leader) {
  scenario::ScenarioSpec spec = failover_spec(p, shards, servers);
  auto sc = scenario::ScenarioRunner::materialize_sharded(spec);
  if (!sc->await_all_leaders(30s)) {
    std::fprintf(stderr, "FATAL: failover: not every shard elected a leader\n");
    std::exit(1);
  }
  if (cut_shard0_leader) {
    // Isolate shard 0's sitting leader 200 ms into measurement for 2 s —
    // the FaultPlan partition window the scenario layer schedules itself.
    const NodeId victim = sc->shard(0).current_leader();
    spec.faults = scenario::FaultPlan::partitions(
        {{.start = 200ms, .duration = 2s, .nodes = {victim}}});
  }
  FailoverRun run;
  run.result = scenario::ScenarioRunner::run_on(*sc, spec);
  sc->sim().run_for(10s);  // drain replication so every replica converges
  for (std::size_t g = 1; g < shards; ++g) {
    for (const NodeId id : sc->shard(g).server_ids()) {
      run.other_snapshots.push_back(sc->shard(g).state_machine(id).snapshot());
    }
  }
  return run;
}

// ---- Phase 3: kilo-node frontier ---------------------------------------------------

/// Mean per-trial reset_for_trial cost (µs) on a standalone network of the
/// cell's block-diagonal geometry. Each iteration first touches one in-tile
/// link per group plus one cross-group pair (a realistic partition-injection
/// footprint), so the lazy epoch path has live state to retire; the reset
/// itself is O(nodes + touched cross-pairs), never O(links) — which is what
/// the cross-cell ratio pin in main() checks.
double measure_reset_us(const BenchParams& p, std::size_t shards, std::size_t servers) {
  sim::Simulator sim;
  net::Network net(sim, Rng(p.seed));
  net.configure_groups(servers, shards);
  const std::size_t total = shards * servers;
  net.add_nodes(total);
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < p.kilo_reset_reps; ++rep) {
    for (std::size_t g = 0; g < shards; ++g) {
      net.set_blocked(static_cast<NodeId>(g * servers),
                      static_cast<NodeId>(g * servers + 1), true);
    }
    if (shards > 1) net.set_blocked(0, static_cast<NodeId>(servers), true);
    net.reset_for_trial(Rng(p.seed + rep), total);
  }
  const double wall_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  return wall_us / static_cast<double>(p.kilo_reset_reps);
}

/// One kilo cell: aggregate row with the layout/cost evidence columns.
Row run_kilo_cell(const BenchParams& p, std::size_t shards, std::size_t servers) {
  shard::ShardedConfig cfg;
  cfg.shards = shards;
  cfg.group = group_config(p, servers, /*model_cpu=*/true);
  shard::ShardedCluster sc(cfg);
  if (!sc.await_all_leaders(60s)) {
    std::fprintf(stderr, "FATAL: kilo %zux%zu: not every shard elected a leader\n",
                 shards, servers);
    std::exit(1);
  }

  Row row;
  row.phase = "kilo";
  row.shards = shards;
  row.servers = servers;
  // Memory sample point: after elections, before the pool adds client
  // endpoints — the steady tiled footprint (matches fig_scale's idle
  // sampling; client sessions add O(touched pairs) sparse entries later).
  row.link_table_bytes = static_cast<long long>(sc.network().link_table_bytes());
  row.dense_link_table_bytes =
      static_cast<long long>(net::Network::dense_link_table_bytes(sc.total_servers()));

  sc.sim().run_for(1s);  // settle heartbeats before measuring

  shard::ShardRouter router = sc.make_router();
  wl::MixConfig mix;
  mix.clients = p.clients;
  mix.get_ratio = 0.0;
  mix.keyspace = 1000;
  mix.value_bytes_min = 16;
  mix.value_bytes_max = 64;
  mix.duration = std::chrono::seconds(p.kilo_measure_sec);
  wl::ClosedLoopPool pool(sc, router, mix, sc.fork_rng(0xF165));
  const std::size_t events_before = sc.sim().executed();
  const wl::MixResult result = pool.run();
  row.events_per_sim_sec =
      static_cast<double>(sc.sim().executed() - events_before) /
      static_cast<double>(p.kilo_measure_sec);

  row.completed = result.completed;
  row.failed = result.failed;
  row.rps = result.achieved_rps;
  for (std::size_t g = 0; g < shards; ++g) row.applied += leader_applied(sc.shard(g));

  row.reset_us = measure_reset_us(p, shards, servers);
  row.peak_rss_mib = peak_rss_mib();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchParams p;
  p.shard_counts = cli.get_sizes("shards", p.shard_counts);
  p.sizes = cli.get_sizes("sizes", p.sizes);
  p.clients = static_cast<std::size_t>(cli.get_or("clients", std::int64_t{32}));
  p.measure_sec = static_cast<int>(cli.scaled(cli.get_or("measure-sec", std::int64_t{3})));
  p.round = std::chrono::microseconds(cli.get_or("round-us", std::int64_t{2000}));
  p.per_command = std::chrono::microseconds(cli.get_or("cmd-us", std::int64_t{50}));
  p.ops = static_cast<std::uint64_t>(cli.get_or("ops", std::int64_t{600}));
  p.seed = static_cast<std::uint64_t>(cli.get_or("seed", std::int64_t{42}));
  const double min_scaling = cli.get_or("min-scaling", 2.5);
  p.kilo_shard_counts = cli.get_sizes("kilo-shards", p.kilo_shard_counts);
  p.kilo_measure_sec =
      static_cast<int>(cli.scaled(cli.get_or("kilo-measure-sec", std::int64_t{2})));
  p.kilo_reset_reps =
      static_cast<std::size_t>(cli.get_or("kilo-reset-reps", std::int64_t{256}));

  metrics::banner("Sharded multi-raft: throughput vs shard count, isolation under faults");
  std::printf("%zu clients, %d sim-s per cell; round=%lldus cmd=%lldus\n\n", p.clients,
              p.measure_sec, static_cast<long long>(p.round.count() / 1000),
              static_cast<long long>(p.per_command.count() / 1000));

  std::vector<Row> rows;

  // ---- Phase 1: shards x group-size grid -----------------------------------------
  double rps_1 = 0.0;
  double rps_4 = 0.0;
  for (const std::size_t servers : p.sizes) {
    for (const std::size_t shards : p.shard_counts) {
      const double rps = run_scale_cell(p, shards, servers, rows);
      if (servers == p.sizes.front() && shards == 1) rps_1 = rps;
      if (servers == p.sizes.front() && shards == 4) rps_4 = rps;
    }
  }

  // ---- Phase 2: failover isolation gate ------------------------------------------
  const std::size_t fo_shards = 4;
  const std::size_t fo_servers = p.sizes.front();
  const FailoverRun base = run_failover(p, fo_shards, fo_servers, false);
  const FailoverRun cut = run_failover(p, fo_shards, fo_servers, true);
  if (base.other_snapshots.size() != cut.other_snapshots.size()) {
    std::fprintf(stderr, "FATAL: failover runs disagree on replica count\n");
    return 1;
  }
  bool isolated = true;
  for (std::size_t i = 0; i < base.other_snapshots.size(); ++i) {
    if (base.other_snapshots[i].empty() || base.other_snapshots[i] != cut.other_snapshots[i]) {
      isolated = false;
    }
  }
  const std::uint64_t want_ops = 2 * fo_shards * p.ops;
  for (const FailoverRun* run : {&base, &cut}) {
    const auto& mix = run->result.mix;
    if (mix.empty() || mix.front().completed + mix.front().failed != want_ops) {
      std::fprintf(stderr, "FATAL: failover workload did not run to its op quota\n");
      return 1;
    }
  }
  const bool kill_happened = cut.result.shard_stats.size() == fo_shards &&
                             cut.result.shard_stats[0].elections >= 1;

  for (const FailoverRun* run : {&base, &cut}) {
    const bool disturbed = run == &cut;
    for (const auto& s : run->result.shard_stats) {
      Row r;
      r.phase = disturbed ? "failover_cut" : "failover_base";
      r.shards = fo_shards;
      r.servers = fo_servers;
      r.shard = static_cast<long long>(s.shard);
      r.completed = s.completed;
      r.failed = s.failed;
      r.rps = s.achieved_rps;
      r.applied = s.applied;
      // Shard 0 is the kill target; the others carry the isolation verdict.
      r.undisturbed = s.shard == 0 ? -1 : (isolated ? 1 : 0);
      rows.push_back(r);
    }
  }

  // ---- Phase 3: kilo-node frontier -----------------------------------------------
  // Ascending total-node order: the last cell is the largest, so the reset
  // ratio pin below compares the grid's extremes.
  std::vector<Row> kilo_rows;
  for (const std::size_t servers : p.sizes) {
    for (const std::size_t shards : p.kilo_shard_counts) {
      kilo_rows.push_back(run_kilo_cell(p, shards, servers));
    }
  }
  rows.insert(rows.end(), kilo_rows.begin(), kilo_rows.end());

  // ---- Report --------------------------------------------------------------------
  metrics::Table table({"phase", "shards", "n/group", "shard", "req/s", "completed",
                        "failed", "applied", "undisturbed"});
  for (const Row& r : rows) {
    if (r.phase == "kilo") continue;
    table.row({r.phase, std::to_string(r.shards), std::to_string(r.servers),
               r.shard < 0 ? "all" : std::to_string(r.shard),
               metrics::Table::num(r.rps, 0), std::to_string(r.completed),
               std::to_string(r.failed), std::to_string(r.applied),
               r.undisturbed < 0 ? "-" : std::to_string(r.undisturbed)});
  }
  table.print();

  metrics::Table kilo_table({"shards", "n/group", "nodes", "req/s", "events/sim-s",
                             "link table", "dense would-be", "reset(us)", "peak RSS"});
  for (const Row& r : kilo_rows) {
    kilo_table.row({std::to_string(r.shards), std::to_string(r.servers),
                    std::to_string(r.shards * r.servers), metrics::Table::num(r.rps, 0),
                    metrics::Table::num(r.events_per_sim_sec, 0),
                    std::to_string(r.link_table_bytes) + " B",
                    std::to_string(r.dense_link_table_bytes) + " B",
                    metrics::Table::num(r.reset_us),
                    metrics::Table::num(r.peak_rss_mib) + " MiB"});
  }
  std::printf("\nkilo-node frontier (block-diagonal link table):\n");
  kilo_table.print();

  const double scaling = rps_1 > 0.0 ? rps_4 / rps_1 : 0.0;
  std::printf("\naggregate closed-loop at n=%zu: %.0f req/s (1 shard) vs %.0f req/s "
              "(4 shards) — %.1fx\n", p.sizes.front(), rps_1, rps_4, scaling);
  std::printf("failover: shard 0 leader cut %s; other shards %s\n",
              kill_happened ? "triggered an election" : "did NOT trigger an election",
              isolated ? "byte-identical to the undisturbed run" : "DIVERGED");

  bool ok = true;
  if (rps_4 > 0.0 && scaling < min_scaling) {
    std::fprintf(stderr, "FATAL: shard scaling %.2fx < required %.2fx\n", scaling,
                 min_scaling);
    ok = false;
  }
  if (!kill_happened) {
    std::fprintf(stderr, "FATAL: partition window failed to depose shard 0's leader\n");
    ok = false;
  }
  if (!isolated) {
    std::fprintf(stderr, "FATAL: a shard-leader kill perturbed another shard's "
                         "applied state — shards are not isolated\n");
    ok = false;
  }

  // Kilo pin 1 (memory): every kilo cell runs >= 8 shards, so the
  // block-diagonal table must undercut the dense formula by >= 8x (the
  // layout's k-fold claim; at the 64-shard cells the ratio is ~64x).
  for (const Row& r : kilo_rows) {
    const double ratio = r.link_table_bytes > 0
                             ? static_cast<double>(r.dense_link_table_bytes) /
                                   static_cast<double>(r.link_table_bytes)
                             : 0.0;
    if (ratio < 8.0) {
      std::fprintf(stderr,
                   "FATAL: kilo %zux%zu link table %lld B is only %.1fx under the "
                   "dense %lld B (need >= 8x)\n",
                   r.shards, r.servers, r.link_table_bytes, ratio,
                   r.dense_link_table_bytes);
      ok = false;
    }
  }
  // Kilo pin 2 (reset cost): between the grid's smallest and largest cells
  // the dense link count grows quadratically; the epoch-stamped reset must
  // grow strictly sublinearly in it — pinned at 1/8th of the dense ratio,
  // generous enough for runner noise, far below what an O(links) walk
  // (or even an O(tile-storage) walk) could satisfy.
  if (kilo_rows.size() >= 2) {
    const auto extremes = std::minmax_element(
        kilo_rows.begin(), kilo_rows.end(), [](const Row& a, const Row& b) {
          return a.shards * a.servers < b.shards * b.servers;
        });
    const Row& small = *extremes.first;
    const Row& large = *extremes.second;
    const double n_small = static_cast<double>(small.shards * small.servers);
    const double n_large = static_cast<double>(large.shards * large.servers);
    const double dense_ratio = (n_large * n_large) / (n_small * n_small);
    const double measured = small.reset_us > 0.0 ? large.reset_us / small.reset_us : 0.0;
    std::printf("\nreset cost: %.2fus at %.0f nodes -> %.2fus at %.0f nodes "
                "(%.1fx; dense link ratio %.0fx, bound %.0fx)\n",
                small.reset_us, n_small, large.reset_us, n_large, measured,
                dense_ratio, dense_ratio / 8.0);
    if (measured <= 0.0 || measured > dense_ratio / 8.0) {
      std::fprintf(stderr,
                   "FATAL: per-trial reset cost scaled %.1fx from %.0f to %.0f nodes "
                   "(bound %.1fx) — reset is not sublinear in link count\n",
                   measured, n_small, n_large, dense_ratio / 8.0);
      ok = false;
    }
  }
  if (!ok) return 1;

  if (const auto csv_path = cli.get("csv")) {
    CsvWriter csv(*csv_path,
                  {"scenario", "phase", "partition", "shards", "servers", "shard",
                   "seed", "clients", "completed", "failed", "rps", "applied",
                   "undisturbed", "link_table_bytes", "dense_link_table_bytes",
                   "events_per_sim_sec", "reset_us", "peak_rss_mib"});
    for (const Row& r : rows) {
      const std::size_t clients =
          r.phase == "scale" || r.phase == "kilo" ? p.clients : 2 * fo_shards;
      csv.row({"fig_shard", r.phase, "hash", std::to_string(r.shards),
               std::to_string(r.servers), std::to_string(r.shard),
               std::to_string(p.seed), std::to_string(clients),
               std::to_string(r.completed), std::to_string(r.failed),
               CsvWriter::cell(r.rps), std::to_string(r.applied),
               std::to_string(r.undisturbed), std::to_string(r.link_table_bytes),
               std::to_string(r.dense_link_table_bytes),
               CsvWriter::cell(r.events_per_sim_sec), CsvWriter::cell(r.reset_us),
               CsvWriter::cell(r.peak_rss_mib)});
    }
    std::printf("wrote %s\n", csv_path->c_str());
  }
  return 0;
}
