// Group-commit characterization: peak closed-loop throughput and tail
// latency across batching on/off, batch-size caps and GET ratio.
//
// Two phases, one process:
//
//   equiv — the safety gate for everything else. The same ops-bound,
//           disjoint-keyspace closed-loop script runs once with batching off
//           and once with batching on (same seed); the leader's state
//           machine snapshot must be byte-identical across modes and every
//           command must complete. The bench aborts on any divergence —
//           a throughput number from a batching path that corrupts state
//           is not a result.
//
//   grid  — saturation study under the batch-aware CPU model (a commit
//           round costs --round-us once plus --cmd-us per coalesced
//           command): `--clients` zero-think closed-loop sessions, modes
//           off / on x caps {4, 16, 64} x GET ratio {0, 0.9}, ReadIndex on
//           throughout so GETs never enter the log in either mode. With
//           batching off every command pays the full round cost, pinning
//           throughput near 1/(R+C); with batching on concurrent sessions
//           coalesce, amortizing R across the cap.
//
// The headline pin: at the default cap, batching on must beat batching off
// by >= --min-speedup (3x) in pure-PUT achieved throughput, or the bench
// aborts. All emitted columns are simulated-time metrics — deterministic
// per seed, so the committed reference CSV sits in the strict band of
// tools/check_bench_csv.py.
//
// Usage: fig_batching [--servers=5] [--clients=64] [--measure-sec=5]
//                     [--round-us=2000] [--cmd-us=50] [--equiv-ops=50]
//                     [--min-speedup=3.0] [--seed=42] [--csv=FILE]
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "metrics/report.hpp"
#include "workload/closed_loop.hpp"

namespace {

using namespace dyna;
using namespace std::chrono_literals;

struct BenchParams {
  std::size_t servers = 5;
  std::size_t clients = 64;
  int measure_sec = 5;
  Duration round{};
  Duration per_command{};
  std::uint64_t equiv_ops = 50;
  std::uint64_t seed = 42;
};

struct Row {
  std::string phase;  ///< "equiv" | "grid"
  std::string mode;   ///< "off" | "on"
  std::size_t max_cmds = 0;
  double get_ratio = 0.0;
  wl::MixResult mix;
  std::uint64_t batches = 0;       ///< multi-command frames the leader sealed
  std::uint64_t batched_cmds = 0;  ///< commands those frames carried
  std::uint64_t rounds = 0;        ///< grouped CPU rounds the leader served
  std::uint64_t reads = 0;         ///< GETs answered via ReadIndex
};

cluster::ClusterConfig make_config(const BenchParams& p, bool group_commit,
                                   std::size_t max_cmds, bool model_cpu) {
  cluster::ClusterConfig cfg = cluster::make_raft_config(p.servers, p.seed);
  net::LinkCondition link;
  link.rtt = 2ms;
  cfg.links = net::ConditionSchedule::constant(link);
  cfg.raft.group_commit = group_commit;
  cfg.raft.max_batch_commands = max_cmds;
  cfg.raft.read_index = true;
  if (model_cpu) {
    cfg.round_service_time = p.round;
    cfg.command_service_time = p.per_command;
  }
  return cfg;
}

/// Run one closed-loop measurement on a fresh cluster; fills the leader-side
/// counters and (optionally) the leader's state-machine snapshot.
Row run_cell(const BenchParams& p, const std::string& phase, bool group_commit,
             std::size_t max_cmds, wl::MixConfig mix, bool model_cpu,
             std::string* snapshot_out = nullptr) {
  cluster::Cluster c(make_config(p, group_commit, max_cmds, model_cpu));
  if (!c.await_leader(30s)) {
    std::fprintf(stderr, "FATAL: %s/%s cluster elected no leader\n", phase.c_str(),
                 group_commit ? "on" : "off");
    std::exit(1);
  }
  c.sim().run_for(1s);  // settle heartbeats before measuring

  Row row;
  row.phase = phase;
  row.mode = group_commit ? "on" : "off";
  row.max_cmds = max_cmds;
  row.get_ratio = mix.get_ratio;

  shard::ShardRouter router(1);
  wl::ClosedLoopPool pool(c, router, mix, c.fork_rng(0xF16B));
  row.mix = pool.run();
  c.sim().run_for(2s);  // drain replication so follower state converges

  const NodeId leader = c.current_leader();
  if (leader == kNoNode) {
    std::fprintf(stderr, "FATAL: %s/%s lost its leader mid-measurement\n", phase.c_str(),
                 row.mode.c_str());
    std::exit(1);
  }
  raft::RaftNode& ln = c.node(leader);
  row.batches = ln.batches_sealed();
  row.batched_cmds = ln.batched_commands();
  row.rounds = c.service_queue(leader).rounds_served();
  row.reads = ln.reads_served();
  if (snapshot_out != nullptr) *snapshot_out = c.state_machine(leader).snapshot();

  if (row.mix.failed != 0) {
    std::fprintf(stderr, "FATAL: %s/%s completed with %llu failed commands\n",
                 phase.c_str(), row.mode.c_str(),
                 static_cast<unsigned long long>(row.mix.failed));
    std::exit(1);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchParams p;
  p.servers = static_cast<std::size_t>(cli.get_or("servers", std::int64_t{5}));
  p.clients = static_cast<std::size_t>(cli.get_or("clients", std::int64_t{64}));
  p.measure_sec = static_cast<int>(cli.scaled(cli.get_or("measure-sec", std::int64_t{5})));
  p.round = std::chrono::microseconds(cli.get_or("round-us", std::int64_t{2000}));
  p.per_command = std::chrono::microseconds(cli.get_or("cmd-us", std::int64_t{50}));
  p.equiv_ops = static_cast<std::uint64_t>(cli.get_or("equiv-ops", std::int64_t{50}));
  p.seed = static_cast<std::uint64_t>(cli.get_or("seed", std::int64_t{42}));
  const double min_speedup = cli.get_or("min-speedup", 3.0);

  metrics::banner("Group commit: batched vs unbatched closed-loop saturation");
  std::printf("n=%zu, %zu clients, %d sim-s per cell; round=%lldus cmd=%lldus\n\n",
              p.servers, p.clients, p.measure_sec,
              static_cast<long long>(p.round.count() / 1000),
              static_cast<long long>(p.per_command.count() / 1000));

  std::vector<Row> rows;

  // ---- Phase 1: equivalence gate -------------------------------------------------
  // No CPU model here: the phase pins consensus-level state equivalence, so
  // both modes run the identical ops-bound script as fast as the protocol
  // alone allows.
  {
    wl::MixConfig mix;
    mix.clients = 16;
    mix.get_ratio = 0.0;
    mix.keyspace = 100;
    mix.value_bytes_min = 8;
    mix.value_bytes_max = 128;
    mix.ops_per_client = p.equiv_ops;
    mix.duration = 300s;  // stuck-run cap only (ops-bound)
    mix.disjoint_keyspace = true;

    std::string state_off;
    std::string state_on;
    rows.push_back(run_cell(p, "equiv", false, 64, mix, /*model_cpu=*/false, &state_off));
    rows.push_back(run_cell(p, "equiv", true, 64, mix, /*model_cpu=*/false, &state_on));
    const std::uint64_t want = 16 * p.equiv_ops;
    if (rows[0].mix.completed != want || rows[1].mix.completed != want) {
      std::fprintf(stderr, "FATAL: equivalence phase incomplete (%llu / %llu of %llu)\n",
                   static_cast<unsigned long long>(rows[0].mix.completed),
                   static_cast<unsigned long long>(rows[1].mix.completed),
                   static_cast<unsigned long long>(want));
      return 1;
    }
    if (state_off != state_on) {
      std::fprintf(stderr,
                   "FATAL: committed state diverged between batching off and on — "
                   "group commit is not equivalence-preserving\n");
      return 1;
    }
    std::printf("equiv: %llu commands per mode, states byte-identical "
                "(%llu frames carried %llu commands)\n\n",
                static_cast<unsigned long long>(want),
                static_cast<unsigned long long>(rows[1].batches),
                static_cast<unsigned long long>(rows[1].batched_cmds));
  }

  // ---- Phase 2: saturation grid --------------------------------------------------
  {
    wl::MixConfig mix;
    mix.clients = p.clients;
    mix.keyspace = 1000;
    mix.value_bytes_min = 16;
    mix.value_bytes_max = 128;
    mix.duration = std::chrono::seconds(p.measure_sec);

    for (const double get_ratio : {0.0, 0.9}) {
      mix.get_ratio = get_ratio;
      rows.push_back(run_cell(p, "grid", false, 1, mix, /*model_cpu=*/true));
      for (const std::size_t cap : {std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
        rows.push_back(run_cell(p, "grid", true, cap, mix, /*model_cpu=*/true));
      }
    }
  }

  metrics::Table table({"phase", "mode", "cap", "get%", "req/s", "mean(ms)", "p99(ms)",
                        "completed", "batches", "rounds", "reads"});
  for (const Row& r : rows) {
    table.row({r.phase, r.mode, std::to_string(r.max_cmds),
               metrics::Table::num(r.get_ratio * 100.0, 0),
               metrics::Table::num(r.mix.achieved_rps, 0),
               metrics::Table::num(r.mix.mean_latency_ms),
               metrics::Table::num(r.mix.p99_latency_ms), std::to_string(r.mix.completed),
               std::to_string(r.batches), std::to_string(r.rounds),
               std::to_string(r.reads)});
  }
  table.print();

  // The acceptance pin: pure-PUT saturation at the default cap. rows[2] is
  // the first grid row (off, get_ratio 0); the cap-64 on-row sits 3 later.
  const double off_peak = rows[2].mix.achieved_rps;
  const double on_peak = rows[5].mix.achieved_rps;
  const double speedup = off_peak > 0.0 ? on_peak / off_peak : 0.0;
  std::printf("\npure-PUT peak: %.0f req/s (off) vs %.0f req/s (on, cap 64) — %.1fx\n",
              off_peak, on_peak, speedup);
  if (speedup < min_speedup) {
    std::fprintf(stderr, "FATAL: group-commit speedup %.2fx < required %.2fx\n", speedup,
                 min_speedup);
    return 1;
  }

  if (const auto csv_path = cli.get("csv")) {
    CsvWriter csv(*csv_path,
                  {"scenario", "phase", "mode", "max_cmds", "get_ratio", "clients",
                   "servers", "seed", "achieved_rps", "get_rps", "put_rps",
                   "mean_latency_ms", "p99_latency_ms", "completed", "failed", "gets",
                   "puts", "batches", "batched_cmds", "rounds", "reads"});
    for (const Row& r : rows) {
      const std::size_t clients = r.phase == "equiv" ? 16 : p.clients;
      csv.row({"fig_batching", r.phase, r.mode, std::to_string(r.max_cmds),
               CsvWriter::cell(r.get_ratio), std::to_string(clients),
               std::to_string(p.servers), std::to_string(p.seed),
               CsvWriter::cell(r.mix.achieved_rps), CsvWriter::cell(r.mix.get_rps),
               CsvWriter::cell(r.mix.put_rps), CsvWriter::cell(r.mix.mean_latency_ms),
               CsvWriter::cell(r.mix.p99_latency_ms), std::to_string(r.mix.completed),
               std::to_string(r.mix.failed), std::to_string(r.mix.gets),
               std::to_string(r.mix.puts), std::to_string(r.batches),
               std::to_string(r.batched_cmds), std::to_string(r.rounds),
               std::to_string(r.reads)});
    }
    std::printf("wrote %s\n", csv_path->c_str());
  }
  return 0;
}
