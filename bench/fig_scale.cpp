// Large-cluster scaling study: election latency, steady-state simulation
// throughput and the n*n link-table memory curve at n in {5, 15, 33, 65},
// for baseline Raft and Dynatune.
//
// The paper evaluates at n=3-5; this bench characterizes how far the
// shared-log replication path and the dense O(n) leader fan-out carry the
// harness past that. Two measurement classes per (variant, n) cell:
//
//   * deterministic (pure functions of the seed): election latency of the
//     initial election, detection/OTS means over a short leader-kill sweep,
//     and executed simulation events per steady idle cluster-second;
//   * machine-dependent: wall-clock simulation throughput (cluster-seconds
//     simulated per wall second) and the process peak RSS (VmHWM) — the
//     CI gate compares these only under a matching --runner-class (see
//     tools/check_bench_csv.py), since absolute numbers move across hosts.
//
// The link-table column is exact: the one n*n tile of per-directed-link
// state the network keeps (bench/reference/fig_scale.csv pins the whole table).
//
// Usage: fig_scale [--sizes=5,15,33,65] [--kills=N] [--steady-sec=S]
//                  [--seed=S] [--threads=T] [--csv=FILE]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "scenario/runner.hpp"
#include "scenario/sink.hpp"

namespace {

using namespace dyna;
using namespace std::chrono_literals;

/// Peak resident set size of this process in MiB (Linux VmHWM), or -1 where
/// /proc is unavailable. Monotone over the process lifetime — the bench runs
/// sizes ascending, so each row reports the high-water mark through its own
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

struct ScaleRow {
  std::string variant;
  std::size_t servers = 0;
  double elect_ms = 0.0;            ///< start -> first leader (simulated)
  double detect_ms = 0.0;           ///< mean over the kill sweep
  double ots_ms = 0.0;              ///< mean over the kill sweep
  double events_per_sim_sec = 0.0;  ///< executed events per steady idle second
  double sim_sec_per_wall_sec = 0.0;
  double link_table_bytes = 0.0;
  double peak_rss_mib = 0.0;
};

ScaleRow measure_cell(scenario::Variant variant, std::size_t n, std::size_t kills,
                      Duration steady, std::uint64_t seed) {
  ScaleRow row;
  row.servers = n;

  scenario::ScenarioSpec spec;
  spec.name = "fig_scale";
  spec.variant = variant;
  spec.servers = n;
  spec.seed = seed;
  spec.topology = scenario::TopologySpec::constant(100ms);
  spec.faults = scenario::FaultPlan::leader_kills(kills, /*settle=*/5s);

  // ---- Deterministic election metrics through the scenario runner ----
  {
    auto c = scenario::ScenarioRunner::materialize(spec);
    const bool elected = c->await_leader(60s);
    row.elect_ms = elected ? to_ms(c->sim().now()) : -1.0;
  }
  const scenario::ScenarioResult result = scenario::ScenarioRunner::run(spec);
  row.variant = result.variant;
  const scenario::FailoverStats stats = scenario::summarize_failovers(result.failovers);
  row.detect_ms = stats.detection.mean;
  row.ots_ms = stats.ots.mean;

  // ---- Steady-state throughput: time an idle stretch of simulation ----
  // Three back-to-back windows; the wall-clock column takes the median so
  // the CI timing band gates on something a cache hiccup cannot move 2x.
  // The event rate spans all windows (it is deterministic either way).
  {
    auto c = scenario::ScenarioRunner::materialize(spec);
    c->await_leader(60s);
    c->sim().run_for(2s);  // settle heartbeat cadence
    constexpr int kWindows = 3;
    const std::size_t events_before = c->sim().executed();
    double window_sec[kWindows];
    for (double& w : window_sec) {
      const auto wall_start = std::chrono::steady_clock::now();
      c->sim().run_for(steady);
      w = std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    }
    std::sort(window_sec, window_sec + kWindows);
    const double wall = window_sec[kWindows / 2];
    row.events_per_sim_sec = static_cast<double>(c->sim().executed() - events_before) /
                             (kWindows * to_sec(steady));
    row.sim_sec_per_wall_sec = wall > 0.0 ? to_sec(steady) / wall : -1.0;
    row.link_table_bytes = static_cast<double>(c->network().link_table_bytes());
  }
  row.peak_rss_mib = peak_rss_mib();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto sizes = cli.get_sizes("sizes", {5, 15, 33, 65});
  const auto kills = static_cast<std::size_t>(cli.scaled(cli.get_or("kills", std::int64_t{3})));
  const auto steady_sec = cli.get_or("steady-sec", std::int64_t{5});
  const auto seed = static_cast<std::uint64_t>(cli.get_or("seed", std::int64_t{1}));

  metrics::banner("Scaling study: election latency, sim throughput, link-table memory");
  std::printf("sizes:");
  for (const std::size_t n : sizes) std::printf(" %zu", n);
  std::printf("; kills per cell: %zu; steady window: %llds\n\n", kills,
              static_cast<long long>(steady_sec));

  metrics::Table table({"variant", "n", "elect(ms)", "detect(ms)", "OTS(ms)", "events/sim-s",
                        "sim-s/wall-s", "link table", "peak RSS"});
  std::vector<ScaleRow> rows;
  for (const scenario::Variant variant :
       {scenario::Variant::Raft, scenario::Variant::Dynatune}) {
    for (const std::size_t n : sizes) {
      ScaleRow row = measure_cell(variant, n, kills, std::chrono::seconds(steady_sec), seed);
      table.row({row.variant, std::to_string(row.servers), metrics::Table::num(row.elect_ms),
                 metrics::Table::num(row.detect_ms), metrics::Table::num(row.ots_ms),
                 metrics::Table::num(row.events_per_sim_sec),
                 metrics::Table::num(row.sim_sec_per_wall_sec),
                 std::to_string(static_cast<std::size_t>(row.link_table_bytes)) + " B",
                 metrics::Table::num(row.peak_rss_mib) + " MiB"});
      rows.push_back(std::move(row));
    }
  }
  table.print();
  std::printf("\nlink table = one n*n tile of per-directed-link state; RSS = process VmHWM\n");

  if (const auto csv_path = cli.get("csv")) {
    CsvWriter csv(*csv_path,
                  {"scenario", "variant", "servers", "seed", "elect_ms", "detect_ms", "ots_ms",
                   "events_per_sim_sec", "sim_sec_per_wall_sec", "link_table_bytes",
                   "peak_rss_mib"});
    for (const ScaleRow& r : rows) {
      csv.row({"fig_scale", r.variant, std::to_string(r.servers), std::to_string(seed),
               CsvWriter::cell(r.elect_ms), CsvWriter::cell(r.detect_ms),
               CsvWriter::cell(r.ots_ms), CsvWriter::cell(r.events_per_sim_sec),
               CsvWriter::cell(r.sim_sec_per_wall_sec), CsvWriter::cell(r.link_table_bytes),
               CsvWriter::cell(r.peak_rss_mib)});
    }
    std::printf("wrote %s\n", csv_path->c_str());
  }
  return 0;
}
