// Fault-zoo robustness figure: every fault class the scenario layer can
// throw — leader crash/restart kills, asymmetric partitions, rolling
// restarts, probabilistic crash points, membership churn — crossed over
// {Raft, Dynatune} with seed-paired trials and the safety invariant checker
// on everywhere.
//
// Self-pinning twice over, the bench aborts (exit 1) if:
//   * any trial of any cell records an invariant violation — safety under
//     faults is the whole claim; or
//   * unavailability is unbounded — a cell ends a trial without a leader,
//     a cell's closed-loop workload completes zero ops, or the kill cell's
//     mean OTS unavailability exceeds 10 simulated seconds.
//
// All counter columns are deterministic (pure functions of the seeds);
// detect_ms/ots_ms are deterministic floats (kill cells only, -1 elsewhere).
// bench/reference/fig_faults.csv pins the whole table in CI.
//
// Usage: fig_faults [--seeds=N] [--servers=N] [--threads=T] [--csv=FILE]
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "metrics/report.hpp"
#include "scenario/runner.hpp"
#include "scenario/sink.hpp"

namespace {

using namespace dyna;
using namespace std::chrono_literals;

/// One fault class of the zoo. Node ids are logical (0-based within the
/// group); all plans validate against the 5-server default and any larger.
struct FaultClass {
  std::string name;
  scenario::FaultPlan plan;
};

std::vector<FaultClass> fault_zoo() {
  std::vector<FaultClass> out;

  out.push_back({"kills", scenario::FaultPlan::crash_restart_kills(2, /*settle=*/5s)});

  {
    scenario::FaultPlan::DirectedPartitionWindow in;
    in.start = 1s;
    in.duration = 2s;
    in.nodes = {1};
    in.block_inbound = true;
    in.block_outbound = false;
    scenario::FaultPlan::DirectedPartitionWindow out_only;
    out_only.start = 4s;
    out_only.duration = 2s;
    out_only.nodes = {2};
    out_only.block_inbound = false;
    out_only.block_outbound = true;
    out.push_back({"asym", scenario::FaultPlan::asymmetric_partitions({in, out_only})});
  }

  out.push_back({"rolling", scenario::FaultPlan::rolling_restart(/*rounds=*/1,
                                                                 /*stagger=*/2s,
                                                                 /*down_time=*/800ms)});

  {
    fault::InjectorConfig inj;
    inj.mode = fault::Mode::UniformOverRun;
    inj.uniform_max = 500;
    inj.restart_delay = 500ms;
    out.push_back({"crashpoints", scenario::FaultPlan::probabilistic_crashes(inj)});
  }

  out.push_back({"churn", scenario::FaultPlan::membership_churn(/*rounds=*/1,
                                                                /*settle=*/1s)});
  return out;
}

/// One (fault class, variant) cell aggregated over its seed block.
struct FaultRow {
  std::string fault;
  std::string variant;
  std::size_t servers = 0;
  std::size_t seeds = 0;
  std::size_t elected = 0;        ///< trials ending with a live leader
  std::uint64_t violations = 0;   ///< invariant-checker count, summed
  std::uint64_t firings = 0;      ///< crash-point firings, summed
  std::size_t churn_rounds = 0;   ///< membership rounds completed, summed
  std::size_t elections = 0;
  std::size_t expiries = 0;
  std::uint64_t completed = 0;    ///< workload ops answered, summed
  std::uint64_t failed = 0;
  double detect_ms = -1.0;        ///< kill cells: mean detection latency
  double ots_ms = -1.0;           ///< kill cells: mean leaderless window
};

FaultRow measure_cell(const FaultClass& fc, scenario::Variant variant, std::size_t servers,
                      std::size_t seeds, unsigned threads) {
  scenario::SweepSpec sweep;
  sweep.base.name = "fig_faults-" + fc.name;
  sweep.base.variant = variant;
  sweep.base.servers = servers;
  sweep.base.warmup = 2s;
  sweep.base.faults = fc.plan;
  wl::MixConfig mix;
  mix.clients = 2;
  mix.duration = 5s;
  sweep.base.workload = scenario::WorkloadPlan::closed_loop(mix);
  sweep.variants = {variant};
  sweep.seeds = seeds;
  sweep.master_seed = 99;
  sweep.threads = threads;

  FaultRow row;
  row.fault = fc.name;
  row.servers = servers;
  row.seeds = seeds;

  std::vector<scenario::FailoverSample> failovers;
  for (const scenario::ScenarioResult& r : scenario::ScenarioRunner::run_sweep(sweep)) {
    row.variant = r.variant;
    row.elected += r.leader_elected ? 1 : 0;
    row.violations += r.invariant_violations;
    row.firings += r.crash_firings;
    row.churn_rounds += r.membership_rounds;
    row.elections += r.elections;
    row.expiries += r.timer_expiries;
    for (const wl::MixResult& m : r.mix) {
      row.completed += m.completed;
      row.failed += m.failed;
    }
    failovers.insert(failovers.end(), r.failovers.begin(), r.failovers.end());
  }
  if (!failovers.empty()) {
    const scenario::FailoverStats stats = scenario::summarize_failovers(failovers);
    row.detect_ms = stats.detection.mean;
    row.ots_ms = stats.ots.mean;
  }
  return row;
}

/// The self-pins: zero violations everywhere, bounded unavailability.
bool pins_hold(const FaultRow& row) {
  bool ok = true;
  if (row.violations != 0) {
    std::fprintf(stderr, "PIN FAILED: %s/%s recorded %llu invariant violation(s)\n",
                 row.fault.c_str(), row.variant.c_str(),
                 static_cast<unsigned long long>(row.violations));
    ok = false;
  }
  if (row.elected != row.seeds) {
    std::fprintf(stderr, "PIN FAILED: %s/%s ended %zu/%zu trials without a leader\n",
                 row.fault.c_str(), row.variant.c_str(), row.seeds - row.elected, row.seeds);
    ok = false;
  }
  if (row.completed == 0) {
    std::fprintf(stderr, "PIN FAILED: %s/%s completed zero workload ops across the cell\n",
                 row.fault.c_str(), row.variant.c_str());
    ok = false;
  }
  if (row.ots_ms > 10'000.0) {
    std::fprintf(stderr, "PIN FAILED: %s/%s mean leaderless window %.0f ms exceeds 10 s\n",
                 row.fault.c_str(), row.variant.c_str(), row.ots_ms);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto seeds = static_cast<std::size_t>(cli.scaled(cli.get_or("seeds", std::int64_t{20})));
  const auto servers = static_cast<std::size_t>(cli.get_or("servers", std::int64_t{5}));
  const auto threads = static_cast<unsigned>(cli.get_or("threads", std::int64_t{0}));

  metrics::banner("Fault zoo: every fault class x {Raft, Dynatune}, invariants always on");
  std::printf("servers: %zu; seeds per cell: %zu\n\n", servers, seeds);

  metrics::Table table({"fault", "variant", "elected", "violations", "firings", "churn",
                        "elections", "ops", "detect(ms)", "OTS(ms)"});
  std::vector<FaultRow> rows;
  bool all_pins_hold = true;
  for (const FaultClass& fc : fault_zoo()) {
    fc.plan.validate(servers);
    for (const scenario::Variant variant :
         {scenario::Variant::Raft, scenario::Variant::Dynatune}) {
      FaultRow row = measure_cell(fc, variant, servers, seeds, threads);
      all_pins_hold = pins_hold(row) && all_pins_hold;
      table.row({row.fault, row.variant,
                 std::to_string(row.elected) + "/" + std::to_string(row.seeds),
                 std::to_string(row.violations), std::to_string(row.firings),
                 std::to_string(row.churn_rounds), std::to_string(row.elections),
                 std::to_string(row.completed), metrics::Table::num(row.detect_ms),
                 metrics::Table::num(row.ots_ms)});
      rows.push_back(std::move(row));
    }
  }
  table.print();
  std::printf("\npins: zero invariant violations, every trial re-elects, every cell "
              "makes progress, kill-cell mean OTS <= 10 s\n");

  if (const auto csv_path = cli.get("csv")) {
    CsvWriter csv(*csv_path,
                  {"scenario", "variant", "servers", "seed", "fault", "seeds", "elected",
                   "violations", "firings", "churn_rounds", "elections", "expiries",
                   "completed", "failed", "detect_ms", "ots_ms"});
    for (const FaultRow& r : rows) {
      csv.row({"fig_faults", r.variant, std::to_string(r.servers), "99", r.fault,
               std::to_string(r.seeds), std::to_string(r.elected),
               std::to_string(r.violations), std::to_string(r.firings),
               std::to_string(r.churn_rounds), std::to_string(r.elections),
               std::to_string(r.expiries), std::to_string(r.completed),
               std::to_string(r.failed), CsvWriter::cell(r.detect_ms),
               CsvWriter::cell(r.ots_ms)});
    }
    std::printf("wrote %s\n", csv_path->c_str());
  }
  return all_pins_hold ? 0 : 1;
}
