// Policy-comparison grid: the roadmap's BALLAST/SEER-style study as one
// command. Many tuning policies x many network conditions x paired seeds,
// each cell a short failover trial, all dispatched through the reused-
// substrate sweep path and streamed straight into the CSV sink (bounded
// memory regardless of grid size).
//
// The policy axis mixes the paper's built-in variants with a custom policy:
// a config_factory whose config carries its own name, so that name is what
// appears in the variant column of the table and the CSV. It runs as a
// second sweep into the same sink, right after the built-in variants.
//
// A shards axis rides on top (--shards=1,4 by default): at each shard count
// above 1 the grid re-runs Dynatune vs static Raft with k consensus groups
// multiplexed onto one shared network (spec.shards), asking whether the
// tuning verdict survives multi-group link contention. Sharded cells carry
// a "-s<k>" suffix in the scenario column; the kill lands on shard 0.
//
// Default grid: (4 policies x 1 shard + 2 policies x 4 shards) x 4
// conditions x 100 seeds = 2400 trials, one leader kill each. Usage:
//   fig_policy_grid [--seeds=N] [--servers=N] [--shards=1,4] [--threads=T]
//                   [--csv=FILE]
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "scenario/runner.hpp"
#include "scenario/sink.hpp"

namespace {

using namespace dyna;
using namespace std::chrono_literals;

/// One network condition column of the grid.
struct Condition {
  std::string name;
  scenario::TopologySpec topology;
};

std::vector<Condition> conditions() {
  std::vector<Condition> out;
  out.push_back({"lan", scenario::TopologySpec::constant(10ms, 1ms)});
  out.push_back({"wan", scenario::TopologySpec::constant(100ms, 2ms)});
  out.push_back({"jittery", scenario::TopologySpec::constant(100ms, 20ms)});
  out.push_back({"lossy", scenario::TopologySpec::constant(100ms, 2ms, 0.05)});
  return out;
}

/// A custom policy under its own name: Dynatune with a paranoid safety
/// factor (Et = mu + 4*sigma) — the kind of one-line variant a comparison
/// study wants to drop into the grid without forking the harness.
cluster::ClusterConfig dynatune_s4(std::size_t servers, std::uint64_t seed) {
  dt::DynatuneConfig dt;
  dt.safety_factor = 4.0;
  cluster::ClusterConfig cfg = cluster::make_dynatune_config(servers, seed, dt);
  cfg.name = "Dynatune-s4";
  return cfg;
}

/// Streaming tee: forwards every trial to the CSV sink (when given) while
/// folding each cell's seed block into one aggregate row for the console
/// table. Holds one cell's worth of state, never the whole sweep — pairs
/// with ScenarioRunner's streaming run_sweep for bounded-memory grids.
class GridSink final : public scenario::ResultSink {
 public:
  GridSink(scenario::ResultSink* csv, std::size_t seeds_per_cell, scenario::TableSink& table)
      : csv_(csv), seeds_(seeds_per_cell), table_(&table) {}

  void consume(const scenario::ScenarioResult& r) override {
    if (csv_ != nullptr) csv_->consume(r);
    if (count_ == 0) {
      cell_ = r;
      cell_.seed = 0;  // aggregate row: individual seeds live in the CSV
    } else {
      cell_.failovers.insert(cell_.failovers.end(), r.failovers.begin(), r.failovers.end());
      cell_.elections += r.elections;
      cell_.timer_expiries += r.timer_expiries;
    }
    if (++count_ == seeds_) {
      table_->consume(cell_);
      cell_ = {};
      count_ = 0;
    }
  }

 private:
  scenario::ResultSink* csv_;
  std::size_t seeds_;
  scenario::TableSink* table_;
  scenario::ScenarioResult cell_;
  std::size_t count_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto seeds = static_cast<std::size_t>(cli.scaled(cli.get_or("seeds", std::int64_t{100})));
  const auto servers = static_cast<std::size_t>(cli.get_or("servers", std::int64_t{5}));
  const auto threads = static_cast<unsigned>(cli.get_or("threads", std::int64_t{0}));
  const auto shard_counts = cli.get_sizes("shards", {1, 4});

  metrics::banner("Policy grid: tuning policies x network conditions, seed-paired");

  scenario::SweepSpec sweep;
  sweep.base.servers = servers;
  sweep.base.faults = scenario::FaultPlan::leader_kills(1, /*settle=*/5s);
  sweep.seeds = seeds;
  sweep.master_seed = 7;
  sweep.threads = threads;

  // One CSV across the whole grid, streamed trial by trial: the scenario
  // column carries the condition name (with a -s<k> suffix when sharded).
  std::unique_ptr<scenario::CsvSink> csv;
  if (const auto csv_path = cli.get("csv")) {
    csv = std::make_unique<scenario::CsvSink>(*csv_path, scenario::CsvSection::Failover);
  }

  scenario::TableSink table;
  std::size_t trials = 0;
  for (const std::size_t shards : shard_counts) {
    sweep.base.shards = shards;
    for (const Condition& cond : conditions()) {
      sweep.base.name = shards == 1 ? cond.name
                                    : cond.name + "-s" + std::to_string(shards);
      sweep.base.topology = cond.topology;
      // One streaming pass per (shards, condition): every trial goes
      // straight to the CSV and into the per-cell aggregate — memory stays
      // bounded at any grid size (results arrive in enumeration order,
      // cell-major).
      GridSink sink(csv.get(), seeds, table);
      if (shards == 1) {
        // The classic grid: every policy, single group. The custom policy
        // is a second sweep into the same sink, so its cell comes last.
        sweep.variants = {scenario::Variant::Raft, scenario::Variant::Dynatune,
                          scenario::Variant::FixK};
        scenario::ScenarioRunner::run_sweep(sweep, sink);
        scenario::SweepSpec custom = sweep;
        custom.variants = {};
        custom.base.config_factory = dynatune_s4;
        scenario::ScenarioRunner::run_sweep(custom, sink);
        trials += (sweep.variants.size() + 1) * seeds;
      } else {
        // Sharded columns: the headline Dynatune-vs-static question, k groups
        // contending on one shared network. servers stays the per-group size.
        sweep.variants = {scenario::Variant::Raft, scenario::Variant::Dynatune};
        scenario::ScenarioRunner::run_sweep(sweep, sink);
        trials += sweep.variants.size() * seeds;
      }
    }
  }
  table.print();
  std::printf("\n%zu trials; one row per (shards, condition, policy) cell; detect/OTS "
              "are means over %zu seed-paired kills\n", trials, seeds);
  if (const auto csv_path = cli.get("csv")) std::printf("wrote %s\n", csv_path->c_str());
  return 0;
}
