// ResultSink: structured emitters for ScenarioResults.
//
// One result model, three presentation forms:
//   * TableSink — aligned console summary, one row per result;
//   * CsvSink   — the shared CSV path of the figure benches that emit a
//     result series. One schema per sample series (failover / samples /
//     levels), each prefixed with the spec identity columns (scenario,
//     variant, servers, seed) so a single file can hold a whole sweep.
//     Benches with their own schemas write through CsvWriter directly.
// print_failover_cdfs() is the Fig 4/8 console CDF presentation.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "metrics/cdf.hpp"
#include "metrics/report.hpp"
#include "scenario/result.hpp"

namespace dyna::scenario {

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void consume(const ScenarioResult& result) = 0;

  void consume_all(const std::vector<ScenarioResult>& results) {
    for (const auto& r : results) consume(r);
  }
};

// ---- CSV ------------------------------------------------------------------------

/// Which sample series of a result a CsvSink emits.
enum class CsvSection { Failover, Samples, Levels };

[[nodiscard]] std::vector<std::string> csv_header(CsvSection section);

class CsvSink final : public ResultSink {
 public:
  CsvSink(const std::string& path, CsvSection section)
      : csv_(path, csv_header(section)), section_(section) {}

  void consume(const ScenarioResult& result) override;

 private:
  CsvWriter csv_;
  CsvSection section_;
};

// ---- Console --------------------------------------------------------------------

/// One summary row per result: identity, failover means, counters, peak
/// throughput. Rows accumulate; print() renders the aligned table.
class TableSink final : public ResultSink {
 public:
  void consume(const ScenarioResult& result) override;

  void print(std::FILE* out = stdout) const { table_.print(out); }

 private:
  metrics::Table table_{{"scenario", "variant", "n", "seed", "kills ok", "detect(ms)",
                         "OTS(ms)", "elections", "expiries", "OTS(s)", "peak(req/s)"}};
};

/// Compact detection/OTS CDFs for a labeled failover series (Fig 4/8).
void print_failover_cdfs(const std::string& label, const std::vector<FailoverSample>& samples);

}  // namespace dyna::scenario
