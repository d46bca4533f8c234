#include "scenario/sink.hpp"

#include "workload/open_loop.hpp"

namespace dyna::scenario {

namespace {

std::vector<std::string> identity_cells(const ScenarioResult& r) {
  return {r.scenario, r.variant, std::to_string(r.servers), std::to_string(r.seed)};
}

void append(std::vector<std::string>& row, std::vector<std::string> tail) {
  for (auto& c : tail) row.push_back(std::move(c));
}

}  // namespace

std::vector<std::string> csv_header(CsvSection section) {
  std::vector<std::string> h{"scenario", "variant", "servers", "seed"};
  switch (section) {
    case CsvSection::Failover:
      append(h, {"kill", "detection_ms", "ots_ms", "election_ms", "mean_randomized_ms", "ok"});
      break;
    case CsvSection::Samples:
      append(h, {"t_sec", "rtt_ms", "loss_pct", "randomized_kth_ms", "et_median_ms",
                 "h_mean_ms", "hb_per_sec", "leader_cpu_pct", "follower_cpu_pct",
                 "available"});
      break;
    case CsvSection::Levels:
      append(h, {"offered_rps", "achieved_rps", "mean_latency_ms", "p99_latency_ms",
                 "completed", "failed"});
      break;
  }
  return h;
}

void CsvSink::consume(const ScenarioResult& r) {
  switch (section_) {
    case CsvSection::Failover: {
      std::size_t kill = 0;
      for (const auto& s : r.failovers) {
        auto row = identity_cells(r);
        append(row, {CsvWriter::cell(static_cast<double>(kill++)),
                     CsvWriter::cell(s.detection_ms), CsvWriter::cell(s.ots_ms),
                     CsvWriter::cell(s.election_ms), CsvWriter::cell(s.mean_randomized_ms),
                     s.ok ? "1" : "0"});
        csv_.row(row);
      }
      break;
    }
    case CsvSection::Samples: {
      for (const auto& p : r.samples) {
        auto row = identity_cells(r);
        append(row, {CsvWriter::cell(p.t_sec), CsvWriter::cell(p.rtt_ms),
                     CsvWriter::cell(p.loss_pct), CsvWriter::cell(p.randomized_kth_ms),
                     CsvWriter::cell(p.et_median_ms), CsvWriter::cell(p.h_mean_ms),
                     CsvWriter::cell(p.hb_per_sec), CsvWriter::cell(p.leader_cpu_pct),
                     CsvWriter::cell(p.follower_cpu_pct), p.available ? "1" : "0"});
        csv_.row(row);
      }
      break;
    }
    case CsvSection::Levels: {
      for (const auto& l : r.levels) {
        auto row = identity_cells(r);
        append(row, {CsvWriter::cell(l.offered_rps), CsvWriter::cell(l.achieved_rps),
                     CsvWriter::cell(l.mean_latency_ms), CsvWriter::cell(l.p99_latency_ms),
                     std::to_string(l.completed), std::to_string(l.failed)});
        csv_.row(row);
      }
      break;
    }
  }
}

void TableSink::consume(const ScenarioResult& r) {
  const FailoverStats f = summarize_failovers(r.failovers);
  const std::size_t ok = r.failovers.size() - f.failed_trials;
  std::vector<std::string> row = identity_cells(r);
  append(row, {std::to_string(ok) + "/" + std::to_string(r.failovers.size()),
               r.failovers.empty() ? "-" : metrics::Table::num(f.detection.mean),
               r.failovers.empty() ? "-" : metrics::Table::num(f.ots.mean),
               std::to_string(r.elections), std::to_string(r.timer_expiries),
               metrics::Table::num(r.ots_seconds, 0),
               !r.levels.empty()
                   ? metrics::Table::num(wl::OpenLoopRamp::peak_throughput(r.levels), 0)
                   : (!r.mix.empty() ? metrics::Table::num(r.mix.front().achieved_rps, 0)
                                     : "-")});
  table_.row(std::move(row));
}

void print_failover_cdfs(const std::string& label, const std::vector<FailoverSample>& samples) {
  metrics::print_quantiles(label + " detection", detection_samples(samples));
  metrics::print_quantiles(label + " OTS", ots_samples(samples));
}

}  // namespace dyna::scenario
