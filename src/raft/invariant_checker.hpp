// Always-on Raft safety invariant checker.
//
// A passive Observer attached by the Cluster to every node in every trial
// (tests, benches, and the sweep substrate alike), plus an end-of-trial deep
// audit driven by the harness. Violations are recorded, never thrown: a trial
// that breaks safety still completes and reports, so sweeps can count
// violations across thousands of trials.
//
// Streaming checks (per observer event, O(1) amortized):
//   * Election safety — at most one leader per term.
//   * Log matching / leader completeness witness — the first node to apply
//     index i registers fingerprint(term, command) in a commit table; every
//     later apply of i (any node, including post-restart replay) must match.
//   * Monotonic commit/apply — each node's applied indices are strictly
//     increasing between (re)starts.
//
// End-of-trial audit (O(total live log), run by Cluster::audit_invariants):
//   * Every entry still in any node's log at a committed index must match the
//     commit table (log matching across the cluster's final state).
//   * The current leader's log+snapshot must cover every committed index
//     (leader completeness), judged only when that leader holds the
//     maximum live term.
//   * Replicas with equal last_applied must hold equal state machines
//     (applied-prefix equality), compared in place — no serialization.
//
// The fingerprint hashes the payload with std::hash<std::string_view> (8
// bytes per step), then folds in term, config-change kind and target, each
// through a bijective xor-multiply step, and forces the low bit to 1 so 0
// means "unset"; a divergent commit escaping detection needs a 63-bit
// collision. Every replica hashes its own bytes of every entry twice — once
// at apply, once in the audit — so a shared or cached copy cannot vouch for
// a replica's log.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "raft/observer.hpp"
#include "raft/types.hpp"

namespace dyna::raft {

class InvariantChecker final : public Observer {
 public:
  struct Violation {
    std::string what;
  };

  /// Cap on stored violation descriptions (the count keeps incrementing).
  static constexpr std::size_t kMaxStored = 32;

  // ---- Streaming checks (Observer) ----

  void on_leader_established(NodeId leader, Term term, TimePoint when) override {
    const auto [it, inserted] = leader_by_term_.emplace(term, leader);
    if (!inserted && it->second != leader) {
      record("election safety: term " + std::to_string(term) + " has leaders " +
             std::to_string(it->second) + " and " + std::to_string(leader) + " at " +
             std::to_string(to_ms(when)) + "ms");
    }
  }

  void on_node_started(NodeId node, TimePoint /*when*/) override {
    applied_watermark_[node] = 0;
  }

  void on_entry_committed(NodeId node, const LogEntry& entry, TimePoint when) override {
    // Monotonic apply: strictly increasing between (re)starts. Gaps are fine
    // (snapshot install jumps the watermark forward).
    auto& mark = applied_watermark_[node];
    if (entry.index <= mark) {
      record("monotonic apply: node " + std::to_string(node) + " applied index " +
             std::to_string(entry.index) + " after " + std::to_string(mark) + " at " +
             std::to_string(to_ms(when)) + "ms");
    } else {
      mark = entry.index;
    }
    check_against_table(node, entry, "apply divergence");
    if (entry.index > max_committed_) max_committed_ = entry.index;
  }

  // ---- End-of-trial audit helpers (driven by Cluster::audit_invariants) ----

  /// Audit one log entry of a node's final state against the commit table.
  void audit_log_entry(NodeId node, const LogEntry& entry) {
    check_against_table(node, entry, "log divergence");
  }

  /// Leader completeness: the leader's reachable history (snapshot floor +
  /// log tail) must cover every index some replica applied.
  void audit_leader_coverage(NodeId leader, LogIndex last_log_index) {
    if (last_log_index < max_committed_) {
      record("leader completeness: leader " + std::to_string(leader) + " log ends at " +
             std::to_string(last_log_index) + " but index " + std::to_string(max_committed_) +
             " was applied somewhere");
    }
  }

  /// Applied-prefix equality: `node` applied the same prefix (`last_applied`)
  /// as `first`, so their state machines must compare equal. The comparison
  /// is the machine's own exact operator== — in place, O(state), no copy.
  template <class Machine>
  void audit_applied_state(NodeId first, const Machine& first_state, NodeId node,
                           const Machine& state, LogIndex last_applied) {
    if (!(state == first_state)) {
      record("applied-prefix equality: nodes " + std::to_string(first) + " and " +
             std::to_string(node) + " diverge at last_applied " + std::to_string(last_applied));
    }
  }

  // ---- Results ----

  [[nodiscard]] bool ok() const noexcept { return count_ == 0; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept { return violations_; }
  [[nodiscard]] LogIndex max_committed() const noexcept { return max_committed_; }

  /// Wipe all trial state (called by the cluster between trials).
  void clear() {
    leader_by_term_.clear();
    applied_watermark_.clear();
    committed_.clear();
    violations_.clear();
    count_ = 0;
    max_committed_ = 0;
  }

  /// 64-bit fingerprint of a log entry's identity (exposed for tests).
  [[nodiscard]] static std::uint64_t fingerprint(const LogEntry& entry) noexcept {
    std::uint64_t h = std::hash<std::string_view>{}(entry.command.payload);
    const auto fold = [&h](std::uint64_t v) {
      h = (h ^ v) * 0x9E3779B97F4A7C15ULL;
      h ^= h >> 32;
    };
    fold(static_cast<std::uint64_t>(entry.term));
    fold(static_cast<std::uint64_t>(entry.command.config_change));
    fold(static_cast<std::uint64_t>(static_cast<std::int64_t>(entry.command.config_target)));
    return h | 1;
  }

 private:
  void check_against_table(NodeId node, const LogEntry& entry, const char* kind) {
    if (entry.index == 0) return;
    const std::size_t slot = static_cast<std::size_t>(entry.index);
    if (committed_.size() <= slot) committed_.resize(slot + 1, 0);
    const std::uint64_t h = fingerprint(entry);
    if (committed_[slot] == 0) {
      committed_[slot] = h;
    } else if (committed_[slot] != h) {
      record(std::string(kind) + ": node " + std::to_string(node) + " holds a different entry at " +
             "committed index " + std::to_string(entry.index) + " (term " +
             std::to_string(entry.term) + ")");
    }
  }

  void record(std::string what) {
    ++count_;
    if (violations_.size() < kMaxStored) violations_.push_back(Violation{std::move(what)});
  }

  std::unordered_map<Term, NodeId> leader_by_term_;
  std::unordered_map<NodeId, LogIndex> applied_watermark_;
  /// Index-keyed fingerprints of applied entries; 0 = unset.
  std::vector<std::uint64_t> committed_;
  std::vector<Violation> violations_;
  std::uint64_t count_ = 0;
  LogIndex max_committed_ = 0;
};

}  // namespace dyna::raft
