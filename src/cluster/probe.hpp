// Probe: records the cluster events the paper extracts from log files.
//
// Detection time := leader-kill instant -> first follower election-timer
// expiry. OTS := leader-kill instant -> next leader assuming power. The probe
// stores the raw event streams; experiment drivers do the arithmetic.
//
// Per-node clock offsets model the NTP error of the multi-machine AWS
// experiment (§IV-D): when set, every recorded timestamp is shifted by the
// reporting node's offset — exactly the distortion a log-file reader sees.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "raft/observer.hpp"

namespace dyna::cluster {

class Probe final : public raft::Observer {
 public:
  struct RoleChangeEvent {
    NodeId node;
    raft::Role from;
    raft::Role to;
    raft::Term term;
    TimePoint when;
  };

  struct TimeoutEvent {
    NodeId node;
    raft::Term term;
    TimePoint when;
  };

  struct LeaderEvent {
    NodeId leader;
    raft::Term term;
    TimePoint when;
  };

  // ---- Observer ----
  void on_role_change(NodeId node, raft::Role from, raft::Role to, raft::Term term,
                      TimePoint when) override {
    role_changes_.push_back({node, from, to, term, when + offset(node)});
  }

  void on_election_timeout(NodeId node, raft::Term term, TimePoint when) override {
    timeouts_.push_back({node, term, when + offset(node)});
  }

  void on_leader_established(NodeId leader, raft::Term term, TimePoint when) override {
    leaders_.push_back({leader, term, when + offset(leader)});
  }

  // ---- Clock model ----
  void set_clock_offset(NodeId node, Duration offset) { clock_offset_[node] = offset; }

  // ---- Queries ----
  [[nodiscard]] const std::vector<RoleChangeEvent>& role_changes() const noexcept {
    return role_changes_;
  }
  [[nodiscard]] const std::vector<TimeoutEvent>& timeouts() const noexcept { return timeouts_; }
  [[nodiscard]] const std::vector<LeaderEvent>& leaders() const noexcept { return leaders_; }

  /// First election-timeout event at or after `t` (the "failure detected" log line).
  [[nodiscard]] std::optional<TimeoutEvent> first_timeout_after(TimePoint t) const {
    for (const auto& e : timeouts_) {
      if (e.when >= t) return e;
    }
    return std::nullopt;
  }

  /// First leader establishment at or after `t`, optionally excluding a node
  /// (the killed leader cannot be its own successor).
  [[nodiscard]] std::optional<LeaderEvent> first_leader_after(
      TimePoint t, NodeId exclude = kNoNode) const {
    for (const auto& e : leaders_) {
      if (e.when >= t && e.leader != exclude) return e;
    }
    return std::nullopt;
  }

  /// Number of elections begun (transitions to Candidate) in [a, b).
  [[nodiscard]] std::size_t elections_started_in(TimePoint a, TimePoint b) const {
    std::size_t n = 0;
    for (const auto& e : role_changes_) {
      if (e.to == raft::Role::Candidate && e.when >= a && e.when < b) ++n;
    }
    return n;
  }

  /// Forget everything, clock offsets included (trial reuse: the next trial
  /// starts from a probe indistinguishable from a fresh one). Event-vector
  /// capacity survives.
  void clear() {
    role_changes_.clear();
    timeouts_.clear();
    leaders_.clear();
    clock_offset_.clear();
  }

 private:
  [[nodiscard]] Duration offset(NodeId node) const {
    const auto it = clock_offset_.find(node);
    return it == clock_offset_.end() ? Duration{0} : it->second;
  }

  std::vector<RoleChangeEvent> role_changes_;
  std::vector<TimeoutEvent> timeouts_;
  std::vector<LeaderEvent> leaders_;
  std::map<NodeId, Duration> clock_offset_;
};

}  // namespace dyna::cluster
