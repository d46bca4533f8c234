// Analytic FIFO CPU server for the client-request path (Fig 5's saturation
// mechanism).
//
// The leader's request pipeline is modelled as a single FIFO server: each
// admitted request occupies the server for its service time; completion
// callbacks fire in order at the computed finish instants. Open-loop load
// beyond 1/service_time therefore builds a genuine backlog, which is what
// bends the latency curve and pins peak throughput.
//
// One cost model serves client requests — enqueue_command(done): a *round*
// of up to max_commands coalesced commands costs per_round + k·per_command.
// This is what makes group commit genuinely pay: the fixed per-round cost
// (request parsing epilogue, log append, replication bookkeeping) amortizes
// across the batch, so saturated peak moves from 1/(R+C) toward 1/C. With
// coalesce=false every command is its own round of R + C — the honest
// unbatched baseline under the same cost split, and Fig 5's per-request CPU
// (R = 0). enqueue(service_time, done) admits one job of a given occupancy
// (ReadIndex reads pay per_command alone).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace dyna::cluster {

/// Cost split for the grouped model. Active once either duration is > 0.
struct GroupCostModel {
  Duration per_round{0};       ///< fixed cost paid once per serving round
  Duration per_command{0};     ///< marginal cost per coalesced command
  std::size_t max_commands = 64;  ///< round size cap (mirror of max_batch_commands)
  bool coalesce = true;        ///< false: every command is its own round
};

class ServiceQueue {
 public:
  /// `group` is the grouped cost model enqueue_command() charges; it is
  /// fixed for the queue's lifetime.
  explicit ServiceQueue(sim::Simulator& simulator, GroupCostModel group = {})
      : sim_(&simulator), group_(group) {
    DYNA_EXPECTS(group.per_round >= Duration{0} && group.per_command >= Duration{0});
    DYNA_EXPECTS(group.max_commands >= 1);
  }

  /// Admit one job; `done` fires when its service completes.
  void enqueue(Duration service_time, std::function<void()> done) {
    DYNA_EXPECTS(service_time >= Duration{0});
    const TimePoint start = std::max(sim_->now(), next_free_);
    next_free_ = start + service_time;
    ++admitted_;
    sim_->schedule_at(next_free_, [this, done = std::move(done)] {
      ++completed_;
      done();
    });
  }

  /// Admit one client command under the grouped cost model; `done` fires when
  /// the round serving it completes. Commands pending when a round starts are
  /// served together (up to max_commands), sharing one per_round cost.
  void enqueue_command(std::function<void()> done) {
    if (!group_.coalesce) {
      // Unbatched baseline: a full round per command, same cost split.
      enqueue(group_.per_round + group_.per_command, std::move(done));
      return;
    }
    ++admitted_;
    pending_.push_back(std::move(done));
    schedule_round(std::max(sim_->now(), next_free_));
  }

  /// Commands waiting for a serving round (grouped model).
  [[nodiscard]] std::size_t pending_commands() const noexcept { return pending_.size(); }

  /// Serving rounds completed under the grouped model.
  [[nodiscard]] std::uint64_t rounds_served() const noexcept { return rounds_served_; }

  /// Current backlog delay a newly admitted job would see.
  [[nodiscard]] Duration backlog() const noexcept {
    const TimePoint now = sim_->now();
    return next_free_ > now ? next_free_ - now : Duration{0};
  }

  [[nodiscard]] std::uint64_t admitted() const noexcept { return admitted_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

  /// Back to an empty server (trial reuse). Pending completion events died
  /// with the simulator reset; this clears the backlog watermark + counters.
  void reset_for_trial() noexcept {
    next_free_ = kSimEpoch;
    admitted_ = 0;
    completed_ = 0;
    pending_.clear();
    round_scheduled_ = false;
    rounds_served_ = 0;
  }

 private:
  void schedule_round(TimePoint at) {
    if (round_scheduled_) return;
    round_scheduled_ = true;
    sim_->schedule_at(at, [this] { serve_round(); });
  }

  void serve_round() {
    round_scheduled_ = false;
    if (pending_.empty()) return;
    const TimePoint now = sim_->now();
    if (next_free_ > now) {
      // A single job slipped in ahead of us (enqueue shares the server): try
      // again when it frees up.
      schedule_round(next_free_);
      return;
    }
    const std::size_t k = std::min(pending_.size(), group_.max_commands);
    next_free_ = now + group_.per_round +
                 group_.per_command * static_cast<Duration::rep>(k);
    ++rounds_served_;
    std::vector<std::function<void()>> round;
    round.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      round.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    sim_->schedule_at(next_free_, [this, round = std::move(round)] {
      for (const auto& done : round) {
        ++completed_;
        done();
      }
    });
    if (!pending_.empty()) schedule_round(next_free_);
  }

  sim::Simulator* sim_;
  TimePoint next_free_ = kSimEpoch;
  std::uint64_t admitted_ = 0;
  std::uint64_t completed_ = 0;
  GroupCostModel group_;
  std::deque<std::function<void()>> pending_;  ///< grouped model: waiting commands
  bool round_scheduled_ = false;
  std::uint64_t rounds_served_ = 0;
};

}  // namespace dyna::cluster
