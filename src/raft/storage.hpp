// Persistent state of one server: hard state, the log and the snapshot.
//
// Raft requires currentTerm, votedFor and the log to survive crashes. The
// cluster harness keeps one Storage per server across crash/restart cycles;
// a restarted node takes the same Storage over. Storage is exact memory with
// no latency (the experiments do not model disk latency — the paper ran on
// unthrottled NVMe and its results are network-bound).
//
// The log exists once. The node works on log() directly — its segments are
// the ones the replicas share — and durability is a watermark over it:
// durable_index(), the last index persisted. persist_log() advances the
// watermark instead of copying entries, so a durable log costs one integer
// on top of the segments. Every edit that can shorten the durable prefix
// (truncation, snapshot install) goes through Storage, as does compaction,
// so compacted_to() <= durable_index() <= last_index() always holds. A
// running node's log equals its durable log: a crash point that fires
// between an append and persist_log() stops the node before any other code
// runs. recover() — the restart — cuts the log back to the watermark, so a
// crash loses exactly the entries it left unpersisted, and the surviving
// segments stay where they are.
#pragma once

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/types.hpp"
#include "raft/log.hpp"
#include "raft/types.hpp"

namespace dyna::raft {

class Storage {
 public:
  void save_hard_state(Term term, NodeId voted_for) {
    term_ = term;
    voted_for_ = voted_for;
  }

  [[nodiscard]] std::pair<Term, NodeId> load_hard_state() const {
    return {term_, voted_for_};
  }

  /// The server's log. Appends go straight to it and become durable with
  /// persist_log(); cuts go through truncate_from(), compact_to() and
  /// install() below.
  [[nodiscard]] RaftLog& log() noexcept { return log_; }
  [[nodiscard]] const RaftLog& log() const noexcept { return log_; }

  /// Last index persisted: a restart keeps [first_index(), durable_index()].
  [[nodiscard]] LogIndex durable_index() const noexcept { return durable_; }

  /// The disk append: everything in log() is now durable.
  void persist_log() noexcept { durable_ = log_.last_index(); }

  /// Remove all entries with index >= first_removed (follower conflict
  /// resolution); the watermark drops with them.
  void truncate_from(LogIndex first_removed) {
    log_.truncate_from(first_removed);
    durable_ = std::min(durable_, log_.last_index());
  }

  /// Fold everything up to and including c (term term_c) behind the
  /// snapshot line. The snapshot covering it is saved first.
  void compact_to(LogIndex c, Term term_c) {
    DYNA_EXPECTS(c <= durable_);
    log_.compact_to(c, term_c);
  }

  /// Replace the whole log with a snapshot line at (s, term_s), durable at
  /// once: the InstallSnapshot wipe when the local log conflicts with (or is
  /// entirely behind) the leader's snapshot.
  void install(LogIndex s, Term term_s) {
    log_.install(s, term_s);
    durable_ = s;
  }

  /// Persist the state-machine snapshot blob. The handle is shared, not
  /// copied — the durable snapshot is the same immutable object the node
  /// (and any in-flight InstallSnapshot) holds.
  void save_snapshot(SnapshotHandle snapshot) { snapshot_ = std::move(snapshot); }

  /// Last persisted snapshot, or nullptr. Recovery restores the state
  /// machine from it and replays only the log suffix behind it.
  [[nodiscard]] SnapshotHandle load_snapshot() const { return snapshot_; }

  /// Crash recovery: drop the entries past the watermark. Never cuts below
  /// the compaction line, which only durable entries reach.
  void recover() {
    DYNA_ASSERT(log_.compacted_to() <= durable_ && durable_ <= log_.last_index());
    log_.truncate_from(durable_ + 1);
  }

  /// Wipe everything — the disk of a brand-new deployment. Distinct from
  /// crash/restart (which persists): this is the trial-reuse path, where one
  /// Storage object serves consecutive independent trials and must keep its
  /// buffer capacity while dropping all content.
  void reset_for_trial() {
    term_ = 0;
    voted_for_ = kNoNode;
    log_.install(0, 0);  // the empty log; run and tail capacity survive
    durable_ = 0;
    snapshot_.reset();  // snapshot blobs must not leak into the next trial
  }

 private:
  Term term_ = 0;
  NodeId voted_for_ = kNoNode;
  RaftLog log_;
  LogIndex durable_ = 0;  ///< last persisted index
  SnapshotHandle snapshot_;
};

}  // namespace dyna::raft
