// Shared-log segment store: the zero-copy replication substrate.
//
// The Raft log is append-mostly and its replicated suffixes are immutable
// once written, so the log is held as a chain of ref-counted immutable
// segments plus one open (mutable) tail:
//
//      runs_[0]        runs_[1]     ...   runs_[k]          tail_
//   [1 .. a]           [a+1 .. b]         [c+1 .. d]     [d+1 .. last]
//   (segment handle, slice) — contiguous, ascending      plain vector
//
// When the leader needs to ship entries it asks for a view(first, count):
// the open tail is sealed (a move, not a copy) into a fresh segment and the
// view is a (segment handle, span) pair. Every follower's AppendEntries in
// the same broadcast round shares the same segment — one suffix
// materialization per round regardless of follower count, and copying an
// in-flight message is a reference-count bump instead of a vector deep-copy.
// A view that spans several runs (the catch-up of a lagging follower) is a
// slice list: one small spliced segment listing the (segment, first index,
// count) slices it covers, behind the same single handle. No entry is
// copied for it.
//
// The same sharing works on the receive side: a follower adopts a view's
// slices into its own run chain (append_view), extending its last run when
// a slice continues it in the same segment — replicas of one cluster
// physically share the immutable bulk of the log, one materialization
// cluster-wide. A spliced segment is never adopted itself, only the slices
// it lists, so every run points at a plain segment. This is the
// shared-relay-log idea production systems use (cf. tarantool's
// relay/limbo design) transplanted into the simulator.
//
// Truncation (follower conflict resolution) never copies: whole runs past
// the cut are dropped and a straddling run is shortened to end before it,
// while outstanding views keep their segments alive. A view is therefore
// always valid for the lifetime of its handle, no matter what the log does
// afterwards.
//
// Compaction (snapshots) is the mirror image at the front: runs fully
// behind the snapshot line are unlinked (segments die when the last view
// drops them); a run straddling the line keeps its segment whole and only
// advances its slice bookkeeping. Segments are never split or rewritten, so
// the view-validity guarantee above holds across compaction too.
//
// Apply is zero-copy on top of this: for_each_sealed hands each committed
// entry to the apply loop together with its segment's handle, and the KV
// store keeps each value as a view into the entry's payload plus that
// handle. Every replica of a PUT then aliases the one copy its shared
// segment holds. A value pins exactly one segment, and a segment holds one
// seal's worth of entries (a broadcast round), so the memory kept alive past
// compaction is bounded by live keys x the largest segment.
//
// The log is also the durable one: raft::Storage owns it and marks how far
// it is persisted, and a restarted node takes the same segments over.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "raft/types.hpp"

namespace dyna::raft {

class LogSegment;
using SegmentHandle = std::shared_ptr<const LogSegment>;

/// `count` entries of the plain segment `seg`, holding log positions
/// [first, first + count). Segments are index-aligned (an entry's position
/// in its segment follows from its Raft index), so no offset is kept. A log
/// run and one slice of a spliced segment are both this.
struct LogSlice {
  SegmentHandle seg;
  LogIndex first = 0;
  std::uint32_t count = 0;

  [[nodiscard]] LogIndex last_index() const noexcept { return first + count - 1; }
};

/// Immutable, ref-counted run of contiguous log entries. A plain segment owns
/// its entries (never none); `first_index` is the Raft index of its first
/// entry and the entries are never mutated after construction. A spliced
/// segment (SplicedSegment below) owns no entries: it lists the slices of
/// plain segments that one EntryView spans.
class LogSegment {
 public:
  LogSegment(LogIndex first_index, std::vector<LogEntry> entries)
      : first_(first_index), entries_(std::move(entries)) {
    DYNA_EXPECTS(first_ >= 1 && !entries_.empty());
  }

  [[nodiscard]] LogIndex first_index() const noexcept { return first_; }
  [[nodiscard]] LogIndex last_index() const noexcept;
  [[nodiscard]] bool spliced() const noexcept { return entries_.empty(); }

  /// Plain segments only: the entries, and the one at Raft index `index`.
  [[nodiscard]] const LogEntry* data() const noexcept { return entries_.data(); }
  [[nodiscard]] const LogEntry& entry(LogIndex index) const noexcept {
    return entries_[static_cast<std::size_t>(index - first_)];
  }

  /// Spliced segments only: the slice holding Raft index `index`.
  [[nodiscard]] const LogSlice& slice_at(LogIndex index) const noexcept;

 protected:
  explicit LogSegment(LogIndex first_index) : first_(first_index) {}

 private:
  LogIndex first_;
  std::vector<LogEntry> entries_;
};

/// The slice list of a view that spans several runs: contiguous, ascending
/// slices of plain segments. A derived type, so that a plain segment — one
/// per broadcast round — carries no empty slice vector. RaftLog::view makes
/// it with make_shared, whose control block destroys it as itself, so the
/// base needs no virtual destructor.
class SplicedSegment final : public LogSegment {
 public:
  explicit SplicedSegment(std::vector<LogSlice> slices)
      : LogSegment(slices.front().first), slices_(std::move(slices)) {}

  [[nodiscard]] const std::vector<LogSlice>& slices() const noexcept { return slices_; }

 private:
  std::vector<LogSlice> slices_;
};

inline LogIndex LogSegment::last_index() const noexcept {
  if (spliced()) return static_cast<const SplicedSegment*>(this)->slices().back().last_index();
  return first_ + entries_.size() - 1;
}

inline const LogSlice& LogSegment::slice_at(LogIndex index) const noexcept {
  const auto& slices = static_cast<const SplicedSegment*>(this)->slices();
  const auto it = std::upper_bound(slices.begin(), slices.end(), index,
                                   [](LogIndex i, const LogSlice& s) { return i < s.first; });
  return *(it - 1);
}

/// Cheap shared view over a contiguous span of log entries: a handle plus
/// (offset, count). The handle is a plain segment when the span lies in one,
/// or a spliced segment listing the slices it covers. Copying a view bumps a
/// reference count; the entries themselves are never copied. This is what
/// AppendEntries carries on the wire instead of a std::vector<LogEntry>.
class EntryView {
 public:
  EntryView() = default;

  EntryView(SegmentHandle segment, LogIndex first, std::size_t count)
      : segment_(std::move(segment)),
        offset_(static_cast<std::uint32_t>(first - segment_->first_index())),
        count_(static_cast<std::uint32_t>(count)) {
    DYNA_EXPECTS(segment_ != nullptr);
    DYNA_EXPECTS(first >= segment_->first_index());
    DYNA_EXPECTS(first + count - 1 <= segment_->last_index());
  }

  /// Wrap a loose entry vector in a fresh single-use segment (tests and
  /// ad-hoc message construction; the replication path goes through
  /// RaftLog::view instead).
  [[nodiscard]] static EntryView of(std::vector<LogEntry> entries) {
    if (entries.empty()) return {};
    const LogIndex first = entries.front().index;
    const std::size_t count = entries.size();
    return EntryView(std::make_shared<const LogSegment>(first, std::move(entries)), first,
                     count);
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  [[nodiscard]] const LogEntry& operator[](std::size_t i) const noexcept {
    const LogIndex index = first_index() + i;
    if (!segment_->spliced()) return segment_->entry(index);
    return segment_->slice_at(index).seg->entry(index);
  }

  [[nodiscard]] LogIndex first_index() const noexcept {
    return count_ == 0 ? 0 : segment_->first_index() + offset_;
  }
  [[nodiscard]] LogIndex last_index() const noexcept {
    return count_ == 0 ? 0 : first_index() + count_ - 1;
  }

  /// Backing segment: plain or spliced (empty views have none).
  [[nodiscard]] const SegmentHandle& segment() const noexcept { return segment_; }

  /// Invoke fn(segment, first, count) for each plain-segment slice of the
  /// view in index order: once for a view inside one segment, once per
  /// covered slice for a spliced one.
  template <typename Fn>
  void for_each_slice(Fn&& fn) const {
    if (count_ == 0) return;
    const LogIndex first = first_index();
    const LogIndex last = last_index();
    if (!segment_->spliced()) {
      fn(segment_, first, std::size_t{count_});
      return;
    }
    for (const LogSlice* s = &segment_->slice_at(first);; ++s) {
      const LogIndex lo = std::max(first, s->first);
      const LogIndex hi = std::min(last, s->last_index());
      fn(s->seg, lo, static_cast<std::size_t>(hi - lo + 1));
      if (hi == last) return;
    }
  }

 private:
  SegmentHandle segment_;
  std::uint32_t offset_ = 0;
  std::uint32_t count_ = 0;
};

// A view is one handle wide whatever it spans: it rides inside every
// AppendEntries, so its size is the wire message's.
static_assert(sizeof(EntryView) == sizeof(SegmentHandle) + 2 * sizeof(std::uint32_t));

/// The Raft log proper: sealed immutable runs + open tail. Indices are
/// 1-based and contiguous from first_index() to last_index(); a snapshot
/// compacts the prefix up to compacted_to() away (whole-segment drops — see
/// compact_to). Random access is O(1) in the tail, O(1) through the run hint
/// for the sequential access patterns Raft has (apply, prev-term checks),
/// and O(log #runs) otherwise; view() and append_view() are allocation-free
/// on the broadcast path.
class RaftLog {
 public:
  [[nodiscard]] LogIndex last_index() const noexcept {
    return tail_first_ - 1 + tail_.size();
  }
  /// Index of the first live (uncompacted) entry: compacted_to() + 1.
  [[nodiscard]] LogIndex first_index() const noexcept { return compacted_to_ + 1; }
  /// Number of live entries (equals last_index() while uncompacted).
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(last_index() - compacted_to_);
  }
  [[nodiscard]] bool empty() const noexcept { return last_index() == compacted_to_; }

  /// Highest index folded into a snapshot (0 = nothing compacted), and its
  /// term. Entries at or below this index are no longer addressable.
  [[nodiscard]] LogIndex compacted_to() const noexcept { return compacted_to_; }
  [[nodiscard]] Term compacted_term() const noexcept { return compacted_term_; }

  /// 1-based access (Raft indices); index must be live.
  [[nodiscard]] const LogEntry& entry(LogIndex index) const {
    DYNA_EXPECTS(index >= first_index() && index <= last_index());
    if (index >= tail_first_) return tail_[static_cast<std::size_t>(index - tail_first_)];
    return run_containing(index).seg->entry(index);
  }

  /// 0-based access (container idiom; entry i has Raft index i+1; only
  /// meaningful while uncompacted).
  [[nodiscard]] const LogEntry& operator[](std::size_t i) const { return entry(i + 1); }

  [[nodiscard]] const LogEntry& front() const { return entry(first_index()); }
  [[nodiscard]] const LogEntry& back() const { return entry(last_index()); }

  /// Term of the entry at `index`; 0 for the empty prefix (index 0). The
  /// compaction point itself stays addressable (its term is remembered for
  /// AppendEntries prev-term checks); anything below it is gone.
  [[nodiscard]] Term term_at(LogIndex index) const {
    if (index == compacted_to_) return compacted_term_;
    return entry(index).term;
  }

  /// Append one entry at the end.
  void append(LogEntry e) {
    DYNA_EXPECTS(e.index == last_index() + 1);
    tail_.push_back(std::move(e));
  }

  /// Adopt a replicated view by reference: each plain-segment slice it
  /// covers becomes a run of this log, or extends the last run when it
  /// continues that run in the same segment. The receive-side equivalent of
  /// view() — the follower's copy of the replicated suffix IS the leader's
  /// segments, so the cluster holds one materialization of the bulk log. A
  /// spliced view is flattened: its slice list is never adopted itself.
  /// Precondition: the view starts exactly at this log's next index.
  void append_view(const EntryView& v) {
    if (v.empty()) return;
    DYNA_EXPECTS(v.first_index() == last_index() + 1);
    seal_tail();
    v.for_each_slice([&](const SegmentHandle& seg, LogIndex first, std::size_t count) {
      const auto n = static_cast<std::uint32_t>(count);
      if (!runs_.empty() && runs_.back().seg == seg && runs_.back().last_index() + 1 == first) {
        runs_.back().count += n;
      } else {
        runs_.push_back(LogSlice{seg, first, n});
      }
    });
    tail_first_ = v.last_index() + 1;
  }

  /// Remove all entries with index >= first_removed. Nothing is copied:
  /// whole runs past the cut are dropped and a straddling run is shortened,
  /// while views handed out earlier keep their segments alive. The
  /// compacted prefix is committed state and can never be cut.
  void truncate_from(LogIndex first_removed) {
    DYNA_EXPECTS(first_removed > compacted_to_);
    if (first_removed > last_index()) return;
    if (first_removed >= tail_first_) {
      tail_.resize(static_cast<std::size_t>(first_removed - tail_first_));
      return;
    }
    // The cut lands in sealed territory: the whole open tail goes, then
    // whole runs past the cut, and a straddling run ends before it.
    tail_.clear();
    while (!runs_.empty() && runs_.back().first >= first_removed) {
      runs_.pop_back();
    }
    if (!runs_.empty() && runs_.back().last_index() >= first_removed) {
      runs_.back().count = static_cast<std::uint32_t>(first_removed - runs_.back().first);
    }
    tail_first_ = first_removed;
    hint_ = 0;
  }

  /// Drop everything up to and including index c (whose term is term_c),
  /// folding it behind the snapshot line. Granularity is whole segments:
  /// runs fully behind the cut are unlinked (their segments die once the
  /// last outstanding EntryView releases them); a run straddling the cut
  /// only advances its slice bookkeeping — the segment stays whole and
  /// alive, which is why views handed out before compaction remain valid
  /// without any copy-on-write here.
  void compact_to(LogIndex c, Term term_c) {
    DYNA_EXPECTS(c >= compacted_to_ && c <= last_index());
    if (c == compacted_to_) return;
    if (c >= tail_first_) seal_tail();
    std::size_t drop = 0;
    while (drop < runs_.size() && runs_[drop].last_index() <= c) ++drop;
    runs_.erase(runs_.begin(), runs_.begin() + static_cast<std::ptrdiff_t>(drop));
    if (!runs_.empty() && runs_.front().first <= c) {
      LogSlice& r = runs_.front();
      r.count -= static_cast<std::uint32_t>(c + 1 - r.first);
      r.first = c + 1;
    }
    compacted_to_ = c;
    compacted_term_ = term_c;
    hint_ = 0;
  }

  /// Replace the whole log with nothing but a snapshot line at (s, term_s):
  /// the InstallSnapshot path when the local log conflicts with (or is
  /// entirely behind) the leader's snapshot. All segments are released.
  void install(LogIndex s, Term term_s) {
    runs_.clear();
    tail_.clear();
    tail_first_ = s + 1;
    compacted_to_ = s;
    compacted_term_ = term_s;
    hint_ = 0;
  }

  /// Invoke fn(entry) for each index in [first, last], walking runs and the
  /// tail as contiguous arrays — a sequential scan without a per-entry run
  /// lookup.
  template <typename Fn>
  void for_each(LogIndex first, LogIndex last, Fn&& fn) const {
    DYNA_EXPECTS(first >= first_index() && last <= last_index());
    LogIndex i = first;
    while (i <= last && i < tail_first_) {
      const LogSlice& run = run_containing(i);
      const LogIndex stop = std::min(last, run.last_index());
      const LogEntry* p = &run.seg->entry(i);
      for (; i <= stop; ++i, ++p) fn(*p);
    }
    for (; i <= last; ++i) fn(tail_[static_cast<std::size_t>(i - tail_first_)]);
  }

  /// Invoke fn(entry, segment) for each index in [first, last], where
  /// `segment` is the immutable segment holding the entry: a keep-alive
  /// handle under which the entry's bytes never change, so the apply loop
  /// can hand it to a state machine that keeps views into the payload. A
  /// range reaching into the open tail seals it first (a move, not a copy).
  /// Each run's handle is copied out of the run chain before its entries
  /// are visited, so the callback holds no reference into it.
  template <typename Fn>
  void for_each_sealed(LogIndex first, LogIndex last, Fn&& fn) {
    DYNA_EXPECTS(first >= first_index() && last <= last_index());
    if (last >= tail_first_) seal_tail();
    LogIndex i = first;
    while (i <= last) {
      const LogSlice& run = run_containing(i);
      const SegmentHandle seg = run.seg;
      const LogIndex stop = std::min(last, run.last_index());
      const LogEntry* p = &seg->entry(i);
      for (; i <= stop; ++i, ++p) fn(*p, seg);
    }
  }

  /// Shared view over [first, first + count). Seals the open tail when the
  /// span reaches into it, so the common broadcast pattern — every follower
  /// asks for the same fresh suffix — materializes that suffix exactly once
  /// (as a move) and then hands out reference-counted aliases. A span inside
  /// one run allocates nothing; a span across runs (the catch-up of a
  /// lagging follower) allocates one spliced segment listing the slices it
  /// covers and copies no entry.
  [[nodiscard]] EntryView view(LogIndex first, std::size_t count) {
    if (count == 0) return {};
    DYNA_EXPECTS(first >= first_index() && first + count - 1 <= last_index());
    const LogIndex last = first + count - 1;
    if (last >= tail_first_) seal_tail();
    std::size_t r = run_at(first);
    if (runs_[r].last_index() >= last) {
      // Runs are always index-aligned with their segment (entry .index
      // fields are global), so a within-run span shares directly.
      return EntryView(runs_[r].seg, first, count);
    }
    std::vector<LogSlice> slices;
    for (LogIndex i = first; i <= last; ++r) {
      const LogSlice& run = runs_[r];
      const LogIndex stop = std::min(last, run.last_index());
      slices.push_back(LogSlice{run.seg, i, static_cast<std::uint32_t>(stop - i + 1)});
      i = stop + 1;
    }
    return EntryView(std::make_shared<const SplicedSegment>(std::move(slices)), first, count);
  }

  /// Number of sealed runs (introspection / tests).
  [[nodiscard]] std::size_t sealed_runs() const noexcept { return runs_.size(); }

 private:
  void seal_tail() {
    if (tail_.empty()) return;
    const std::uint32_t n = static_cast<std::uint32_t>(tail_.size());
    runs_.push_back(LogSlice{std::make_shared<const LogSegment>(tail_first_, std::move(tail_)),
                             tail_first_, n});
    tail_first_ += n;
    tail_.clear();  // moved-from: make the empty state explicit
  }

  /// Position in runs_ of the run holding `index`.
  [[nodiscard]] std::size_t run_at(LogIndex index) const {
    // Raft's sealed-territory reads cluster on recently written runs (apply
    // loop, prev-entry term checks), so try the remembered run first and
    // fall back to binary search.
    if (hint_ < runs_.size()) {
      const LogSlice& h = runs_[hint_];
      if (h.first <= index && index <= h.last_index()) return hint_;
    }
    const auto it =
        std::upper_bound(runs_.begin(), runs_.end(), index,
                         [](LogIndex i, const LogSlice& r) { return i < r.first; });
    DYNA_ASSERT(it != runs_.begin());
    hint_ = static_cast<std::size_t>((it - 1) - runs_.begin());
    return hint_;
  }
  [[nodiscard]] const LogSlice& run_containing(LogIndex index) const {
    return runs_[run_at(index)];
  }

  std::vector<LogSlice> runs_;  ///< plain-segment slices: contiguous, ascending, non-empty
  std::vector<LogEntry> tail_;  ///< open run after the last sealed slice
  LogIndex tail_first_ = 1;     ///< Raft index of tail_[0]
  LogIndex compacted_to_ = 0;   ///< snapshot line: entries <= this are gone
  Term compacted_term_ = 0;     ///< term of the entry at compacted_to_
  mutable std::size_t hint_ = 0;  ///< last run touched by run_containing
};

}  // namespace dyna::raft
