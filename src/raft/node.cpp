#include "raft/node.hpp"

#include <algorithm>
#include <utility>

// Group commit speaks the kv batch frame directly (batch_append /
// for_each_batch_result). The simulator has a single state-machine family;
// funnelling three framing callbacks through the cluster would buy no
// generality worth the indirection. Read classification stays a hook
// (set_read_hooks) because it genuinely belongs to the host.
#include "kvstore/command.hpp"

namespace dyna::raft {

namespace {

[[nodiscard]] inline MsgKind kind_of(const AppendEntriesRequest& r) {
  return r.is_heartbeat() ? MsgKind::Heartbeat : MsgKind::Append;
}
[[nodiscard]] inline MsgKind kind_of(const AppendEntriesResponse& r) {
  return r.heartbeat ? MsgKind::HeartbeatResponse : MsgKind::AppendResponse;
}
[[nodiscard]] inline MsgKind kind_of(const PreVoteRequest&) { return MsgKind::PreVote; }
[[nodiscard]] inline MsgKind kind_of(const PreVoteResponse&) { return MsgKind::PreVoteResponse; }
[[nodiscard]] inline MsgKind kind_of(const RequestVoteRequest&) { return MsgKind::Vote; }
[[nodiscard]] inline MsgKind kind_of(const RequestVoteResponse&) { return MsgKind::VoteResponse; }
[[nodiscard]] inline MsgKind kind_of(const InstallSnapshotRequest&) {
  return MsgKind::InstallSnapshot;
}
[[nodiscard]] inline MsgKind kind_of(const InstallSnapshotResponse&) {
  return MsgKind::InstallSnapshotResponse;
}
[[nodiscard]] inline MsgKind kind_of(const ClientRequest&) { return MsgKind::Client; }
[[nodiscard]] inline MsgKind kind_of(const ClientResponse&) { return MsgKind::ClientResponse; }

/// Kind and wire size of a message, computed in one variant dispatch (the
/// receive path needs both for traffic accounting).
struct MsgInfo {
  MsgKind kind;
  std::size_t bytes;
};

[[nodiscard]] MsgInfo info_of(const Message& m) {
  return std::visit([](const auto& p) { return MsgInfo{kind_of(p), approx_size(p)}; }, m);
}

}  // namespace

RaftNode::RaftNode(NodeId id, std::vector<NodeId> peers, sim::Simulator& simulator,
                   net::Network& network, RaftConfig config, std::shared_ptr<Storage> storage,
                   std::unique_ptr<ElectionPolicy> policy, Rng rng)
    : id_(id),
      peers_(std::move(peers)),
      sim_(&simulator),
      net_(&network),
      config_(config),
      storage_(std::move(storage)),
      policy_(std::move(policy)),
      rng_(std::move(rng)),
      log_((DYNA_EXPECTS(storage_ != nullptr), storage_->log())),
      election_timer_(simulator, [this] { with_crash_guard([this] { on_election_deadline(); }); }) {
  DYNA_EXPECTS(policy_ != nullptr);
  DYNA_EXPECTS(std::find(peers_.begin(), peers_.end(), id_) == peers_.end());
  for (const NodeId p : peers_) DYNA_EXPECTS(p >= 0);
  founding_peers_ = peers_;
  rebuild_peer_slots();
  peer_learner_.assign(peers_.size(), 0);
  peer_state_.resize(peers_.size());
}

void RaftNode::start() {
  DYNA_EXPECTS(!running_);
  auto [term, voted_for] = storage_->load_hard_state();
  term_ = term;
  voted_for_ = voted_for;
  // Recovery = snapshot + durable suffix: restore the state machine from the
  // persisted snapshot (if any) and replay only the entries behind it,
  // instead of the whole log from index 1. The log is storage's own; cutting
  // it back to the durable watermark drops what a crash left unpersisted and
  // keeps the surviving segments where they are.
  snapshot_ = storage_->load_snapshot();
  storage_->recover();
  if (snapshot_) {
    DYNA_ASSERT(snapshot_->last_index >= log_.compacted_to());
    if (restore_) restore_(snapshot_);
    commit_index_ = snapshot_->last_index;
    last_applied_ = snapshot_->last_index;
    // Membership as of the snapshot line; config entries in the replayed
    // suffix re-apply on commit and converge on the final roster.
    if (!snapshot_->voters.empty() || !snapshot_->learners.empty()) {
      install_membership(snapshot_->voters, snapshot_->learners);
    }
  }
  running_ = true;
  role_ = Role::Follower;
  leader_ = kNoNode;
  refresh_randomized_timeout(/*force_redraw=*/true);
  election_timer_.arm(randomized_timeout_);
  for (Observer* o : observers_) o->on_node_started(id_, sim_->now());
}

void RaftNode::stop() {
  running_ = false;
  election_timer_.cancel();
  if (flush_scheduled_) {
    // The flush lambda captures `this`; a crashed node may be destroyed
    // before the event fires, so it must not outlive the node.
    sim_->cancel(flush_event_);
    flush_scheduled_ = false;
    flush_event_ = sim::kInvalidEvent;
  }
  for (PeerState& ps : peer_state_) ps.heartbeat_timer.reset();
  broadcast_timer_.reset();
  // A crash drops accumulated-but-unsealed commands and pending reads on the
  // floor (clients recover via their own timeouts), exactly like unreplicated
  // log entries.
  batch_acc_.clear();
  batch_acc_bytes_ = 0;
  batch_routes_.clear();
  pending_reads_.clear();
}

void RaftNode::reset_for_trial(Rng rng) {
  DYNA_EXPECTS(policy_->resettable_for_trial());
  rng_ = std::move(rng);
  policy_->reset_for_trial();

  // Timer handles predate the simulator reset: forget them (cancelling could
  // hit an unrelated fresh event with a colliding slot/generation).
  election_timer_.forget();
  for (PeerState& ps : peer_state_) {
    if (ps.heartbeat_timer) ps.heartbeat_timer->forget();
    ps.heartbeat_timer.reset();
    ps = PeerState{};
  }
  if (broadcast_timer_) broadcast_timer_->forget();
  broadcast_timer_.reset();

  // Membership changes are trial state: return to the founding roster.
  if (membership_changed_ || peers_.size() != founding_peers_.size()) {
    peers_ = founding_peers_;
    rebuild_peer_slots();
    peer_state_.resize(peers_.size());
  }
  peer_learner_.assign(peers_.size(), 0);
  self_learner_ = false;
  left_ = false;
  membership_changed_ = false;
  pending_config_ = 0;

  // Persistent-state mirrors: start() reloads them from the (reset) storage,
  // which also holds the log.
  term_ = 0;
  voted_for_ = kNoNode;
  snapshot_.reset();  // the trial's snapshot blob must not leak into the next
  snapshots_taken_ = 0;

  role_ = Role::Follower;
  leader_ = kNoNode;
  commit_index_ = 0;
  last_applied_ = 0;
  running_ = false;
  paused_ = false;

  randomized_timeout_ = Duration{};
  randomized_base_ = Duration{};
  last_leader_contact_ = kSimEpoch;

  prevote_target_ = 0;
  prevote_grants_.clear();
  vote_grants_.clear();

  // Like the timer handles above: the event predates the simulator reset, so
  // forget the handle rather than cancel through it.
  flush_scheduled_ = false;
  flush_event_ = sim::kInvalidEvent;
  match_scratch_.clear();
  frozen_election_remaining_.reset();
  frozen_broadcast_remaining_.reset();

  batch_acc_.clear();
  batch_acc_bytes_ = 0;
  batch_routes_.clear();
  batches_sealed_ = 0;
  batched_commands_ = 0;
  pending_reads_.clear();
  barrier_clock_ = 0;
  reads_served_ = 0;
}

void RaftNode::add_observer(Observer* observer) {
  DYNA_EXPECTS(observer != nullptr);
  observers_.push_back(observer);
}

std::optional<Duration> RaftNode::last_measured_rtt(NodeId follower) const {
  const int slot = peer_slot(follower);
  if (slot < 0 || !peer_state_[static_cast<std::size_t>(slot)].has_rtt) return std::nullopt;
  return peer_state_[static_cast<std::size_t>(slot)].last_rtt;
}

// ---- Pause / resume ("container sleep") --------------------------------------

void RaftNode::pause() {
  if (paused_ || !running_) return;
  paused_ = true;
  const TimePoint now = sim_->now();
  if (election_timer_.armed()) {
    frozen_election_remaining_ = election_timer_.deadline() - now;
    election_timer_.cancel();
  }
  for (PeerState& ps : peer_state_) {
    if (ps.heartbeat_timer && ps.heartbeat_timer->armed()) {
      ps.frozen_heartbeat_remaining = ps.heartbeat_timer->deadline() - now;
      ps.heartbeat_frozen = true;
      ps.heartbeat_timer->cancel();
    }
  }
  if (broadcast_timer_ && broadcast_timer_->armed()) {
    frozen_broadcast_remaining_ = broadcast_timer_->deadline() - now;
    broadcast_timer_->cancel();
  }
}

void RaftNode::resume() {
  if (!paused_ || !running_) return;
  paused_ = false;
  if (frozen_election_remaining_) {
    election_timer_.arm(*frozen_election_remaining_);
    frozen_election_remaining_.reset();
  } else if (role_ != Role::Leader) {
    reset_election_timer();
  }
  for (PeerState& ps : peer_state_) {
    if (ps.heartbeat_frozen) {
      if (ps.heartbeat_timer) ps.heartbeat_timer->arm(ps.frozen_heartbeat_remaining);
      ps.heartbeat_frozen = false;
    }
  }
  if (frozen_broadcast_remaining_ && broadcast_timer_) {
    broadcast_timer_->arm(*frozen_broadcast_remaining_);
  }
  frozen_broadcast_remaining_.reset();
}

// ---- Timers -------------------------------------------------------------------

Duration RaftNode::draw_randomized_timeout(Duration base) {
  // randomizedTimeout is uniform in [Et, 2*Et). etcd counts in ticks, so with
  // a coarse tick the draw is quantized (baseline: 100 ms steps).
  if (config_.tick > Duration{0} && base >= config_.tick) {
    const auto ticks = static_cast<std::uint64_t>(base.count() / config_.tick.count());
    const std::uint64_t randomized = ticks + rng_.uniform_index(ticks);
    return config_.tick * static_cast<std::int64_t>(randomized);
  }
  const double base_ms = to_ms(base);
  return from_ms(base_ms + rng_.uniform(0.0, base_ms));
}

void RaftNode::refresh_randomized_timeout(bool force_redraw) {
  const Duration base = policy_->election_timeout();
  // Hysteresis: retuning shifts Et by a hair on every heartbeat (fresh RTT
  // sample); redrawing for sub-2% changes would churn the randomization for
  // no benefit. Structural changes (RTT steps, fallback) always exceed it.
  const auto delta = base > randomized_base_ ? base - randomized_base_ : randomized_base_ - base;
  if (force_redraw || delta * 50 > base) {
    randomized_base_ = base;
    randomized_timeout_ = draw_randomized_timeout(base);
  }
}

void RaftNode::reset_election_timer() {
  refresh_randomized_timeout(/*force_redraw=*/false);
  election_timer_.arm(randomized_timeout_);
}

void RaftNode::on_election_deadline() {
  if (!running_ || paused_) return;
  if (role_ == Role::Leader) return;  // stale (leaders cancel this timer)
  // Learners and removed servers never campaign. The timer stays quiet until
  // leader contact re-arms it (or a Promote entry restores candidacy).
  if (self_learner_ || left_) return;

  for (Observer* o : observers_) o->on_election_timeout(id_, term_, sim_->now());
  // Dynatune: discard measurement state, fall back to conservative defaults.
  policy_->on_election_timeout();
  leader_ = kNoNode;

  start_prevote();
}

// ---- Role transitions -----------------------------------------------------------

void RaftNode::notify_role_change(Role from, Role to) {
  if (from == to) return;
  for (Observer* o : observers_) o->on_role_change(id_, from, to, term_, sim_->now());
}

void RaftNode::become_follower(Term term, NodeId leader) {
  const Role old_role = role_;
  DYNA_EXPECTS(term >= term_);
  const bool term_changed = term > term_;
  if (term_changed) {
    term_ = term;
    voted_for_ = kNoNode;
    persist_hard_state();
  }
  role_ = Role::Follower;
  if (leader != kNoNode && leader != leader_) {
    leader_ = leader;
    policy_->on_leader_changed(leader, term_);
  } else if (leader != kNoNode) {
    leader_ = leader;
  } else if (term_changed) {
    leader_ = kNoNode;
  }
  prevote_target_ = 0;  // grants gathered before this step-down are void
  prevote_grants_.clear();
  vote_grants_.clear();
  for (PeerState& ps : peer_state_) ps.heartbeat_timer.reset();
  broadcast_timer_.reset();
  fail_pending_client_work();
  notify_role_change(old_role, role_);
  if (term_changed || old_role != Role::Follower) {
    refresh_randomized_timeout(/*force_redraw=*/true);
  }
  reset_election_timer();
}

void RaftNode::start_prevote() {
  const Role old_role = role_;
  role_ = Role::PreCandidate;
  notify_role_change(old_role, role_);
  // Grants accumulate across retry rounds for the same prospective term;
  // they only reset when the target term moves.
  if (prevote_target_ != term_ + 1) {
    prevote_target_ = term_ + 1;
    prevote_grants_.clear();
  }
  prevote_grants_.insert(id_);
  // Fresh randomized draw for the retry round (the paper's "randomizes ...
  // each time a timeout occurs").
  refresh_randomized_timeout(/*force_redraw=*/true);
  election_timer_.arm(randomized_timeout_);
  if (prevote_grants_.size() >= majority()) {
    start_election();
    return;
  }
  PreVoteRequest req;
  req.term = prevote_target_;
  req.candidate = id_;
  req.last_log_index = last_log_index();
  req.last_log_term = term_at(last_log_index());
  for (std::size_t slot = 0; slot < peers_.size(); ++slot) {
    if (peer_learner_[slot] != 0) continue;  // learners hold no vote
    send(peers_[slot], req, net::Transport::Reliable, MsgKind::PreVote);
  }
}

void RaftNode::start_election() {
  const Role old_role = role_;
  role_ = Role::Candidate;
  ++term_;
  voted_for_ = id_;
  persist_hard_state();
  leader_ = kNoNode;
  vote_grants_.clear();
  vote_grants_.insert(id_);
  notify_role_change(old_role, role_);
  refresh_randomized_timeout(/*force_redraw=*/true);
  election_timer_.arm(randomized_timeout_);
  if (vote_grants_.size() >= majority()) {
    become_leader();
    return;
  }
  RequestVoteRequest req;
  req.term = term_;
  req.candidate = id_;
  req.last_log_index = last_log_index();
  req.last_log_term = term_at(last_log_index());
  for (std::size_t slot = 0; slot < peers_.size(); ++slot) {
    if (peer_learner_[slot] != 0) continue;  // learners hold no vote
    send(peers_[slot], req, net::Transport::Reliable, MsgKind::Vote);
  }
}

void RaftNode::become_leader() {
  DYNA_EXPECTS(role_ == Role::Candidate);
  const Role old_role = role_;
  role_ = Role::Leader;
  leader_ = id_;
  notify_role_change(old_role, role_);
  for (Observer* o : observers_) o->on_leader_established(id_, term_, sim_->now());
  policy_->on_became_leader();

  election_timer_.cancel();
  for (PeerState& ps : peer_state_) {
    ps = PeerState{};  // fresh reign: no match, no RTT, no suppression state
    ps.next_index = last_log_index() + 1;
  }

  // Inherit any uncommitted config change from an earlier reign: the
  // one-in-flight rule spans leaders, not reigns.
  pending_config_ = 0;
  if (commit_index_ < last_log_index()) {
    log_.for_each(commit_index_ + 1, last_log_index(), [this](const LogEntry& entry) {
      if (entry.command.is_config()) pending_config_ = entry.index;
    });
  }

  // Commit a no-op for the new term so earlier-term entries become
  // committable (Raft §5.4.2).
  LogEntry noop;
  noop.term = term_;
  noop.index = last_log_index() + 1;
  log_.append(std::move(noop));
  persist_append();

  for (std::size_t slot = 0; slot < peer_state_.size(); ++slot) {
    replicate_to(slot);
  }
  maybe_advance_commit();
  arm_heartbeat_timers();
}

// ---- Leader machinery ------------------------------------------------------------

void RaftNode::arm_heartbeat_timers() {
  if (config_.per_follower_heartbeat) {
    for (std::size_t slot = 0; slot < peers_.size(); ++slot) {
      auto timer = std::make_unique<sim::Timer>(*sim_, [this, slot] {
        with_crash_guard([this, slot] {
          if (role_ != Role::Leader || !running_ || paused_) return;
          send_heartbeat(slot);
          PeerState& ps = peer_state_[slot];
          if (ps.heartbeat_timer) {
            ps.heartbeat_timer->arm(policy_->heartbeat_interval(peers_[slot]));
          }
        });
      });
      // Stagger the initial phase per follower: real per-follower timers are
      // desynchronized, and keeping them so prevents every follower's
      // election timer from being reset in lockstep (which would manufacture
      // artificial split-vote storms on leader failure).
      const Duration h = policy_->heartbeat_interval(peers_[slot]);
      timer->arm(h / 2 + from_ms(to_ms(h) * 0.5 * rng_.uniform()));
      peer_state_[slot].heartbeat_timer = std::move(timer);
    }
  } else {
    broadcast_timer_ = std::make_unique<sim::Timer>(*sim_, [this] {
      with_crash_guard([this] {
        if (role_ != Role::Leader || !running_ || paused_) return;
        broadcast_heartbeats();
        broadcast_timer_->arm(broadcast_interval());
      });
    });
    broadcast_timer_->arm(broadcast_interval());
  }
}

Duration RaftNode::broadcast_interval() const {
  if (!config_.consolidated_heartbeat_timer) return config_.heartbeat_interval;
  // §IV-E (b): one timer paced at the minimum tuned h across followers, so
  // every path still receives at least its required heartbeat rate.
  Duration min_h = config_.heartbeat_interval;
  for (const NodeId peer : peers_) {
    min_h = std::min(min_h, policy_->heartbeat_interval(peer));
  }
  return std::max(min_h, Duration(std::chrono::milliseconds(1)));
}

void RaftNode::broadcast_heartbeats() {
  for (std::size_t slot = 0; slot < peer_state_.size(); ++slot) send_heartbeat(slot);
}

void RaftNode::send_heartbeat(std::size_t slot) {
  if (role_ != Role::Leader) return;
  PeerState& ps = peer_state_[slot];
  const NodeId follower = peers_[slot];
  // Heartbeats double as replication retries: if the follower is behind,
  // ship entries instead of an empty beat.
  if (ps.next_index <= last_log_index()) {
    replicate_to(slot);
    return;
  }
  // §IV-E (a): replication traffic within the current interval already reset
  // the follower's election timer — skip the redundant empty beat.
  if (config_.suppress_heartbeats_under_load && ps.last_sent != kNever &&
      sim_->now() - ps.last_sent < policy_->heartbeat_interval(follower)) {
    return;
  }
  AppendEntriesRequest req;
  req.term = term_;
  req.leader = id_;
  req.prev_log_index = last_log_index();
  req.prev_log_term = term_at(req.prev_log_index);
  req.leader_commit = commit_index_;
  req.read_barrier = barrier_clock_;  // 0 unless ReadIndex is live
  if (config_.measure_network) {
    HeartbeatMeta meta;
    meta.id = ++ps.next_heartbeat_id;
    meta.send_ts = sim_->now();
    if (ps.has_rtt) meta.measured_rtt = ps.last_rtt;
    req.meta = meta;
  }
  const auto transport =
      config_.datagram_heartbeats ? net::Transport::Datagram : net::Transport::Reliable;
  ps.last_sent = sim_->now();
  send(follower, std::move(req), transport, MsgKind::Heartbeat);
}

void RaftNode::schedule_flush() {
  // Replication batching window: entries submitted within it ship in one
  // AppendEntries per follower (and, under group commit, seal one batch).
  constexpr Duration kBatchDelay = 500us;
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  flush_event_ = sim_->schedule_after(kBatchDelay, [this] {
    flush_scheduled_ = false;
    flush_event_ = sim::kInvalidEvent;
    with_crash_guard([this] {
      if (!running_ || paused_) return;
      seal_batch();
      flush_replication();
      send_read_probes();
    });
  });
}

void RaftNode::flush_replication() {
  if (role_ != Role::Leader) return;
  for (std::size_t slot = 0; slot < peer_state_.size(); ++slot) {
    if (peer_state_[slot].next_index <= last_log_index()) replicate_to(slot);
  }
  maybe_advance_commit();
}

void RaftNode::replicate_to(std::size_t slot) {
  DYNA_EXPECTS(role_ == Role::Leader);
  PeerState& ps = peer_state_[slot];
  const LogIndex next = ps.next_index;
  if (next <= log_.compacted_to()) {
    // The entries this follower needs are gone (compacted): ship the whole
    // snapshot instead. Every replication path funnels through here —
    // heartbeat retries, flushes and rejection rewinds alike.
    send_install_snapshot(slot);
    return;
  }
  AppendEntriesRequest req;
  req.term = term_;
  req.leader = id_;
  req.prev_log_index = next - 1;
  req.prev_log_term = term_at(req.prev_log_index);
  req.leader_commit = commit_index_;
  req.read_barrier = barrier_clock_;  // 0 unless ReadIndex is live
  const LogIndex last = last_log_index();
  if (next <= last) {
    constexpr std::size_t kMaxEntriesPerAppend = 4096;
    const std::size_t count = std::min<std::size_t>(last - next + 1, kMaxEntriesPerAppend);
    // Shared view into the segment store: the first request of a broadcast
    // round seals the fresh suffix (a move); every later follower aliases
    // the same immutable segment. No per-follower entry copies.
    req.entries = log_.view(next, count);
    // Pipeline optimistically; rejections rewind next_index below.
    ps.next_index = next + count;
  }
  const MsgKind kind = req.entries.empty() ? MsgKind::Heartbeat : MsgKind::Append;
  ps.last_sent = sim_->now();
  send(peers_[slot], std::move(req), net::Transport::Reliable, kind);
}

void RaftNode::send_install_snapshot(std::size_t slot) {
  DYNA_EXPECTS(role_ == Role::Leader);
  // A compacted prefix implies a snapshot covering it (compaction only ever
  // happens behind a freshly persisted snapshot).
  DYNA_ASSERT(snapshot_ != nullptr && snapshot_->last_index >= log_.compacted_to());
  PeerState& ps = peer_state_[slot];
  InstallSnapshotRequest req;
  req.term = term_;
  req.leader = id_;
  req.snapshot = snapshot_;  // handle copy: the blob itself is never duplicated
  // Pipeline optimistically, like replicate_to; the response (or a later
  // rejection) corrects next_index if the transfer did not take.
  ps.next_index = snapshot_->last_index + 1;
  ps.last_sent = sim_->now();
  send(peers_[slot], std::move(req), net::Transport::Reliable, MsgKind::InstallSnapshot);
}

void RaftNode::maybe_advance_commit() {
  if (role_ != Role::Leader) return;
  // Exact O(n) pre-check: the majority-th largest match can only exceed
  // commit_index_ when at least `majority` replicas (leader included) match
  // beyond it. The idle heartbeat path used to allocate and sort an n-wide
  // vector on every response; now it is one predictable array walk.
  std::size_t above = last_log_index() > commit_index_ ? 1 : 0;
  for (std::size_t slot = 0; slot < peer_state_.size(); ++slot) {
    if (peer_learner_[slot] != 0) continue;  // learners replicate, never count
    if (peer_state_[slot].match_index > commit_index_) ++above;
  }
  if (above < majority()) return;

  match_scratch_.clear();
  match_scratch_.push_back(last_log_index());  // leader matches itself
  for (std::size_t slot = 0; slot < peer_state_.size(); ++slot) {
    if (peer_learner_[slot] != 0) continue;
    match_scratch_.push_back(peer_state_[slot].match_index);
  }
  const auto kth = match_scratch_.begin() + static_cast<std::ptrdiff_t>(majority() - 1);
  std::nth_element(match_scratch_.begin(), kth, match_scratch_.end(), std::greater<>());
  const LogIndex candidate = *kth;
  if (candidate > commit_index_ && term_at(candidate) == term_) {
    commit_index_ = candidate;
    apply_committed();
  }
}

void RaftNode::apply_committed() {
  // Walk [last_applied_+1, commit_index_] as contiguous runs of sealed
  // segments, handing the hook each entry's segment (zero-copy apply). The
  // range is usually sealed already — the broadcast that replicated it
  // sealed it — except on a single-voter leader and in restart replay;
  // there the open tail is sealed first (a move). Applying an entry cannot
  // re-enter the log or move commit_index_ synchronously (sends only
  // schedule events), so one pass per call suffices.
  if (last_applied_ >= commit_index_) return;
  const LogIndex from = last_applied_ + 1;
  const LogIndex to = commit_index_;
  log_.for_each_sealed(from, to, [&](const LogEntry& entry, const SegmentHandle& segment) {
    ++last_applied_;
    std::string result;
    if (entry.command.is_config()) {
      apply_config_change(entry);
    } else if (apply_ && !entry.command.is_noop()) {
      result = apply_(entry, segment);
    }
    for (Observer* o : observers_) o->on_entry_committed(id_, entry, sim_->now());
    if (role_ == Role::Leader && !batch_routes_.empty() &&
        batch_routes_.front().index == entry.index) {
      // Group-commit fan-out: one committed batch entry completes every
      // member individually. The state machine returned member results in
      // the frame's length-prefixed framing and order; the front route maps
      // them back to (client, seq). Routes die with the reign (see
      // fail_pending_client_work), so a front match is always ours.
      BatchRoute route = std::move(batch_routes_.front());
      batch_routes_.pop_front();
      std::size_t member = 0;
      const bool ok = kv::for_each_batch_result(result, [&](std::string_view one) {
        DYNA_ASSERT(member < route.members.size());
        ClientResponse resp;
        resp.ok = true;
        resp.leader_hint = id_;
        resp.client_seq = route.members[member].second;
        resp.index = entry.index;
        resp.result = std::string(one);
        send(route.members[member].first, std::move(resp), net::Transport::Reliable,
             MsgKind::ClientResponse);
        ++member;
      });
      DYNA_ASSERT(ok && member == route.members.size());
    } else if (role_ == Role::Leader && entry.command.client != kNoNode) {
      ClientResponse resp;
      resp.ok = true;
      resp.leader_hint = id_;
      resp.client_seq = entry.command.client_seq;
      resp.index = entry.index;
      resp.result = std::move(result);
      send(entry.command.client, std::move(resp), net::Transport::Reliable,
           MsgKind::ClientResponse);
    }
  });
  if (left_ && role_ == Role::Leader) {
    // A committed Remove for this node applied: the entry is replicated, so
    // the rest of the cluster can elect without us — abdicate.
    become_follower(term_, kNoNode);
    return;
  }
  drain_reads();  // the apply watermark moved; waiting reads may now be servable
  maybe_take_snapshot();
}

void RaftNode::maybe_take_snapshot() {
  // Compaction policy: once more than `snapshot_threshold` applied entries
  // sit behind the last compaction point, fold them into a snapshot and drop
  // the log prefix, keeping `snapshot_trailing` entries so slightly-lagging
  // followers still catch up via AppendEntries. Never called mid-apply: the
  // walk in apply_committed has finished, so the state machine is exactly at
  // last_applied_.
  if (config_.snapshot_threshold == 0 || !snapshot_fn_) return;
  if (last_applied_ - log_.compacted_to() < config_.snapshot_threshold) return;
  auto snap = std::make_shared<Snapshot>();
  snap->last_index = last_applied_;
  snap->last_term = log_.term_at(last_applied_);
  snap->data = snapshot_fn_();
  if (membership_changed_) {
    // Record the roster as of last_applied_ (sorted for determinism) so a
    // snapshot-led recovery rejoins the post-churn membership. Pre-churn
    // snapshots stay byte-identical to the legacy layout.
    if (!self_learner_ && !left_) snap->voters.push_back(id_);
    if (self_learner_ && !left_) snap->learners.push_back(id_);
    for (std::size_t slot = 0; slot < peers_.size(); ++slot) {
      (peer_learner_[slot] != 0 ? snap->learners : snap->voters).push_back(peers_[slot]);
    }
    std::sort(snap->voters.begin(), snap->voters.end());
    std::sort(snap->learners.begin(), snap->learners.end());
  }
  snapshot_ = std::move(snap);
  crash_point(fault::CrashPoint::BeforeSnapshotInstall);
  storage_->save_snapshot(snapshot_);
  crash_point(fault::CrashPoint::AfterSnapshotInstall);
  ++snapshots_taken_;
  const LogIndex keep = std::min<LogIndex>(config_.snapshot_trailing, last_applied_);
  const LogIndex cut = last_applied_ - keep;
  if (cut > log_.compacted_to()) storage_->compact_to(cut, log_.term_at(cut));
}

// ---- Message dispatch --------------------------------------------------------------

void RaftNode::handle_message(NodeId from, const Message& message) {
  if (!running_ || paused_) return;
  with_crash_guard([&] { dispatch_message(from, message); });
}

void RaftNode::dispatch_message(NodeId from, const Message& message) {
  const MsgInfo info = info_of(message);
  for (Observer* o : observers_) {
    o->on_message_received(id_, from, info.kind, info.bytes, sim_->now());
  }
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, AppendEntriesRequest>) {
          on_append_entries(from, m);
        } else if constexpr (std::is_same_v<T, AppendEntriesResponse>) {
          on_append_response(from, m);
        } else if constexpr (std::is_same_v<T, PreVoteRequest>) {
          on_prevote_request(from, m);
        } else if constexpr (std::is_same_v<T, PreVoteResponse>) {
          on_prevote_response(from, m);
        } else if constexpr (std::is_same_v<T, RequestVoteRequest>) {
          on_vote_request(from, m);
        } else if constexpr (std::is_same_v<T, RequestVoteResponse>) {
          on_vote_response(from, m);
        } else if constexpr (std::is_same_v<T, InstallSnapshotRequest>) {
          on_install_snapshot(from, m);
        } else if constexpr (std::is_same_v<T, InstallSnapshotResponse>) {
          on_install_snapshot_response(from, m);
        } else if constexpr (std::is_same_v<T, ClientRequest>) {
          on_client_request(from, m);
        } else {
          static_assert(std::is_same_v<T, ClientResponse>, "unhandled message type");
          // Raft servers do not consume client responses; ignore.
        }
      },
      message);
}

void RaftNode::send(NodeId to, Message message, net::Transport transport, MsgKind kind) {
  if (!running_ || paused_) return;
  crash_point(fault::CrashPoint::PreSend);
  const std::size_t bytes = approx_size(message);
  for (Observer* o : observers_) o->on_message_sent(id_, to, kind, bytes, sim_->now());
  net_->send(id_, to, std::move(message), transport, bytes);
}

// ---- AppendEntries ---------------------------------------------------------------

void RaftNode::on_append_entries(NodeId from, const AppendEntriesRequest& req) {
  AppendEntriesResponse resp;
  resp.heartbeat = req.is_heartbeat();

  const MsgKind resp_kind =
      resp.heartbeat ? MsgKind::HeartbeatResponse : MsgKind::AppendResponse;

  if (req.term < term_) {
    resp.term = term_;
    resp.success = false;
    resp.conflict_hint = last_log_index() + 1;
    send(from, std::move(resp), net::Transport::Reliable, resp_kind);
    return;
  }

  // Valid leader for req.term: adopt it. Two leaders can never share a term.
  DYNA_ASSERT(!(role_ == Role::Leader && req.term == term_));
  if (req.term > term_ || role_ != Role::Follower || leader_ != req.leader) {
    become_follower(req.term, req.leader);
  } else {
    leader_ = req.leader;
  }
  last_leader_contact_ = sim_->now();
  reset_election_timer();

  resp.term = term_;
  // ReadIndex: echo the barrier on every same-term response — even a log
  // mismatch confirms we regard the sender as leader for this term, which is
  // all the quorum leadership check needs.
  resp.barrier_ack = req.read_barrier;

  // Consistency check. Anything at or below the compaction point is covered
  // by the snapshot — committed state, which matches the leader's by Raft
  // safety — so only a prev_log_index above it needs a term comparison.
  if (req.prev_log_index > last_log_index()) {
    resp.success = false;
    resp.conflict_hint = last_log_index() + 1;
  } else if (req.prev_log_index > log_.compacted_to() &&
             term_at(req.prev_log_index) != req.prev_log_term) {
    // Back off to the first index of the conflicting term (never past the
    // snapshot line — everything behind it is settled).
    const Term conflict_term = term_at(req.prev_log_index);
    LogIndex hint = req.prev_log_index;
    while (hint > log_.first_index() && term_at(hint - 1) == conflict_term) --hint;
    resp.success = false;
    resp.conflict_hint = hint;
  } else {
    if (!req.entries.empty() && req.entries.first_index() == last_log_index() + 1) {
      // Pure append (the steady-state case): adopt the leader's immutable
      // segments by reference — the follower's copy of this suffix IS the
      // leader's materialization, shared cluster-wide.
      log_.append_view(req.entries);
      persist_append();
    } else {
      // Overlap with what we already hold: skip the entries we have, cut at
      // the first divergence, and adopt each new entry by reference as a
      // one-entry slice of its segment, persisting it on its own.
      req.entries.for_each_slice([&](const SegmentHandle& segment, LogIndex first,
                                     std::size_t count) {
        for (LogIndex i = first; i < first + count; ++i) {
          if (i <= log_.compacted_to()) continue;  // behind the snapshot
          if (i <= last_log_index()) {
            if (term_at(i) == segment->entry(i).term) continue;  // a duplicate: skip
            storage_->truncate_from(i);
          }
          log_.append_view(EntryView(segment, i, 1));
          persist_append();
        }
      });
    }
    resp.success = true;
    resp.match_index = req.prev_log_index + req.entries.size();
    const LogIndex new_commit = std::min<LogIndex>(req.leader_commit, resp.match_index);
    if (new_commit > commit_index_) {
      commit_index_ = new_commit;
      apply_committed();
    }
  }

  // Dynatune measurement: echo the stamp, ride the tuned h back.
  if (req.meta) {
    resp.echo_id = req.meta->id;
    resp.echo_send_ts = req.meta->send_ts;
    resp.tuned_heartbeat = policy_->on_heartbeat_meta(req.leader, *req.meta, sim_->now());
    if (resp.tuned_heartbeat) {
      for (Observer* o : observers_) {
        o->on_params_tuned(id_, policy_->election_timeout(), *resp.tuned_heartbeat, sim_->now());
      }
    }
    // The policy may have just retuned Et; re-randomize the pending deadline
    // if its base changed (Dynatune applies tuned Et immediately).
    reset_election_timer();
  }

  const bool datagram = resp.heartbeat && config_.datagram_heartbeats;
  send(from, std::move(resp), datagram ? net::Transport::Datagram : net::Transport::Reliable,
       resp_kind);
}

void RaftNode::on_append_response(NodeId from, const AppendEntriesResponse& resp) {
  if (resp.term > term_) {
    become_follower(resp.term, kNoNode);
    return;
  }
  if (role_ != Role::Leader || resp.term < term_) return;
  const int slot = peer_slot(from);
  if (slot < 0) return;  // stranger: not one of our peers
  PeerState& ps = peer_state_[static_cast<std::size_t>(slot)];

  // Measurement: RTT from the echoed leader-local timestamp (clock-skew free).
  if (resp.echo_send_ts) {
    ps.last_rtt = sim_->now() - *resp.echo_send_ts;
    ps.has_rtt = true;
  }
  if (resp.tuned_heartbeat) {
    policy_->on_tuned_heartbeat(from, *resp.tuned_heartbeat);
    // If the freshly tuned interval is shorter than the pending deadline
    // allows, bring the next beat forward (the paper applies h immediately).
    if (config_.per_follower_heartbeat && ps.heartbeat_timer && ps.heartbeat_timer->armed()) {
      const TimePoint earliest = sim_->now() + *resp.tuned_heartbeat;
      if (ps.heartbeat_timer->deadline() > earliest) ps.heartbeat_timer->arm_at(earliest);
    }
  }

  // ReadIndex: record the highest barrier this follower has echoed. Update
  // before maybe_advance_commit so a drain triggered by the commit advance
  // already sees this ack.
  if (resp.barrier_ack > ps.acked_barrier) ps.acked_barrier = resp.barrier_ack;

  if (resp.success) {
    ps.match_index = std::max(ps.match_index, resp.match_index);
    ps.next_index = std::max(ps.next_index, resp.match_index + 1);
    maybe_advance_commit();
  } else {
    // Rejection: rewind and retry immediately. When the rewind lands behind
    // the compaction point, replicate_to escalates to InstallSnapshot.
    const LogIndex hint = std::max<LogIndex>(1, resp.conflict_hint);
    ps.next_index = std::min(ps.next_index, hint);
    if (ps.next_index <= last_log_index()) replicate_to(static_cast<std::size_t>(slot));
  }
  if (!pending_reads_.empty()) drain_reads();
}

// ---- InstallSnapshot -------------------------------------------------------------

void RaftNode::on_install_snapshot(NodeId from, const InstallSnapshotRequest& req) {
  DYNA_EXPECTS(req.snapshot != nullptr);
  InstallSnapshotResponse resp;
  if (req.term < term_) {
    resp.term = term_;
    resp.success = false;
    send(from, std::move(resp), net::Transport::Reliable, MsgKind::InstallSnapshotResponse);
    return;
  }
  if (req.term > term_ || role_ != Role::Follower || leader_ != req.leader) {
    become_follower(req.term, req.leader);
  } else {
    leader_ = req.leader;
  }
  last_leader_contact_ = sim_->now();
  reset_election_timer();
  resp.term = term_;

  const Snapshot& snap = *req.snapshot;
  if (snap.last_index <= commit_index_) {
    // Stale transfer (a race with an AppendEntries catch-up that already
    // committed past it): everything it covers we already hold and applied.
    resp.success = true;
    resp.last_index = snap.last_index;
  } else {
    crash_point(fault::CrashPoint::BeforeSnapshotInstall);
    if (restore_) restore_(req.snapshot);
    snapshot_ = req.snapshot;  // adopt the shared handle; no blob copy
    storage_->save_snapshot(snapshot_);
    if (snap.last_index <= last_log_index() &&
        log_.term_at(snap.last_index) == snap.last_term) {
      // Our log extends past the snapshot and agrees with it: keep the
      // suffix, drop only the covered prefix.
      storage_->compact_to(snap.last_index, snap.last_term);
    } else {
      // Behind or divergent: the snapshot replaces the whole log.
      storage_->install(snap.last_index, snap.last_term);
    }
    commit_index_ = snap.last_index;
    last_applied_ = snap.last_index;
    if (!snap.voters.empty() || !snap.learners.empty()) {
      install_membership(snap.voters, snap.learners);
    }
    crash_point(fault::CrashPoint::AfterSnapshotInstall);
    resp.success = true;
    resp.last_index = snap.last_index;
  }
  send(from, std::move(resp), net::Transport::Reliable, MsgKind::InstallSnapshotResponse);
}

void RaftNode::on_install_snapshot_response(NodeId from, const InstallSnapshotResponse& resp) {
  if (resp.term > term_) {
    become_follower(resp.term, kNoNode);
    return;
  }
  if (role_ != Role::Leader || resp.term < term_ || !resp.success) return;
  const int slot = peer_slot(from);
  if (slot < 0) return;  // stranger: not one of our peers
  PeerState& ps = peer_state_[static_cast<std::size_t>(slot)];
  ps.match_index = std::max(ps.match_index, resp.last_index);
  ps.next_index = std::max(ps.next_index, resp.last_index + 1);
  maybe_advance_commit();
  if (ps.next_index <= last_log_index()) replicate_to(static_cast<std::size_t>(slot));
}

// ---- Pre-vote ----------------------------------------------------------------------

bool RaftNode::heard_from_leader_recently() const {
  if (leader_ == kNoNode || leader_ == id_) return false;
  return (sim_->now() - last_leader_contact_) < policy_->election_timeout();
}

void RaftNode::on_prevote_request(NodeId from, const PreVoteRequest& req) {
  PreVoteResponse resp;
  resp.term = term_;
  resp.target_term = req.term;
  // Grant iff the candidate could plausibly win: its log is up to date, its
  // prospective term is not behind ours, and we ourselves have lost the
  // leader (leader stickiness — the key to surviving RTT spikes).
  resp.granted = !self_learner_ && !left_ && req.term >= term_ &&
                 log_up_to_date(req.last_log_index, req.last_log_term) &&
                 !heard_from_leader_recently();
  send(from, std::move(resp), net::Transport::Reliable, MsgKind::PreVoteResponse);
}

void RaftNode::on_prevote_response(NodeId from, const PreVoteResponse& resp) {
  if (resp.term > term_) {
    become_follower(resp.term, kNoNode);
    return;
  }
  if (role_ != Role::PreCandidate || resp.target_term != prevote_target_) return;
  if (!resp.granted) return;
  prevote_grants_.insert(from);
  if (prevote_grants_.size() >= majority()) {
    start_election();
  }
}

// ---- Votes --------------------------------------------------------------------------

void RaftNode::on_vote_request(NodeId from, const RequestVoteRequest& req) {
  if (req.term > term_) {
    become_follower(req.term, kNoNode);
  }
  RequestVoteResponse resp;
  resp.term = term_;
  resp.granted = !self_learner_ && !left_ && req.term == term_ &&
                 (voted_for_ == kNoNode || voted_for_ == req.candidate) &&
                 log_up_to_date(req.last_log_index, req.last_log_term);
  if (resp.granted) {
    voted_for_ = req.candidate;
    persist_hard_state();
    reset_election_timer();  // granting a vote defers our own candidacy
  }
  send(from, std::move(resp), net::Transport::Reliable, MsgKind::VoteResponse);
}

void RaftNode::on_vote_response(NodeId from, const RequestVoteResponse& resp) {
  if (resp.term > term_) {
    become_follower(resp.term, kNoNode);
    return;
  }
  if (role_ != Role::Candidate || resp.term < term_ || !resp.granted) return;
  vote_grants_.insert(from);
  if (vote_grants_.size() >= majority()) {
    become_leader();
  }
}

// ---- Client path ----------------------------------------------------------------------

void RaftNode::on_client_request(NodeId from, const ClientRequest& req) {
  if (role_ != Role::Leader) {
    ClientResponse resp;
    resp.ok = false;
    resp.leader_hint = leader_;
    resp.client_seq = req.command.client_seq;
    send(from, std::move(resp), net::Transport::Reliable, MsgKind::ClientResponse);
    return;
  }

  // ReadIndex fast path: a read-only command never touches the log. Remember
  // the commit index and take a barrier ticket; the read completes once a
  // quorum echoes the ticket back (leadership confirmed after admission) and
  // the state machine catches up to the remembered index.
  if (config_.read_index && read_only_fn_ && read_fn_ && read_only_fn_(req.command.payload)) {
    PendingRead pr;
    pr.barrier = ++barrier_clock_;
    pr.read_index = commit_index_;
    pr.payload = req.command.payload;
    pr.client = from;
    pr.client_seq = req.command.client_seq;
    pending_reads_.push_back(std::move(pr));
    if (peers_.empty()) {
      drain_reads();  // single-node cluster: the leader IS the quorum
    } else {
      schedule_flush();  // the flush rides a barrier probe to the quorum
    }
    return;
  }

  // Group commit: accumulate into the open batch; seal early when a cap
  // trips, otherwise let the batching-window flush seal it.
  if (config_.group_commit) {
    constexpr std::size_t kMaxBatchBytes = 64 * 1024;
    const std::size_t add = kv::batch_overhead(req.command.payload);
    if (!batch_acc_.empty() && batch_acc_bytes_ + add > kMaxBatchBytes) {
      seal_batch();  // this member would overflow the byte cap: seal without it
      flush_replication();
    }
    batch_acc_.push_back(PendingCommand{req.command.payload, from, req.command.client_seq});
    batch_acc_bytes_ += add;
    if (batch_acc_.size() >= config_.max_batch_commands ||
        batch_acc_bytes_ >= kMaxBatchBytes) {
      seal_batch();
      flush_replication();
    } else {
      schedule_flush();
    }
    return;
  }

  Command cmd = req.command;
  cmd.client = from;  // route the eventual response to the sender
  submit(std::move(cmd));
}

LogIndex RaftNode::append_leader_entry(Command command) {
  LogEntry entry;
  entry.term = term_;
  entry.index = last_log_index() + 1;
  entry.command = std::move(command);
  const LogIndex index = entry.index;
  log_.append(std::move(entry));
  persist_append();
  return index;
}

std::optional<LogIndex> RaftNode::submit(Command command) {
  if (role_ != Role::Leader || !running_ || paused_) return std::nullopt;
  std::optional<LogIndex> index;
  with_crash_guard([&] {
    index = append_leader_entry(std::move(command));
    schedule_flush();
    if (majority() == 1) maybe_advance_commit();  // single-node cluster
  });
  return index;
}

std::optional<LogIndex> RaftNode::propose_config_change(ConfigChange kind, NodeId target) {
  DYNA_EXPECTS(kind != ConfigChange::None);
  DYNA_EXPECTS(target >= 0);
  if (role_ != Role::Leader || !running_ || paused_) return std::nullopt;
  // Single-server changes only, one at a time: consecutive changes share a
  // majority, so election safety holds without joint consensus.
  if (pending_config_ > commit_index_) return std::nullopt;
  std::optional<LogIndex> index;
  with_crash_guard([&] {
    Command cmd;
    cmd.config_change = kind;
    cmd.config_target = target;
    index = append_leader_entry(std::move(cmd));
    pending_config_ = *index;
    schedule_flush();
    if (majority() == 1) maybe_advance_commit();
  });
  return index;
}

void RaftNode::seal_batch() {
  if (batch_acc_.empty() || role_ != Role::Leader) return;
  const std::size_t frame_bytes = std::exchange(batch_acc_bytes_, 0);
  if (batch_acc_.size() == 1) {
    // A batch of one gains nothing from the frame: submit it as a plain
    // entry with the ordinary single-client routing (and keep the batch
    // counters honest — nothing was coalesced).
    PendingCommand pc = std::move(batch_acc_.front());
    batch_acc_.clear();
    Command cmd;
    cmd.payload = std::move(pc.payload);
    cmd.client = pc.client;
    cmd.client_seq = pc.client_seq;
    append_leader_entry(std::move(cmd));
    if (majority() == 1) maybe_advance_commit();
    return;
  }
  ++batches_sealed_;
  batched_commands_ += batch_acc_.size();
  std::string frame;
  frame.reserve(1 + frame_bytes);  // the tag plus every member's overhead: exact
  BatchRoute route;
  route.members.reserve(batch_acc_.size());
  for (PendingCommand& pc : batch_acc_) {
    kv::batch_append(frame, pc.payload);
    route.members.emplace_back(pc.client, pc.client_seq);
  }
  batch_acc_.clear();
  Command cmd;
  cmd.payload = std::move(frame);
  // cmd.client stays kNoNode: completion fan-out is driven by the route, not
  // the single-client field.
  route.index = last_log_index() + 1;
  batch_routes_.push_back(std::move(route));
  crash_point(fault::CrashPoint::MidBatchSeal);
  append_leader_entry(std::move(cmd));
  if (majority() == 1) maybe_advance_commit();
}

void RaftNode::send_read_probes() {
  // Confirm leadership for pending reads without waiting for the next
  // heartbeat: ship an empty AppendEntries carrying the current barrier to
  // every follower this flush round didn't already reach (replicate_to and
  // send_heartbeat stamp the barrier too, so a follower that just received
  // entries needs no probe).
  if (pending_reads_.empty() || role_ != Role::Leader) return;
  const TimePoint now = sim_->now();
  for (std::size_t slot = 0; slot < peer_state_.size(); ++slot) {
    PeerState& ps = peer_state_[slot];
    if (ps.last_sent == now) continue;
    AppendEntriesRequest req;
    req.term = term_;
    req.leader = id_;
    req.prev_log_index = last_log_index();
    req.prev_log_term = term_at(req.prev_log_index);
    req.leader_commit = commit_index_;
    req.read_barrier = barrier_clock_;
    if (config_.measure_network) {
      HeartbeatMeta meta;
      meta.id = ++ps.next_heartbeat_id;
      meta.send_ts = now;
      if (ps.has_rtt) meta.measured_rtt = ps.last_rtt;
      req.meta = meta;
    }
    // Probes always ride the reliable channel: a lost ack is a stalled read,
    // not just a late timeout reset.
    ps.last_sent = now;
    send(peers_[slot], std::move(req), net::Transport::Reliable, MsgKind::Heartbeat);
  }
}

void RaftNode::drain_reads() {
  if (pending_reads_.empty() || role_ != Role::Leader) return;
  // ReadIndex precondition: this reign has committed an entry (its no-op),
  // so commit_index_ provably covers every write an earlier leader could
  // have acknowledged.
  if (term_at(commit_index_) != term_) return;
  while (!pending_reads_.empty()) {
    const PendingRead& pr = pending_reads_.front();
    if (pr.read_index > last_applied_) return;  // machine not caught up yet
    std::size_t confirmed = 1;  // the leader itself
    for (std::size_t slot = 0; slot < peer_state_.size(); ++slot) {
      if (peer_learner_[slot] != 0) continue;  // quorum is over voters only
      if (peer_state_[slot].acked_barrier >= pr.barrier) ++confirmed;
    }
    if (confirmed < majority()) return;  // FIFO: later reads can't pass either
    ClientResponse resp;
    resp.ok = true;
    resp.leader_hint = id_;
    resp.client_seq = pr.client_seq;
    resp.index = pr.read_index;
    resp.result = read_fn_(pr.payload);
    send(pr.client, std::move(resp), net::Transport::Reliable, MsgKind::ClientResponse);
    ++reads_served_;
    pending_reads_.pop_front();
  }
}

void RaftNode::fail_pending_client_work() {
  // Step-down: NACK accumulated-but-unsealed commands and pending reads so
  // their clients re-route to the new leader instead of timing out. Routes
  // for already-sealed batches die too — if those entries survive into the
  // new reign and commit, their members' clients retry and find the result
  // via normal redirect (same as any unacknowledged single entry).
  for (const PendingCommand& pc : batch_acc_) {
    ClientResponse resp;
    resp.ok = false;
    resp.leader_hint = leader_;
    resp.client_seq = pc.client_seq;
    send(pc.client, std::move(resp), net::Transport::Reliable, MsgKind::ClientResponse);
  }
  batch_acc_.clear();
  batch_acc_bytes_ = 0;
  for (const PendingRead& pr : pending_reads_) {
    ClientResponse resp;
    resp.ok = false;
    resp.leader_hint = leader_;
    resp.client_seq = pr.client_seq;
    send(pr.client, std::move(resp), net::Transport::Reliable, MsgKind::ClientResponse);
  }
  pending_reads_.clear();
  batch_routes_.clear();
}

// ---- Log helpers -----------------------------------------------------------------------

Term RaftNode::term_at(LogIndex index) const { return log_.term_at(index); }

bool RaftNode::log_up_to_date(LogIndex their_index, Term their_term) const {
  const Term my_term = term_at(last_log_index());
  if (their_term != my_term) return their_term > my_term;
  return their_index >= last_log_index();
}

void RaftNode::persist_hard_state() {
  crash_point(fault::CrashPoint::BeforePersistHardState);
  storage_->save_hard_state(term_, voted_for_);
  crash_point(fault::CrashPoint::AfterPersistHardState);
}

void RaftNode::persist_append() {
  // log_ already holds the suffix; persisting it advances storage's durable
  // watermark over it. A BeforePersistAppend crash is the plug pulled
  // between the volatile append and the durable one: the restart cuts the
  // log back to the watermark, so the entries are lost — exactly the window
  // a real fsync gap leaves open.
  crash_point(fault::CrashPoint::BeforePersistAppend);
  storage_->persist_log();
  crash_point(fault::CrashPoint::AfterPersistAppend);
}

// ---- Membership --------------------------------------------------------------------

void RaftNode::rebuild_peer_slots() {
  NodeId max_peer = -1;
  for (const NodeId p : peers_) max_peer = std::max(max_peer, p);
  peer_slot_.assign(static_cast<std::size_t>(max_peer + 1), -1);
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    peer_slot_[static_cast<std::size_t>(peers_[i])] = static_cast<int>(i);
  }
}

void RaftNode::rebuild_leader_timers() {
  if (role_ != Role::Leader || !running_) return;
  for (PeerState& ps : peer_state_) ps.heartbeat_timer.reset();
  broadcast_timer_.reset();
  arm_heartbeat_timers();
}

void RaftNode::add_peer(NodeId peer, bool learner) {
  if (peer == id_) return;
  const int slot = peer_slot(peer);
  if (slot >= 0) {
    peer_learner_[static_cast<std::size_t>(slot)] = learner ? 1 : 0;
    return;
  }
  peers_.push_back(peer);
  peer_learner_.push_back(learner ? 1 : 0);
  PeerState ps;
  ps.next_index = last_log_index() + 1;
  peer_state_.push_back(std::move(ps));
  rebuild_peer_slots();
  if (role_ == Role::Leader) {
    rebuild_leader_timers();
    replicate_to(peer_state_.size() - 1);
  }
}

void RaftNode::remove_peer(NodeId peer) {
  const int slot = peer_slot(peer);
  if (slot < 0) return;
  const auto s = static_cast<std::size_t>(slot);
  if (peer_state_[s].heartbeat_timer) peer_state_[s].heartbeat_timer.reset();
  peers_.erase(peers_.begin() + slot);
  peer_learner_.erase(peer_learner_.begin() + slot);
  peer_state_.erase(peer_state_.begin() + slot);
  rebuild_peer_slots();
  // Stale grants from the departed voter must not count toward any quorum.
  prevote_grants_.erase(peer);
  vote_grants_.erase(peer);
  if (role_ == Role::Leader) {
    // Per-follower timer lambdas capture slots, which just shifted.
    rebuild_leader_timers();
    maybe_advance_commit();  // quorum shrank: pending entries may commit now
  }
}

void RaftNode::install_membership(const std::vector<NodeId>& voters,
                                  const std::vector<NodeId>& learners) {
  const auto contains = [](const std::vector<NodeId>& v, NodeId n) {
    return std::find(v.begin(), v.end(), n) != v.end();
  };
  std::vector<NodeId> next_peers;
  std::vector<std::uint8_t> next_learner;
  for (const NodeId n : voters) {
    if (n == id_) continue;
    next_peers.push_back(n);
    next_learner.push_back(0);
  }
  for (const NodeId n : learners) {
    if (n == id_) continue;
    next_peers.push_back(n);
    next_learner.push_back(1);
  }
  const bool self_learner = contains(learners, id_);
  const bool left = !self_learner && !contains(voters, id_);
  if (next_peers == peers_ && next_learner == peer_learner_ && self_learner == self_learner_ &&
      left == left_) {
    return;  // identical view: take no action (keeps legacy trials untouched)
  }
  membership_changed_ = true;
  self_learner_ = self_learner;
  left_ = left;
  peers_ = std::move(next_peers);
  peer_learner_ = std::move(next_learner);
  peer_state_.clear();
  peer_state_.resize(peers_.size());
  for (PeerState& ps : peer_state_) ps.next_index = last_log_index() + 1;
  rebuild_peer_slots();
  if (role_ == Role::Leader) rebuild_leader_timers();
}

void RaftNode::apply_config_change(const LogEntry& entry) {
  const NodeId target = entry.command.config_target;
  membership_changed_ = true;
  switch (entry.command.config_change) {
    case ConfigChange::None:
      break;
    case ConfigChange::AddVoter:
      if (target == id_) {
        self_learner_ = false;
        left_ = false;
      } else {
        add_peer(target, /*learner=*/false);
      }
      break;
    case ConfigChange::AddLearner:
      if (target == id_) {
        self_learner_ = true;
      } else {
        add_peer(target, /*learner=*/true);
      }
      break;
    case ConfigChange::Promote:
      if (target == id_) {
        self_learner_ = false;
      } else {
        add_peer(target, /*learner=*/false);  // idempotent: promotes if present
      }
      break;
    case ConfigChange::Remove:
      if (target == id_) {
        left_ = true;  // leader abdication happens after the apply walk
      } else {
        remove_peer(target);
      }
      break;
  }
  if (entry.index >= pending_config_) pending_config_ = 0;
}

}  // namespace dyna::raft
