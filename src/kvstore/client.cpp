#include "kvstore/client.hpp"

#include <algorithm>
#include <utility>

namespace dyna::kv {

KvClient::KvClient(sim::Simulator& simulator, net::Network& network, std::vector<NodeId> servers,
                   Rng rng)
    : sim_(&simulator), net_(&network), servers_(std::move(servers)), rng_(std::move(rng)) {
  DYNA_EXPECTS(!servers_.empty());
  endpoint_ = net_->add_node([this](NodeId from, const net::Message& payload) {
    on_message(from, payload);
  });
  target_ = servers_[rng_.uniform_index(servers_.size())];
  pending_.resize(16);  // power of two; grows on in-flight window overflow
}

KvClient::~KvClient() {
  // In-flight state must not reach back into a destroyed client: the retry /
  // backoff timers and the endpoint handler all capture `this`. Late server
  // responses then land on a null handler and are dropped.
  for (PendingSlot& s : pending_) {
    if (s.live && s.p.timeout_event != sim::kInvalidEvent) sim_->cancel(s.p.timeout_event);
  }
  net_->set_handler(endpoint_, nullptr);
}

// ---- Pending table (open-addressed on seq) ------------------------------------

KvClient::Pending* KvClient::find_pending(std::uint64_t seq) noexcept {
  PendingSlot& s = pending_[seq & (pending_.size() - 1)];
  return s.live && s.seq == seq ? &s.p : nullptr;
}

KvClient::Pending& KvClient::insert_pending(std::uint64_t seq) {
  while (pending_[seq & (pending_.size() - 1)].live) grow_pending();
  PendingSlot& s = pending_[seq & (pending_.size() - 1)];
  s.seq = seq;
  s.live = true;
  ++pending_live_;
  s.p = Pending{};
  return s.p;
}

void KvClient::grow_pending() {
  // Double until every live seq maps to a distinct slot (checked before
  // moving anything, so a failed candidate size costs no element moves).
  for (std::size_t cap = pending_.size() * 2;; cap *= 2) {
    std::vector<char> used(cap, 0);
    bool distinct = true;
    for (const PendingSlot& s : pending_) {
      if (!s.live) continue;
      char& u = used[s.seq & (cap - 1)];
      if (u != 0) {
        distinct = false;
        break;
      }
      u = 1;
    }
    if (!distinct) continue;
    std::vector<PendingSlot> fresh(cap);
    for (PendingSlot& s : pending_) {
      if (s.live) fresh[s.seq & (cap - 1)] = std::move(s);
    }
    pending_ = std::move(fresh);
    return;
  }
}

void KvClient::put(std::string key, std::string value, DoneFn done) {
  KvCommand cmd{Op::Put, std::move(key), std::move(value), {}};
  submit(encode(cmd), std::move(done));
}

void KvClient::get(std::string key, DoneFn done) {
  KvCommand cmd{Op::Get, std::move(key), {}, {}};
  submit(encode(cmd), std::move(done));
}

void KvClient::submit(std::string payload, DoneFn done) {
  const std::uint64_t seq = next_seq_++;
  Pending& p = insert_pending(seq);
  p.payload = std::move(payload);
  p.done = std::move(done);
  p.submitted = sim_->now();
  send_attempt(seq);
}

void KvClient::send_attempt(std::uint64_t seq) {
  Pending* pp = find_pending(seq);
  if (pp == nullptr) return;
  Pending& p = *pp;

  constexpr int kMaxAttempts = 20;
  if (p.attempts >= kMaxAttempts) {
    complete(seq, false, "ERR too-many-attempts");
    return;
  }
  ++p.attempts;
  if (p.attempts > 1) ++retries_;

  raft::ClientRequest req;
  req.command.payload = p.payload;
  req.command.client = endpoint_;
  req.command.client_seq = seq;
  net_->send(endpoint_, target_, raft::Message(std::move(req)), net::Transport::Reliable,
             64 + p.payload.size());

  constexpr Duration kRequestTimeout = 1s;  // per attempt, then retry elsewhere
  p.timeout_event = sim_->schedule_after(kRequestTimeout, [this, seq] {
    Pending* pending = find_pending(seq);
    if (pending == nullptr) return;
    pending->timeout_event = sim::kInvalidEvent;
    rotate_target();  // leader may be down: try another server
    send_attempt(seq);
  });
}

void KvClient::rotate_target() {
  const auto it = std::find(servers_.begin(), servers_.end(), target_);
  const std::size_t idx = it == servers_.end()
                              ? rng_.uniform_index(servers_.size())
                              : (static_cast<std::size_t>(it - servers_.begin()) + 1) %
                                    servers_.size();
  target_ = servers_[idx];
}

void KvClient::on_message(NodeId /*from*/, const net::Message& payload) {
  const raft::Message* msg = payload.raft();
  if (msg == nullptr) return;
  const auto* resp = std::get_if<raft::ClientResponse>(msg);
  if (resp == nullptr) return;

  Pending* pp = find_pending(resp->client_seq);
  if (pp == nullptr) return;  // duplicate/late response
  Pending& p = *pp;

  if (resp->ok) {
    complete(resp->client_seq, true, resp->result);
    return;
  }

  // Redirected: follow the hint (or rotate) after a short backoff.
  if (p.timeout_event != sim::kInvalidEvent) {
    sim_->cancel(p.timeout_event);
    p.timeout_event = sim::kInvalidEvent;
  }
  // Follow the hint only if it names a server we still know: a follower that
  // hasn't applied a Remove yet can hint at a departed node, and chasing it
  // would spin against a dead endpoint until the attempt budget ran out.
  if (resp->leader_hint != kNoNode &&
      std::find(servers_.begin(), servers_.end(), resp->leader_hint) != servers_.end()) {
    target_ = resp->leader_hint;
  } else {
    rotate_target();
  }
  // Track the backoff event in the same slot as the retry timer so teardown
  // can cancel it; send_attempt overwrites the slot when it fires.
  const std::uint64_t seq = resp->client_seq;
  constexpr Duration kRedirectBackoff = 5ms;
  p.timeout_event =
      sim_->schedule_after(kRedirectBackoff, [this, seq] { send_attempt(seq); });
}

void KvClient::complete(std::uint64_t seq, bool ok, std::string value) {
  PendingSlot& slot = pending_[seq & (pending_.size() - 1)];
  DYNA_ASSERT(slot.live && slot.seq == seq);
  Pending p = std::move(slot.p);
  slot.live = false;
  --pending_live_;
  if (p.timeout_event != sim::kInvalidEvent) sim_->cancel(p.timeout_event);
  if (ok) {
    ++completed_;
    if (leader_listener_) leader_listener_(target_);
  } else {
    ++failed_;
  }
  if (p.done) {
    ClientResult result;
    result.ok = ok;
    result.value = std::move(value);
    result.latency = sim_->now() - p.submitted;
    result.attempts = p.attempts;
    p.done(result);
  }
}

}  // namespace dyna::kv
