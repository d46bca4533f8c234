// Replicated state machine interface + the etcd-like KV implementation.
//
// Every replica applies the same committed payload sequence; determinism of
// apply() is what makes State Machine Replication hold, and the test suite
// checks replicas byte-for-byte against each other.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kvstore/command.hpp"

namespace dyna::kv {

/// Keep-alive handle on an immutable buffer: while any copy lives, the bytes
/// it guards stay allocated and unchanged. The raft log passes the LogSegment
/// a committed entry lives in; a restore passes the Snapshot blob's handle.
using Owner = std::shared_ptr<const void>;

/// A stored value: a view of its bytes plus the owner that keeps them alive.
/// 32 B on 64-bit targets, as big as a libstdc++ std::string. Every replica
/// that applied the same committed PUT aliases the same bytes in the same
/// immutable log segment.
struct Value {
  std::string_view bytes;
  Owner owner;

  /// Exact content equality. Values aliasing the same bytes (replicas that
  /// share a segment) compare in O(1); others fall back to a byte compare.
  friend bool operator==(const Value& a, const Value& b) noexcept {
    return (a.bytes.data() == b.bytes.data() && a.bytes.size() == b.bytes.size()) ||
           a.bytes == b.bytes;
  }
  friend bool operator==(const Value& a, std::string_view b) noexcept { return a.bytes == b; }
  friend std::ostream& operator<<(std::ostream& os, const Value& v) { return os << v.bytes; }
};

/// A private, immutable copy of `bytes` (one allocation) that is its own
/// owner: what the entry points whose caller only lends the bytes alias.
[[nodiscard]] inline Value share(std::string_view bytes) {
  auto buf = std::make_shared_for_overwrite<char[]>(bytes.size());
  std::copy(bytes.begin(), bytes.end(), buf.get());
  return Value{std::string_view(buf.get(), bytes.size()), std::move(buf)};
}

class StateMachine {
 public:
  virtual ~StateMachine() = default;

  /// Apply one committed command payload; returns the client-visible result.
  /// `owner` keeps the payload's bytes alive and unchanged for as long as any
  /// copy of it lives, so an implementation may keep views into the payload
  /// past the call instead of copying what it stores.
  virtual std::string apply(std::string_view payload, const Owner& owner) = 0;

  /// Apply a payload the caller only lends for the call: it is copied once
  /// into a shared buffer, which then owns it.
  std::string apply(std::string_view payload) {
    const Value copy = share(payload);
    return apply(copy.bytes, copy.owner);
  }

  /// Serialize the full machine state. Must be deterministic: two replicas
  /// in the same logical state must produce byte-identical blobs, whatever
  /// history brought them there (snapshots are compared and shipped across
  /// replicas).
  [[nodiscard]] virtual std::string snapshot() const = 0;

  /// Replace the machine state with a blob produced by snapshot(); `owner`
  /// keeps the blob's bytes alive, as for apply().
  virtual void restore(std::string_view blob, const Owner& owner) = 0;

  /// Restore from a lent blob: copied once into a shared buffer first.
  void restore(std::string_view blob) {
    const Value copy = share(blob);
    restore(copy.bytes, copy.owner);
  }
};

/// In-memory KV store with a global revision counter (mirrors etcd's
/// semantics at the granularity the experiments need — the Op vocabulary is
/// point ops only, so a hash index is observationally equivalent to etcd's
/// ordered index and keeps apply O(1)). The apply path is zero-copy: commands
/// decode to views, lookups are heterogeneous, and a stored value aliases the
/// payload it came from (kept alive by the owner apply() is handed), so
/// replicating a PUT stream across a 65-node cluster neither copies the value
/// once per replica nor turns into an allocator benchmark. Only a new key
/// allocates (its hash node and key string).
class KvStateMachine final : public StateMachine {
 public:
  using StateMachine::apply;
  using StateMachine::restore;

  std::string apply(std::string_view payload, const Owner& owner) override {
    if (is_batch(payload)) {
      // Group-commit frame: apply members in order, return member results in
      // the same length-prefixed framing (the leader fans them back out to
      // the per-command client completions). A malformed member poisons only
      // its own result slot — the frame keeps its arity either way. Members
      // are slices of the frame, so the frame's owner covers them.
      std::string out;
      const bool ok = for_each_batched(payload, [&](std::string_view member) {
        detail::encode_field(out, apply_one(member, owner));
      });
      if (!ok) return "ERR malformed-batch";
      return out;
    }
    return apply_one(payload, owner);
  }

  /// Apply a single (non-batch) command payload the caller only lends: a
  /// PUT or CAS, whose value the store keeps, copies it once into a shared
  /// buffer first; GET and DEL store nothing and copy nothing.
  std::string apply_one(std::string_view payload) {
    if (!payload.empty() && (payload.front() == static_cast<char>(Op::Put) ||
                             payload.front() == static_cast<char>(Op::Cas))) {
      const Value copy = share(payload);
      return apply_one(copy.bytes, copy.owner);
    }
    return apply_one(payload, nullptr);
  }

  /// Deterministic serialization: the revision, then every (key, value) pair
  /// in sorted key order, all fields length-prefixed (the same <len>:<bytes>
  /// framing the command encoding uses). Sorting matters: the hash map's
  /// iteration order depends on insertion history, which differs between a
  /// replica that applied every command and one restored from an earlier
  /// snapshot — equal states must serialize identically.
  [[nodiscard]] std::string snapshot() const override {
    std::vector<std::string_view> keys;
    keys.reserve(data_.size());
    for (const auto& [key, value] : data_) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    std::string out;
    char rev[24];
    const auto [end, ec] = std::to_chars(rev, rev + sizeof rev, revision_);
    (void)ec;  // 64-bit decimal always fits
    detail::encode_field(out, std::string_view(rev, end));
    for (const std::string_view key : keys) {
      detail::encode_field(out, key);
      detail::encode_field(out, data_.find(key)->second.bytes);
    }
    return out;
  }

  /// Values alias the blob (the restored store holds no copy of it).
  void restore(std::string_view blob, const Owner& owner) override {
    DYNA_EXPECTS(owner != nullptr);
    data_.clear();
    std::size_t pos = 0;
    const auto rev = detail::decode_field(blob, pos);
    DYNA_EXPECTS(rev.has_value());
    revision_ = 0;
    const auto [ptr, ec] =
        std::from_chars(rev->data(), rev->data() + rev->size(), revision_);
    DYNA_EXPECTS(ec == std::errc{} && ptr == rev->data() + rev->size());
    while (pos < blob.size()) {
      const auto key = detail::decode_field(blob, pos);
      const auto value = detail::decode_field(blob, pos);
      DYNA_EXPECTS(key.has_value() && value.has_value());
      data_.emplace(*key, Value{*value, owner});
    }
  }

  /// Transparent hash so find(string_view) never materializes a key.
  struct StringHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  using Store = std::unordered_map<std::string, Value, StringHash, std::equal_to<>>;

  // ---- Introspection (tests, examples) ----
  [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] const Store& data() const noexcept { return data_; }

  /// Exact state equality: same revision, same (key, value) set. Agrees with
  /// comparing snapshot() bytes (that encoding is injective) but needs no
  /// sort and no allocation — replicas are compared in place, and values
  /// that alias one segment compare without touching their bytes.
  [[nodiscard]] friend bool operator==(const KvStateMachine& a, const KvStateMachine& b) {
    return a.revision_ == b.revision_ && a.data_ == b.data_;
  }

  /// Empty store, revision 0 — a brand-new replica. Keeps the hash table's
  /// bucket array (trial reuse).
  void reset_for_trial() {
    data_.clear();
    revision_ = 0;
  }

 private:
  /// Apply a single (non-batch) command whose bytes `owner` keeps alive: a
  /// stored value aliases the payload instead of copying it.
  std::string apply_one(std::string_view payload, const Owner& owner) {
    const auto cmd = decode_view(payload);
    if (!cmd) return "ERR malformed";
    switch (cmd->op) {
      case Op::Put: {
        DYNA_EXPECTS(owner != nullptr);
        ++revision_;
        const auto it = data_.find(cmd->key);
        if (it == data_.end()) {
          data_.emplace(cmd->key, Value{cmd->value, owner});
        } else {
          it->second = Value{cmd->value, owner};
        }
        return ok_result(revision_);
      }
      case Op::Get: {
        const auto it = data_.find(cmd->key);
        return it == data_.end() ? "(nil)" : std::string(it->second.bytes);
      }
      case Op::Del: {
        const auto it = data_.find(cmd->key);
        if (it == data_.end()) return "(nil)";
        data_.erase(it);
        ++revision_;
        return ok_result(revision_);
      }
      case Op::Cas: {
        DYNA_EXPECTS(owner != nullptr);
        const auto it = data_.find(cmd->key);
        if (it != data_.end() && it->second == cmd->expected) {
          ++revision_;
          it->second = Value{cmd->value, owner};
          return ok_result(revision_);
        }
        return "FAIL";
      }
    }
    return "ERR unknown-op";
  }

  /// "OK <revision>" without the snprintf detour inside std::to_string.
  [[nodiscard]] static std::string ok_result(std::uint64_t rev) {
    char buf[24] = {'O', 'K', ' '};
    const auto [end, ec] = std::to_chars(buf + 3, buf + sizeof(buf), rev);
    (void)ec;  // 64-bit decimal always fits in 21 chars
    return std::string(buf, end);
  }

  Store data_;
  std::uint64_t revision_ = 0;
};

}  // namespace dyna::kv
