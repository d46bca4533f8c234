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
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kvstore/command.hpp"

namespace dyna::kv {

class StateMachine {
 public:
  virtual ~StateMachine() = default;

  /// Apply one committed command payload; returns the client-visible result.
  /// The payload is borrowed for the duration of the call (the log entry
  /// owns it), so implementations can decode it zero-copy.
  virtual std::string apply(std::string_view payload) = 0;

  /// Serialize the full machine state. Must be deterministic: two replicas
  /// in the same logical state must produce byte-identical blobs, whatever
  /// history brought them there (snapshots are compared and shipped across
  /// replicas).
  [[nodiscard]] virtual std::string snapshot() const = 0;

  /// Replace the machine state with a blob produced by snapshot().
  virtual void restore(std::string_view blob) = 0;
};

/// In-memory KV store with a global revision counter (mirrors etcd's
/// semantics at the granularity the experiments need — the Op vocabulary is
/// point ops only, so a hash index is observationally equivalent to etcd's
/// ordered index and keeps apply O(1)). The apply path is allocation-free
/// except where the store fundamentally must own bytes (a new key, a value
/// overwrite beyond capacity): commands decode to views and lookups are
/// heterogeneous, so replicating a PUT stream across a 65-node cluster does
/// not turn into an allocator-and-red-black-tree benchmark.
class KvStateMachine final : public StateMachine {
 public:
  std::string apply(std::string_view payload) override {
    if (is_batch(payload)) {
      // Group-commit frame: apply members in order, return member results in
      // the same length-prefixed framing (the leader fans them back out to
      // the per-command client completions). A malformed member poisons only
      // its own result slot — the frame keeps its arity either way.
      std::string out;
      const bool ok = for_each_batched(payload, [&](std::string_view member) {
        detail::encode_field(out, apply_one(member));
      });
      if (!ok) return "ERR malformed-batch";
      return out;
    }
    return apply_one(payload);
  }

  /// Apply a single (non-batch) command payload.
  std::string apply_one(std::string_view payload) {
    const auto cmd = decode_view(payload);
    if (!cmd) return "ERR malformed";
    switch (cmd->op) {
      case Op::Put: {
        ++revision_;
        const auto it = data_.find(cmd->key);
        if (it == data_.end()) {
          data_.emplace(cmd->key, cmd->value);
        } else {
          it->second.assign(cmd->value);  // existing key: reuse capacity
        }
        return ok_result(revision_);
      }
      case Op::Get: {
        const auto it = data_.find(cmd->key);
        return it == data_.end() ? "(nil)" : it->second;
      }
      case Op::Del: {
        const auto it = data_.find(cmd->key);
        if (it == data_.end()) return "(nil)";
        data_.erase(it);
        ++revision_;
        return ok_result(revision_);
      }
      case Op::Cas: {
        const auto it = data_.find(cmd->key);
        if (it != data_.end() && it->second == cmd->expected) {
          ++revision_;
          it->second.assign(cmd->value);
          return ok_result(revision_);
        }
        return "FAIL";
      }
    }
    return "ERR unknown-op";
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
      detail::encode_field(out, data_.find(key)->second);
    }
    return out;
  }

  void restore(std::string_view blob) override {
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
      data_.emplace(*key, *value);
    }
  }

  /// Transparent hash so find(string_view) never materializes a key.
  struct StringHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  using Store = std::unordered_map<std::string, std::string, StringHash, std::equal_to<>>;

  // ---- Introspection (tests, examples) ----
  [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] const Store& data() const noexcept { return data_; }

  /// Exact state equality: same revision, same (key, value) set. Agrees with
  /// comparing snapshot() bytes (that encoding is injective) but needs no
  /// sort and no allocation — replicas are compared in place.
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
