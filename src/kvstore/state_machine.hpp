// Replicated state machine interface + the etcd-like KV implementation.
//
// Every replica applies the same committed payload sequence; determinism of
// apply() is what makes State Machine Replication hold, and the test suite
// checks replicas byte-for-byte against each other.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kvstore/command.hpp"
#include "kvstore/key_index.hpp"

namespace dyna::kv {

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
    const auto [bytes, owner] = share(payload);
    return apply(bytes, owner);
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
    const auto [bytes, owner] = share(blob);
    restore(bytes, owner);
  }
};

/// In-memory KV store with a global revision counter (mirrors etcd's
/// semantics at the granularity the experiments need — the Op vocabulary is
/// point ops only, so a hash index is observationally equivalent to etcd's
/// ordered index and keeps apply O(1)). The apply path is zero-copy: commands
/// decode to views, lookups take the key as a view, and a stored key and
/// value alias the payload they came from (kept alive by the owner apply()
/// is handed), so replicating a PUT stream across a 65-node cluster neither
/// copies the value once per replica nor turns into an allocator benchmark.
/// Keys live in a flat KeyIndex of 32-byte slots: a new key allocates only
/// when the table doubles.
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
  /// PUT or CAS, whose key and value the store keeps, copies it once into a
  /// shared buffer first; GET and DEL store nothing and copy nothing.
  std::string apply_one(std::string_view payload) {
    if (!payload.empty() && (payload.front() == static_cast<char>(Op::Put) ||
                             payload.front() == static_cast<char>(Op::Cas))) {
      const auto [bytes, owner] = share(payload);
      return apply_one(bytes, owner);
    }
    return apply_one(payload, nullptr);
  }

  /// Deterministic serialization: the revision, then every (key, value) pair
  /// in sorted key order, all fields length-prefixed (the same <len>:<bytes>
  /// framing the command encoding uses). Sorting matters: the index's slot
  /// order depends on insertion history, which differs between a replica
  /// that applied every command and one restored from an earlier snapshot —
  /// equal states must serialize identically.
  [[nodiscard]] std::string snapshot() const override {
    std::vector<std::pair<std::string_view, std::string_view>> pairs;
    pairs.reserve(data_.size());
    data_.for_each([&](std::string_view key, const Value& value) {
      pairs.emplace_back(key, value.bytes);
    });
    std::sort(pairs.begin(), pairs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::string out;
    char rev[24];
    const auto [end, ec] = std::to_chars(rev, rev + sizeof rev, revision_);
    (void)ec;  // 64-bit decimal always fits
    detail::encode_field(out, std::string_view(rev, end));
    for (const auto& [key, bytes] : pairs) {
      detail::encode_field(out, key);
      detail::encode_field(out, bytes);
    }
    return out;
  }

  /// Keys and values alias the blob (the restored store holds no copy of
  /// it). Keys must be strictly increasing, as snapshot() writes them: a
  /// repeated key would otherwise leave whichever value the index kept.
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
    std::optional<std::string_view> previous;  // nullopt sorts before every key
    while (pos < blob.size()) {
      const auto key = detail::decode_field(blob, pos);
      const auto value = detail::decode_field(blob, pos);
      DYNA_EXPECTS(key.has_value() && value.has_value());
      DYNA_EXPECTS(previous < key);
      previous = key;
      data_.insert_or_assign(*key, *value, owner);
    }
  }

  // ---- Introspection (tests, examples) ----
  [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] const KeyIndex& data() const noexcept { return data_; }

  /// Exact state equality: same revision, same (key, value) set. Agrees with
  /// comparing snapshot() bytes (that encoding is injective) but needs no
  /// sort and no allocation — replicas are compared in place, and values
  /// that alias one segment compare without touching their bytes.
  [[nodiscard]] friend bool operator==(const KvStateMachine& a, const KvStateMachine& b) {
    return a.revision_ == b.revision_ && a.data_ == b.data_;
  }

  /// Empty store, revision 0 — a brand-new replica. Keeps the index's slot
  /// arrays (trial reuse).
  void reset_for_trial() {
    data_.clear();
    revision_ = 0;
  }

 private:
  /// Apply a single (non-batch) command whose bytes `owner` keeps alive: a
  /// stored key and value alias the payload instead of copying it.
  std::string apply_one(std::string_view payload, const Owner& owner) {
    const auto cmd = decode_view(payload);
    if (!cmd) return "ERR malformed";
    switch (cmd->op) {
      case Op::Put: {
        DYNA_EXPECTS(owner != nullptr);
        ++revision_;
        data_.insert_or_assign(cmd->key, cmd->value, owner);
        return ok_result(revision_);
      }
      case Op::Get: {
        const auto value = data_.find(cmd->key);
        return value ? std::string(value->bytes) : "(nil)";
      }
      case Op::Del: {
        if (!data_.erase(cmd->key)) return "(nil)";
        ++revision_;
        return ok_result(revision_);
      }
      case Op::Cas: {
        DYNA_EXPECTS(owner != nullptr);
        const auto value = data_.find(cmd->key);
        if (value && *value == cmd->expected) {
          ++revision_;
          // Through insert_or_assign, not an assignment to the value alone:
          // the stored key lies in the old payload, so it moves too.
          data_.insert_or_assign(cmd->key, cmd->value, owner);
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

  KeyIndex data_;
  std::uint64_t revision_ = 0;
};

}  // namespace dyna::kv
