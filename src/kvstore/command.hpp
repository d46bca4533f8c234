// KV command serialization.
//
// Raft carries opaque payload strings; the KV layer defines a compact,
// deterministic, binary-safe encoding: length-prefixed fields so keys and
// values may contain any byte.
//
//   PUT key value   -> "P" <key> <value>
//   GET key         -> "G" <key>
//   DEL key         -> "D" <key>
//   CAS key exp new -> "C" <key> <expected> <new>
//
// Each field is encoded as <decimal length> ':' <bytes>.
//
// Group commit adds one frame on top: a *batch* payload is "B" followed by
// each member command payload as a length-prefixed field. The state machine
// applies members in order and returns the member results in the same
// length-prefixed framing, so the leader can fan one committed entry back
// out into per-command client completions.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/check.hpp"

namespace dyna::kv {

enum class Op : char {
  Put = 'P',
  Get = 'G',
  Del = 'D',
  Cas = 'C',
};

struct KvCommand {
  Op op = Op::Get;
  std::string key;
  std::string value;     // PUT: new value; CAS: new value
  std::string expected;  // CAS only

  friend bool operator==(const KvCommand&, const KvCommand&) = default;
};

/// Zero-copy decode result: fields alias the payload buffer. This is what
/// the apply path uses — every replica decodes every committed command, so
/// a decode that allocates three strings is a per-commit, per-node tax that
/// dominates large-cluster replication benches. Valid only while the payload
/// string outlives the view (the log entry does — it owns the payload).
struct KvCommandView {
  Op op = Op::Get;
  std::string_view key;
  std::string_view value;
  std::string_view expected;
};

namespace detail {

inline void encode_field(std::string& out, std::string_view field) {
  out += std::to_string(field.size());
  out += ':';
  out += field;
}

/// Parse one length-prefixed field as a view into `buf`; advances `pos`.
/// Returns nullopt on malformed input, including a length longer than the
/// bytes left: the parse stops there, so the length never wraps.
inline std::optional<std::string_view> decode_field(std::string_view buf, std::size_t& pos) {
  const std::size_t colon = buf.find(':', pos);
  if (colon == std::string_view::npos || colon == pos) return std::nullopt;
  const std::size_t left = buf.size() - colon - 1;
  std::size_t len = 0;
  for (std::size_t i = pos; i < colon; ++i) {
    const char c = buf[i];
    if (c < '0' || c > '9') return std::nullopt;
    len = len * 10 + static_cast<std::size_t>(c - '0');
    if (len > left) return std::nullopt;
  }
  pos = colon + 1;
  std::string_view field = buf.substr(pos, len);
  pos += len;
  return field;
}

}  // namespace detail

[[nodiscard]] inline std::string encode(const KvCommand& cmd) {
  std::string out;
  out += static_cast<char>(cmd.op);
  detail::encode_field(out, cmd.key);
  if (cmd.op == Op::Put || cmd.op == Op::Cas) {
    detail::encode_field(out, cmd.value);
  }
  if (cmd.op == Op::Cas) {
    detail::encode_field(out, cmd.expected);
  }
  return out;
}

/// Decode without copying: the returned views alias `payload`.
[[nodiscard]] inline std::optional<KvCommandView> decode_view(std::string_view payload) {
  if (payload.empty()) return std::nullopt;
  KvCommandView cmd;
  switch (payload.front()) {
    case 'P': cmd.op = Op::Put; break;
    case 'G': cmd.op = Op::Get; break;
    case 'D': cmd.op = Op::Del; break;
    case 'C': cmd.op = Op::Cas; break;
    default: return std::nullopt;
  }
  std::size_t pos = 1;
  auto key = detail::decode_field(payload, pos);
  if (!key) return std::nullopt;
  cmd.key = *key;
  if (cmd.op == Op::Put || cmd.op == Op::Cas) {
    auto value = detail::decode_field(payload, pos);
    if (!value) return std::nullopt;
    cmd.value = *value;
  }
  if (cmd.op == Op::Cas) {
    auto expected = detail::decode_field(payload, pos);
    if (!expected) return std::nullopt;
    cmd.expected = *expected;
  }
  if (pos != payload.size()) return std::nullopt;  // trailing garbage
  return cmd;
}

/// Decode into an owning KvCommand (client/test convenience).
[[nodiscard]] inline std::optional<KvCommand> decode(std::string_view payload) {
  const auto view = decode_view(payload);
  if (!view) return std::nullopt;
  return KvCommand{view->op, std::string(view->key), std::string(view->value),
                   std::string(view->expected)};
}

// ---- Batch frame (group commit) ---------------------------------------------------

inline constexpr char kBatchTag = 'B';

/// A payload carrying many commands in one log entry.
[[nodiscard]] inline bool is_batch(std::string_view payload) noexcept {
  return !payload.empty() && payload.front() == kBatchTag;
}

/// A read-only command: never mutates the store, so a leader with the
/// ReadIndex fast path can answer it without a log write.
[[nodiscard]] inline bool is_read_only(std::string_view payload) noexcept {
  return !payload.empty() && payload.front() == static_cast<char>(Op::Get);
}

/// Append one member command payload to a batch frame under construction
/// (starts the frame on first use). The member may itself be any encoded
/// command — but not another batch; nesting is not part of the format.
inline void batch_append(std::string& frame, std::string_view command_payload) {
  DYNA_EXPECTS(!is_batch(command_payload));
  if (frame.empty()) frame.push_back(kBatchTag);
  detail::encode_field(frame, command_payload);
}

/// Bytes batch_append would add to a frame for this member (admission caps).
[[nodiscard]] inline std::size_t batch_overhead(std::string_view command_payload) noexcept {
  std::size_t digits = 1;
  for (std::size_t n = command_payload.size(); n >= 10; n /= 10) ++digits;
  return command_payload.size() + digits + 1;
}

/// Visit every member payload of a batch frame in order. Returns false (and
/// stops) on a malformed frame. `fn` receives views aliasing `frame`.
template <typename Fn>
[[nodiscard]] inline bool for_each_batched(std::string_view frame, Fn&& fn) {
  if (!is_batch(frame)) return false;
  std::size_t pos = 1;
  while (pos < frame.size()) {
    const auto member = detail::decode_field(frame, pos);
    if (!member) return false;
    fn(*member);
  }
  return true;
}

/// Split a batch result blob (length-prefixed member results, as produced by
/// KvStateMachine for a batch frame) into per-command results. Returns false
/// on malformed input.
template <typename Fn>
[[nodiscard]] inline bool for_each_batch_result(std::string_view blob, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < blob.size()) {
    const auto member = detail::decode_field(blob, pos);
    if (!member) return false;
    fn(*member);
  }
  return true;
}

}  // namespace dyna::kv
