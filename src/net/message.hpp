// Typed network payload over the closed set of wire messages.
//
// The network used to carry std::any, which costs one heap allocation per
// send (a raft::Message never fits std::any's small-object buffer) plus RTTI
// dispatch on every delivery. The simulation's wire vocabulary is closed —
// Raft protocol traffic plus a small scalar payload the transport suites and
// microbenches use — so a variant holds every payload inline and dispatch is
// an index check.
//
// Layering note: raft/message.hpp is a header-only *wire description* (plain
// structs over common/ vocabulary types, plus the shared-log EntryView from
// raft/log.hpp) with no dependency on the Raft engine, so including it here
// does not invert the net <- raft layering; the engine in raft/node.* still
// sits strictly above net. See ARCHITECTURE.md.
//
// Copy semantics on the wire: an AppendEntries payload carries an EntryView
// (segment handle + span), so the copies this class makes — into the
// in-flight arena, for datagram duplicates, into a paused node's parked
// queue — are reference-count bumps on an immutable segment, never entry
// deep-copies. That is what keeps large-cluster fan-out O(n).
#pragma once

#include <cstdint>
#include <utility>
#include <variant>

#include "raft/message.hpp"

namespace dyna::net {

/// Opaque scalar payload for transport-level tests and benchmarks (stands in
/// for "some datagram" where the content only matters for identity).
struct TestPayload {
  std::int64_t value = 0;
};

class Message {
 public:
  Message() = default;

  // NOLINTNEXTLINE(google-explicit-constructor): payload wrapper
  Message(raft::Message&& m) : payload_(std::move(m)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Message(const raft::Message& m) : payload_(m) {}
  Message(TestPayload p) : payload_(p) {}  // NOLINT(google-explicit-constructor)

  /// Convenience for the unit suites: send(a, b, 7, ...) builds a TestPayload.
  Message(int value) : payload_(TestPayload{value}) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool empty() const noexcept {
    return std::holds_alternative<std::monostate>(payload_);
  }

  /// Drop the payload, leaving the message empty. Emplaces the empty
  /// alternative directly: assigning `Message{}` goes through the variant's
  /// move-assign, where GCC 12 under ASan+UBSan reports a
  /// -Wmaybe-uninitialized false positive.
  void clear() noexcept { payload_.emplace<std::monostate>(); }

  /// The Raft protocol message, or nullptr when this is not Raft traffic.
  [[nodiscard]] const raft::Message* raft() const noexcept {
    return std::get_if<raft::Message>(&payload_);
  }

  /// The test payload, or nullptr when this is not test traffic.
  [[nodiscard]] const TestPayload* test() const noexcept {
    return std::get_if<TestPayload>(&payload_);
  }

 private:
  std::variant<std::monostate, raft::Message, TestPayload> payload_;
};

}  // namespace dyna::net
