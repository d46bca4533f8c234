// KV command codec and state machine semantics, including zero-copy values:
// a stored value aliases the payload (or snapshot blob) it came from under
// the owner handed to apply/restore, and the owner-less entry points copy
// what they store once so a caller may free its buffer right after the call.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "kvstore/command.hpp"
#include "kvstore/state_machine.hpp"

namespace dyna::kv {
namespace {

TEST(Codec, PutRoundTrips) {
  const KvCommand cmd{Op::Put, "key", "value", {}};
  const auto decoded = decode(encode(cmd));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, cmd);
}

TEST(Codec, GetAndDelRoundTrip) {
  for (const Op op : {Op::Get, Op::Del}) {
    const KvCommand cmd{op, "some-key", {}, {}};
    const auto decoded = decode(encode(cmd));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, cmd);
  }
}

TEST(Codec, CasRoundTrips) {
  const KvCommand cmd{Op::Cas, "k", "new", "expected"};
  const auto decoded = decode(encode(cmd));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, cmd);
}

TEST(Codec, BinarySafeFields) {
  KvCommand cmd{Op::Put, std::string("k\0ey", 4), std::string("v:1:\n,\"x", 8), {}};
  const auto decoded = decode(encode(cmd));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->key, cmd.key);
  EXPECT_EQ(decoded->value, cmd.value);
}

TEST(Codec, EmptyFieldsSurvive) {
  const KvCommand cmd{Op::Put, "", "", {}};
  const auto decoded = decode(encode(cmd));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, cmd);
}

TEST(Codec, RejectsMalformedInput) {
  EXPECT_FALSE(decode("").has_value());
  EXPECT_FALSE(decode("X3:abc").has_value());       // unknown op
  EXPECT_FALSE(decode("P").has_value());            // missing fields
  EXPECT_FALSE(decode("P3:ab").has_value());        // truncated key
  EXPECT_FALSE(decode("P3:abc").has_value());       // PUT without value
  EXPECT_FALSE(decode("Pabc").has_value());         // no length prefix
  EXPECT_FALSE(decode("P3:abc2:xytrailing").has_value());  // trailing bytes
  EXPECT_FALSE(decode("P-1:a1:b").has_value());     // negative length
}

TEST(StateMachine, PutThenGet) {
  KvStateMachine sm;
  EXPECT_EQ(sm.apply(encode({Op::Put, "a", "1", {}})), "OK 1");
  EXPECT_EQ(sm.apply(encode({Op::Get, "a", {}, {}})), "1");
  EXPECT_EQ(sm.size(), 1u);
}

TEST(StateMachine, GetMissingIsNil) {
  KvStateMachine sm;
  EXPECT_EQ(sm.apply(encode({Op::Get, "nope", {}, {}})), "(nil)");
}

TEST(StateMachine, DeleteRemovesAndBumpsRevision) {
  KvStateMachine sm;
  sm.apply(encode({Op::Put, "a", "1", {}}));
  EXPECT_EQ(sm.apply(encode({Op::Del, "a", {}, {}})), "OK 2");
  EXPECT_EQ(sm.apply(encode({Op::Get, "a", {}, {}})), "(nil)");
  EXPECT_EQ(sm.apply(encode({Op::Del, "a", {}, {}})), "(nil)");  // no revision bump
  EXPECT_EQ(sm.revision(), 2u);
}

TEST(StateMachine, CasSucceedsOnlyOnMatch) {
  KvStateMachine sm;
  sm.apply(encode({Op::Put, "a", "1", {}}));
  EXPECT_EQ(sm.apply(encode({Op::Cas, "a", "2", "wrong"})), "FAIL");
  EXPECT_EQ(sm.apply(encode({Op::Get, "a", {}, {}})), "1");
  EXPECT_EQ(sm.apply(encode({Op::Cas, "a", "2", "1"})), "OK 2");
  EXPECT_EQ(sm.apply(encode({Op::Get, "a", {}, {}})), "2");
}

TEST(StateMachine, CasOnMissingKeyFails) {
  KvStateMachine sm;
  EXPECT_EQ(sm.apply(encode({Op::Cas, "ghost", "v", ""})), "FAIL");
}

TEST(StateMachine, MalformedPayloadIsError) {
  KvStateMachine sm;
  EXPECT_EQ(sm.apply("garbage"), "ERR malformed");
  EXPECT_EQ(sm.revision(), 0u);
}

TEST(StateMachine, RevisionCountsMutationsOnly) {
  KvStateMachine sm;
  sm.apply(encode({Op::Put, "a", "1", {}}));
  sm.apply(encode({Op::Get, "a", {}, {}}));
  sm.apply(encode({Op::Get, "a", {}, {}}));
  EXPECT_EQ(sm.revision(), 1u);
}

TEST(StateMachine, DeterministicReplay) {
  // Identical payload sequences must produce identical stores — the property
  // State Machine Replication rests on.
  std::vector<std::string> ops;
  for (int i = 0; i < 50; ++i) {
    ops.push_back(encode({Op::Put, "k" + std::to_string(i % 7), "v" + std::to_string(i), {}}));
    if (i % 5 == 0) ops.push_back(encode({Op::Del, "k" + std::to_string(i % 7), {}, {}}));
  }
  KvStateMachine a, b;
  for (const auto& op : ops) {
    const std::string ra = a.apply(op);
    const std::string rb = b.apply(op);
    ASSERT_EQ(ra, rb);
  }
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(a.revision(), b.revision());
}

// ---- Zero-copy values: views kept alive by their owner --------------------------

/// Scribble over and free a caller's buffer, as a caller that only lent it may.
void scribble_and_free(std::string& buf) {
  std::fill(buf.begin(), buf.end(), '#');
  std::string().swap(buf);
}

TEST(ZeroCopy, OwnedApplyAliasesThePayloadAndPinsItsOwner) {
  const auto payload = std::make_shared<const std::string>(
      encode({Op::Put, "k", std::string(40, 'v'), {}}));
  KvStateMachine sm;
  EXPECT_EQ(sm.apply(*payload, payload), "OK 1");
  const Value& v = sm.data().at("k");
  EXPECT_EQ(v, std::string(40, 'v'));
  // A view into the payload itself, not a copy of it.
  EXPECT_GE(v.bytes.data(), payload->data());
  EXPECT_LE(v.bytes.data() + v.bytes.size(), payload->data() + payload->size());
  EXPECT_EQ(v.owner.get(), payload.get());
  EXPECT_EQ(payload.use_count(), 2);

  // Overwriting the key drops the only reference the store held.
  (void)sm.apply_one(encode({Op::Put, "k", "w", {}}));
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(ZeroCopy, BatchMembersAliasTheFrame) {
  std::string frame;
  batch_append(frame, encode({Op::Put, "a", std::string(32, '1'), {}}));
  batch_append(frame, encode({Op::Put, "b", std::string(32, '2'), {}}));
  const auto owned = std::make_shared<const std::string>(frame);
  KvStateMachine sm;
  (void)sm.apply(*owned, owned);
  for (const char* key : {"a", "b"}) {
    const Value& v = sm.data().at(key);
    EXPECT_EQ(v.owner.get(), owned.get()) << key;
    EXPECT_GE(v.bytes.data(), owned->data()) << key;
    EXPECT_LE(v.bytes.data() + v.bytes.size(), owned->data() + owned->size()) << key;
  }
}

TEST(ZeroCopy, OwnerlessApplyCopiesWhatItStores) {
  const std::string value(40, 'v');
  KvStateMachine sm;
  std::string payload = encode({Op::Put, "k", value, {}});
  EXPECT_EQ(sm.apply(payload), "OK 1");
  scribble_and_free(payload);
  EXPECT_EQ(sm.data().at("k"), value);

  // A batch frame through the same owner-less entry point.
  std::string frame;
  batch_append(frame, encode({Op::Put, "a", value, {}}));
  batch_append(frame, encode({Op::Cas, "k", std::string(40, 'w'), value}));
  (void)sm.apply(frame);
  scribble_and_free(frame);
  EXPECT_EQ(sm.data().at("a"), value);
  EXPECT_EQ(sm.data().at("k"), std::string(40, 'w'));
  EXPECT_EQ(sm.apply(encode({Op::Get, "k", {}, {}})), std::string(40, 'w'));
}

TEST(ZeroCopy, OwnerlessApplyOneCopiesPutAndCas) {
  const std::string first(40, 'p');
  const std::string second(40, 'c');
  KvStateMachine sm;
  std::string put = encode({Op::Put, "k", first, {}});
  EXPECT_EQ(sm.apply_one(put), "OK 1");
  scribble_and_free(put);
  EXPECT_EQ(sm.data().at("k"), first);

  std::string cas = encode({Op::Cas, "k", second, first});
  EXPECT_EQ(sm.apply_one(cas), "OK 2");
  scribble_and_free(cas);
  EXPECT_EQ(sm.data().at("k"), second);
  EXPECT_EQ(sm.apply_one(encode({Op::Get, "k", {}, {}})), second);
}

TEST(ZeroCopy, OwnerlessRestoreCopiesTheBlob) {
  KvStateMachine a;
  (void)a.apply(encode({Op::Put, "k", std::string(40, 'r'), {}}));
  (void)a.apply(encode({Op::Put, "j", "short", {}}));
  std::string blob = a.snapshot();
  KvStateMachine b;
  b.restore(blob);
  scribble_and_free(blob);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(b.data().at("k"), std::string(40, 'r'));
  EXPECT_EQ(b.revision(), 2u);
}

TEST(ZeroCopy, OwnedRestoreAliasesTheBlob) {
  KvStateMachine a;
  (void)a.apply(encode({Op::Put, "k", std::string(40, 'r'), {}}));
  const auto blob = std::make_shared<const std::string>(a.snapshot());
  KvStateMachine b;
  b.restore(*blob, blob);
  const Value& v = b.data().at("k");
  EXPECT_EQ(v.owner.get(), blob.get());
  EXPECT_GE(v.bytes.data(), blob->data());
  EXPECT_LE(v.bytes.data() + v.bytes.size(), blob->data() + blob->size());
  EXPECT_TRUE(a == b);
}

TEST(ZeroCopy, ValueEqualityIsExactContentEquality) {
  const std::string bytes = "0123456789abcdef0123";
  const std::string same = bytes;
  const std::string_view view(bytes);
  const Value v{view, nullptr};
  const Value aliased{view, nullptr};
  const Value copied{same, nullptr};
  const Value prefix{view.substr(0, 5), nullptr};  // same pointer, shorter
  const Value shifted{std::string_view(same).substr(1), nullptr};
  EXPECT_TRUE(v == aliased);
  EXPECT_TRUE(v == copied);
  EXPECT_FALSE(v == prefix);
  EXPECT_FALSE(v == shifted);
  EXPECT_TRUE(v == std::string_view(same));
  EXPECT_FALSE(v == std::string_view("0123"));
}

/// Codec property sweep: random commands always round-trip.
class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RandomCommandsRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    KvCommand cmd;
    const std::uint64_t pick = rng.uniform_index(4);
    cmd.op = pick == 0 ? Op::Put : pick == 1 ? Op::Get : pick == 2 ? Op::Del : Op::Cas;
    auto rand_str = [&rng] {
      std::string s;
      const std::uint64_t len = rng.uniform_index(20);
      for (std::uint64_t j = 0; j < len; ++j) {
        s.push_back(static_cast<char>(rng.uniform_index(256)));
      }
      return s;
    };
    cmd.key = rand_str();
    if (cmd.op == Op::Put || cmd.op == Op::Cas) cmd.value = rand_str();
    if (cmd.op == Op::Cas) cmd.expected = rand_str();
    const auto decoded = decode(encode(cmd));
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(*decoded, cmd);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL));

}  // namespace
}  // namespace dyna::kv
