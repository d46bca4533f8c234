// KV command codec and state machine semantics, including zero-copy storage:
// a stored key and value alias the payload (or snapshot blob) they came from
// under the owner handed to apply/restore, and the owner-less entry points
// copy what they store once so a caller may free its buffer right after the
// call. A write that replaces a key's owner must move the key along with it.
// The key index is checked against std::unordered_map op by op.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

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
  // Length prefixes past 2^64 must not wrap around to a short length.
  EXPECT_FALSE(decode_view("G18446744073709551619:abc").has_value());  // 2^64 + 3
  std::size_t visited = 0;
  EXPECT_FALSE(for_each_batched("B18446744073709551620:G1:a",  // 2^64 + 4
                                [&](std::string_view) { ++visited; }));
  EXPECT_EQ(visited, 0u);
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

TEST(StateMachine, FrameWithAWrappingLengthIsMalformed) {
  // 2^64 + 7 would wrap to 7, the size of the PUT member that follows.
  KvStateMachine sm;
  EXPECT_EQ(sm.apply("B18446744073709551623:P1:a1:b"), "ERR malformed-batch");
  EXPECT_EQ(sm.revision(), 0u);
  EXPECT_EQ(sm.size(), 0u);
}

TEST(StateMachine, RestoreRejectsRepeatedKeys) {
  // snapshot() writes each key once; a blob naming one twice is not its output.
  KvStateMachine sm;
  ASSERT_DEATH(sm.restore("1:21:a1:x1:a1:y"), "previous < key");
}

TEST(StateMachine, RestoreRejectsDescendingKeys) {
  KvStateMachine sm;
  ASSERT_DEATH(sm.restore("1:21:b1:x1:a1:y"), "previous < key");
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

/// A stored value's pin is an alias pointing at the value bytes, so it is
/// matched to its owner by control block, not by address.
bool same_owner(const std::shared_ptr<const char>& pin, const Owner& owner) {
  return !pin.owner_before(owner) && !owner.owner_before(pin);
}

/// `bytes` lies inside `buffer`. Compares addresses only, so a view into a
/// freed buffer is a plain failure, not a read of freed memory.
bool inside(std::string_view bytes, const std::string& buffer) {
  const std::less_equal<const char*> le;
  return le(buffer.data(), bytes.data()) &&
         le(bytes.data() + bytes.size(), buffer.data() + buffer.size());
}

/// A committed payload under its own owner, as a log segment holds one.
using Payload = std::shared_ptr<const std::string>;

Payload payload_of(const KvCommand& cmd) { return std::make_shared<const std::string>(encode(cmd)); }

/// Every stored value is pinned by one of `live`, and its key and bytes lie
/// inside that payload. A key left pointing into a released payload fails
/// here in any build, not only under ASan.
::testing::AssertionResult pairs_inside_owners(const KvStateMachine& sm,
                                               const std::vector<Payload>& live) {
  std::string stray;
  sm.data().for_each([&](std::string_view key, const Value& value) {
    if (!stray.empty()) return;
    const auto owner = std::find_if(live.begin(), live.end(),
                                    [&](const Payload& p) { return same_owner(value.owner, p); });
    if (owner == live.end()) {
      stray = "a value pinned by no live payload";
    } else if (!inside(key, **owner) || !inside(value.bytes, **owner)) {
      stray = "a key or value outside the payload its value pins";
    }
  });
  if (!stray.empty()) return ::testing::AssertionFailure() << "the store holds " << stray;
  return ::testing::AssertionSuccess();
}

TEST(ZeroCopy, OwnedApplyAliasesThePayloadAndPinsItsOwner) {
  const auto payload = std::make_shared<const std::string>(
      encode({Op::Put, "k", std::string(40, 'v'), {}}));
  KvStateMachine sm;
  EXPECT_EQ(sm.apply(*payload, payload), "OK 1");
  const Value v = sm.data().at("k");
  EXPECT_EQ(v, std::string(40, 'v'));
  // A view into the payload itself, not a copy of it; the key too.
  EXPECT_GE(v.bytes.data(), payload->data());
  EXPECT_LE(v.bytes.data() + v.bytes.size(), payload->data() + payload->size());
  EXPECT_TRUE(same_owner(v.owner, payload));
  EXPECT_TRUE(pairs_inside_owners(sm, {payload}));
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
    const Value v = sm.data().at(key);
    EXPECT_TRUE(same_owner(v.owner, owned)) << key;
    EXPECT_GE(v.bytes.data(), owned->data()) << key;
    EXPECT_LE(v.bytes.data() + v.bytes.size(), owned->data() + owned->size()) << key;
  }
  EXPECT_TRUE(pairs_inside_owners(sm, {owned}));
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
  const Value v = b.data().at("k");
  EXPECT_TRUE(same_owner(v.owner, blob));
  EXPECT_GE(v.bytes.data(), blob->data());
  EXPECT_LE(v.bytes.data() + v.bytes.size(), blob->data() + blob->size());
  EXPECT_TRUE(pairs_inside_owners(b, {blob}));
  EXPECT_TRUE(a == b);
}

TEST(ZeroCopy, ValueEqualityIsExactContentEquality) {
  const std::string bytes = "0123456789abcdef0123";
  const std::string same = bytes;
  const std::string_view view(bytes);
  const std::shared_ptr<const char> none;
  const Value v{view, none};
  const Value aliased{view, none};
  const Value copied{same, none};
  const Value prefix{view.substr(0, 5), none};  // same pointer, shorter
  const Value shifted{std::string_view(same).substr(1), none};
  EXPECT_TRUE(v == aliased);
  EXPECT_TRUE(v == copied);
  EXPECT_FALSE(v == prefix);
  EXPECT_FALSE(v == shifted);
  EXPECT_TRUE(v == std::string_view(same));
  EXPECT_FALSE(v == std::string_view("0123"));
}

// ---- Keys alias the payload their value's owner pins ------------------------------

/// PUT the key from payload A, then write it again from payload B with
/// `second` (a PUT or a successful CAS). The store must let A go, and every
/// later read of the key must find it in B: a find, a snapshot, == against a
/// twin, a rehash that moves every slot, and a DEL.
void second_write_moves_the_key(const KvCommand& second) {
  const std::string key = "a-key-of-some-length";
  KvStateMachine sm;
  Payload a = payload_of({Op::Put, key, std::string(40, 'a'), {}});
  ASSERT_EQ(sm.apply(*a, a), "OK 1");
  const std::weak_ptr<const void> a_alive = a;
  const Payload b = payload_of(second);
  ASSERT_EQ(sm.apply(*b, b), "OK 2");
  a.reset();
  ASSERT_TRUE(a_alive.expired()) << "the replaced payload is still pinned";
  std::vector<Payload> live = {b};
  ASSERT_TRUE(pairs_inside_owners(sm, live));

  ASSERT_TRUE(sm.data().find(key).has_value());
  EXPECT_EQ(*sm.data().find(key), second.value);
  EXPECT_EQ(sm.apply_one(encode({Op::Get, key, {}, {}})), second.value);

  // A twin that wrote the same key and value from buffers of its own, and
  // one restored from the snapshot: equal from both sides.
  KvStateMachine twin;
  (void)twin.apply(encode({Op::Put, key, "first", {}}));
  (void)twin.apply(encode({Op::Put, key, second.value, {}}));
  EXPECT_TRUE(sm == twin);
  EXPECT_TRUE(twin == sm);
  KvStateMachine restored;
  restored.restore(sm.snapshot());
  EXPECT_TRUE(sm == restored);
  EXPECT_EQ(restored.data().at(key), second.value);

  // Rehash: grow until the table doubles, which rehashes every stored key.
  const std::size_t capacity = sm.data().capacity();
  for (int i = 0; sm.data().capacity() == capacity; ++i) {
    live.push_back(payload_of({Op::Put, "filler-" + std::to_string(i), "f", {}}));
    (void)sm.apply(*live.back(), live.back());
  }
  ASSERT_TRUE(pairs_inside_owners(sm, live));
  EXPECT_EQ(sm.data().at(key), second.value);

  const std::weak_ptr<const void> b_alive = b;
  live.erase(live.begin());
  const std::string revision = std::to_string(sm.revision() + 1);
  EXPECT_EQ(sm.apply_one(encode({Op::Del, key, {}, {}})), "OK " + revision);
  EXPECT_EQ(sm.data().count(key), 0u);
  EXPECT_EQ(b_alive.use_count(), 1) << "the store still pins the deleted key's payload";
  EXPECT_TRUE(pairs_inside_owners(sm, live));
}

TEST(KeyAliasing, OverwriteMovesTheKeyToTheNewPayload) {
  second_write_moves_the_key({Op::Put, "a-key-of-some-length", std::string(40, 'b'), {}});
}

TEST(KeyAliasing, SuccessfulCasMovesTheKeyToTheNewPayload) {
  second_write_moves_the_key(
      {Op::Cas, "a-key-of-some-length", std::string(40, 'c'), std::string(40, 'a')});
}

// ---- KeyIndex: the store's open-addressing key index -----------------------------

using Model = std::unordered_map<std::string, std::string>;

/// Store `value` under `key` from one shared buffer holding the key, then
/// the value, as a committed PUT holds both in one payload.
bool put_pair(KeyIndex& index, std::string_view key, std::string_view value) {
  const auto [bytes, owner] = share(std::string(key).append(value));
  return index.insert_or_assign(bytes.substr(0, key.size()), bytes.substr(key.size()), owner);
}

/// `count` keys "<prefix><n>" whose home slot in a table of `capacity` slots
/// is `slot` (the index starts at the low bits of std::hash<std::string_view>).
std::vector<std::string> keys_homed_at(std::string_view prefix, std::size_t capacity,
                                       std::size_t slot, std::size_t count, std::size_t& n) {
  std::vector<std::string> keys;
  while (keys.size() < count) {
    std::string key = std::string(prefix) + std::to_string(n++);
    if ((std::hash<std::string_view>{}(key) & (capacity - 1)) == slot) keys.push_back(key);
  }
  return keys;
}

::testing::AssertionResult same_lookup(const KeyIndex& index, const Model& model,
                                       const std::string& key) {
  const auto v = index.find(key);
  const auto it = model.find(key);
  if (v.has_value() != (it != model.end())) {
    return ::testing::AssertionFailure()
           << "'" << key << "' is " << (v ? "only in the index" : "missing");
  }
  if (v && !(*v == it->second)) {
    return ::testing::AssertionFailure() << "'" << key << "' holds '" << *v << "', not '"
                                         << it->second << "'";
  }
  if (index.count(key) != model.count(key)) {
    return ::testing::AssertionFailure() << "count('" << key << "') disagrees with find";
  }
  return ::testing::AssertionSuccess();
}

/// Every key of `alphabet` looks up the same, and for_each visits exactly
/// the model's pairs, each key still in the buffer its value's owner holds:
/// put_pair lays a key out just before its value.
::testing::AssertionResult same_contents(const KeyIndex& index, const Model& model,
                                         const std::vector<std::string>& alphabet) {
  if (index.size() != model.size()) {
    return ::testing::AssertionFailure() << "size " << index.size() << " != " << model.size();
  }
  for (const std::string& key : alphabet) {
    if (auto r = same_lookup(index, model, key); !r) return r;
  }
  std::size_t visited = 0;
  std::size_t strays = 0;
  std::size_t detached = 0;
  index.for_each([&](std::string_view key, const Value& value) {
    ++visited;
    if (key.data() + key.size() != value.bytes.data()) {
      ++detached;
      return;
    }
    const auto it = model.find(std::string(key));
    if (it == model.end() || !(value == it->second)) ++strays;
  });
  if (visited != model.size() || strays != 0 || detached != 0) {
    return ::testing::AssertionFailure() << "for_each visited " << visited << " pairs, " << strays
                                         << " not in the model, " << detached
                                         << " with a key outside its value's buffer";
  }
  return ::testing::AssertionSuccess();
}

TEST(KeyIndex, EraseInsideARunThatWrapsPastTheLastSlot) {
  // Inserted in this order into 16 slots, the keys fill slots 15, 0, 1, 2,
  // 3, 4 — one run across the wrap, mixing keys homed before and after it.
  // Erasing any one of them must shift the rest back without moving a key
  // in front of its home.
  constexpr std::size_t kCap = KeyIndex::kMinCapacity;
  std::size_t n = 0;
  const auto at15 = keys_homed_at("w", kCap, 15, 3, n);
  const auto at0 = keys_homed_at("w", kCap, 0, 2, n);
  const auto at1 = keys_homed_at("w", kCap, 1, 1, n);
  const std::vector<std::string> keys = {at15[0], at0[0], at15[1], at1[0], at15[2], at0[1]};
  for (std::size_t victim = 0; victim < keys.size(); ++victim) {
    SCOPED_TRACE("erasing " + keys[victim]);
    KeyIndex index;
    Model model;
    for (const std::string& key : keys) {
      put_pair(index, key, key);
      model.emplace(key, key);
    }
    ASSERT_EQ(index.capacity(), kCap);
    ASSERT_TRUE(index.erase(keys[victim]));
    model.erase(keys[victim]);
    EXPECT_FALSE(index.erase(keys[victim]));
    EXPECT_TRUE(same_contents(index, model, keys));
  }
}

TEST(KeyIndex, MatchesUnorderedMapUnderRandomOps) {
  // 120k random puts, overwrites, finds, erases and clears over a fixed
  // alphabet of 4 000 keys (every fifth a long one), checked after every op
  // against std::unordered_map. The target
  // size swings between empty and 2 300 keys, so the table grows from 16 to
  // 4 096 slots and drains again at that capacity. Every released value's
  // owner must expire: each pair is its own shared buffer.
  std::vector<std::string> alphabet;
  for (std::size_t i = 0; i < 4000; ++i) {
    alphabet.push_back(i % 5 == 0 ? "a-key-longer-than-the-sso-buffer-" + std::to_string(i)
                                  : "k" + std::to_string(i));
  }
  const std::size_t targets[] = {2300, 100, 1900, 0, 2300, 700, 2000, 30, 1200, 2300, 400, 1000};
  constexpr std::size_t kOpsPerPhase = 10'000;

  Rng rng(77);
  KeyIndex index;
  Model model;
  std::vector<std::size_t> capacities;
  std::size_t wrapped_erases = 0;
  std::size_t fresh = 0;

  const auto random_key = [&] { return alphabet[rng.uniform_index(alphabet.size())]; };
  // A key the model holds (or, failing that, any key).
  const auto present_key = [&] {
    for (int tries = 0; tries < 400 && !model.empty(); ++tries) {
      const std::string& key = alphabet[rng.uniform_index(alphabet.size())];
      if (model.count(key) != 0) return key;
    }
    return random_key();
  };
  const auto absent_key = [&] {
    std::string key = random_key();
    while (model.count(key) != 0) key = random_key();
    return key;
  };
  const auto owner_of = [&](const std::string& key) {
    const auto v = index.find(key);
    return v ? std::weak_ptr<const void>(v->owner) : std::weak_ptr<const void>();
  };
  const auto put = [&](const std::string& key, const std::string& value) {
    const std::weak_ptr<const void> old = owner_of(key);
    const bool existed = model.count(key) != 0;
    ASSERT_EQ(put_pair(index, key, value), !existed);
    model[key] = value;
    ASSERT_TRUE(old.expired()) << "overwritten value of '" << key << "' still owned";
    if (capacities.empty() || capacities.back() != index.capacity()) {
      capacities.push_back(index.capacity());
    }
  };
  const auto erase = [&](const std::string& key) {
    const std::weak_ptr<const void> old = owner_of(key);
    ASSERT_EQ(index.erase(key), model.erase(key) == 1);
    ASSERT_TRUE(old.expired()) << "erased value of '" << key << "' still owned";
  };
  const auto clear = [&] {
    std::vector<std::weak_ptr<const void>> owners;
    index.for_each([&](std::string_view, const Value& v) { owners.emplace_back(v.owner); });
    const std::size_t capacity = index.capacity();
    index.clear();
    model.clear();
    ASSERT_EQ(index.capacity(), capacity);
    for (const auto& owner : owners) ASSERT_TRUE(owner.expired()) << "cleared value still owned";
  };
  const auto full_check = [&] {
    ASSERT_TRUE(same_contents(index, model, alphabet));
    // Equality ignores layout: a twin built in another order is equal, and
    // neither a strict subset nor a changed value is, from either side.
    KeyIndex twin;
    for (const auto& [key, value] : model) put_pair(twin, key, value);
    ASSERT_TRUE(index == twin);
    ASSERT_TRUE(twin == index);
    const KeyIndex copy = index;
    ASSERT_TRUE(copy == index);
    ASSERT_TRUE(same_contents(copy, model, alphabet));
    if (model.empty()) return;
    const auto& [key, value] = *model.begin();
    twin.erase(key);
    ASSERT_FALSE(index == twin);
    ASSERT_FALSE(twin == index);
    put_pair(twin, key, value + "'");
    ASSERT_FALSE(index == twin);
    ASSERT_FALSE(twin == index);
  };
  // Six fresh keys homed in the last two slots fill a run that wraps past
  // the last slot; erase them one by one in random order.
  const auto wrapped_run = [&] {
    const std::size_t cap = index.capacity();
    if (cap == 0 || index.size() + 6 > cap - cap / 8) return;
    std::vector<std::string> keys = keys_homed_at("wrap-", cap, cap - 1, 3, fresh);
    for (const auto& key : keys_homed_at("wrap-", cap, cap - 2, 3, fresh)) keys.push_back(key);
    for (const auto& key : keys) put(key, "w" + key);
    ASSERT_EQ(index.capacity(), cap);
    while (!keys.empty()) {
      const std::size_t pick = rng.uniform_index(keys.size());
      erase(keys[pick]);
      keys.erase(keys.begin() + static_cast<std::ptrdiff_t>(pick));
      ++wrapped_erases;
      ASSERT_TRUE(same_contents(index, model, keys));
      for (const auto& key : keys) ASSERT_TRUE(same_lookup(index, model, key));
    }
  };

  EXPECT_EQ(index.capacity(), 0u);
  std::size_t op = 0;
  for (const std::size_t target : targets) {
    if (target == 0) {
      ASSERT_NO_FATAL_FAILURE(clear());
    }
    for (std::size_t i = 0; i < kOpsPerPhase; ++i, ++op) {
      const bool growing = index.size() < target;
      const std::uint64_t r = rng.uniform_index(1000);
      std::string key;
      if (r < 450) {  // put: a new key while growing, mostly an overwrite otherwise
        key = growing ? absent_key() : rng.bernoulli(0.8) ? present_key() : random_key();
        ASSERT_NO_FATAL_FAILURE(put(key, "v" + std::to_string(op)));
      } else if (r < 800) {  // erase: mostly a miss while growing
        key = growing && rng.bernoulli(0.8) ? random_key() : present_key();
        ASSERT_NO_FATAL_FAILURE(erase(key));
      } else if (r < 999) {
        key = random_key();
      } else {
        ASSERT_NO_FATAL_FAILURE(clear());
      }
      ASSERT_EQ(index.size(), model.size()) << "op " << op;
      if (!key.empty()) {
        ASSERT_TRUE(same_lookup(index, model, key)) << "op " << op;
      }
      ASSERT_TRUE(same_lookup(index, model, random_key())) << "op " << op;
      if (op % 2500 == 0) {
        ASSERT_NO_FATAL_FAILURE(wrapped_run());
      }
      if (op % 4096 == 0) {
        ASSERT_NO_FATAL_FAILURE(full_check());
      }
    }
    ASSERT_NO_FATAL_FAILURE(full_check());
  }

  // 16, 32, ... 4096: the table starts at 16 slots and only ever doubles.
  ASSERT_FALSE(capacities.empty());
  EXPECT_EQ(capacities.front(), KeyIndex::kMinCapacity);
  for (std::size_t i = 1; i < capacities.size(); ++i) {
    EXPECT_EQ(capacities[i], 2 * capacities[i - 1]);
  }
  EXPECT_GE(capacities.back(), 4096u);
  EXPECT_GE(wrapped_erases, 100u);
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
