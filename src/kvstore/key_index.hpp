// The KV store's key index: an open-addressing hash table from key to value.
//
// Layout: a power-of-two array of one-byte control tags (0 = empty, otherwise
// 0x80 | the hash's top 7 bits) and a parallel array of 32-byte slots. A
// lookup hashes the key once, starts at the slot the hash's low bits name and
// probes linearly; only a slot whose tag matches costs a key compare, so a
// miss reads control bytes up to the first empty one. Erase shifts the rest
// of the probe run back into the hole instead of leaving a tombstone, so runs
// stay contiguous and no deleted key ever lengthens a probe. The table
// doubles before its load would pass 7/8.
//
// A slot copies neither its key nor its value: both are views into bytes one
// owner keeps alive (a committed PUT holds its key and value in one payload,
// a snapshot blob holds every pair). The slot holds that owner once, as a
// shared_ptr made with the aliasing constructor: the owner's control block,
// pointing at the value bytes. The key lives exactly as long as the value
// that pins it, so a write that replaces a slot's owner re-points the key at
// the new owner's copy in the same step. No key costs a heap node, and
// clear() destroys the slots in place, keeping both arrays.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/check.hpp"

namespace dyna::kv {

/// Keep-alive handle on an immutable buffer: while any copy lives, the bytes
/// it guards stay allocated and unchanged. The raft log passes the LogSegment
/// a committed entry lives in; a restore passes the Snapshot blob's handle.
using Owner = std::shared_ptr<const void>;

/// A stored value as the index hands it out: a view of its bytes and of the
/// handle that pins them (an alias of the owner it was stored with, pointing
/// at the bytes). Valid until its key is next written or erased. Every
/// replica that applied the same committed PUT aliases the same bytes in the
/// same immutable log segment.
struct Value {
  std::string_view bytes;
  const std::shared_ptr<const char>& owner;

  /// Exact content equality. Values aliasing the same bytes (replicas that
  /// share a segment) compare in O(1); others fall back to a byte compare.
  friend bool operator==(const Value& a, const Value& b) noexcept {
    return (a.bytes.data() == b.bytes.data() && a.bytes.size() == b.bytes.size()) ||
           a.bytes == b.bytes;
  }
  friend bool operator==(const Value& a, std::string_view b) noexcept { return a.bytes == b; }
  friend std::ostream& operator<<(std::ostream& os, const Value& v) { return os << v.bytes; }
};

/// A private, immutable copy of `bytes` (one allocation) and the owner that
/// keeps it alive: what the entry points whose caller only lends the bytes
/// apply from.
[[nodiscard]] inline std::pair<std::string_view, Owner> share(std::string_view bytes) {
  auto buf = std::make_shared_for_overwrite<char[]>(bytes.size());
  std::copy(bytes.begin(), bytes.end(), buf.get());
  return {std::string_view(buf.get(), bytes.size()), std::move(buf)};
}

class KeyIndex {
 public:
  /// Slots allocated by the first insert; the table only grows.
  static constexpr std::size_t kMinCapacity = 16;

  KeyIndex() noexcept = default;

  /// Same capacity and slot layout as `other`.
  KeyIndex(const KeyIndex& other) : KeyIndex(other.capacity_) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (other.ctrl_[i] == kEmpty) continue;
      std::construct_at(slots_ + i, other.slots_[i]);
      ctrl_[i] = other.ctrl_[i];
      ++size_;
    }
  }

  KeyIndex(KeyIndex&& other) noexcept
      : ctrl_(std::move(other.ctrl_)),
        slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        size_(std::exchange(other.size_, 0)) {}

  KeyIndex& operator=(KeyIndex other) noexcept {
    swap(other);
    return *this;
  }

  ~KeyIndex() {
    clear();
    if (slots_ != nullptr) std::allocator<Slot>{}.deallocate(slots_, capacity_);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Slots allocated: 0 until the first insert, then a power of two >= 16.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// The value stored under `key`, if any.
  [[nodiscard]] std::optional<Value> find(std::string_view key) const noexcept {
    if (size_ == 0) return std::nullopt;
    const Probe p = probe(key, hash(key));
    if (!p.found) return std::nullopt;
    return slots_[p.index].view();
  }

  [[nodiscard]] std::size_t count(std::string_view key) const noexcept {
    return find(key).has_value() ? 1 : 0;
  }

  /// The value stored under `key`; throws std::out_of_range if there is none.
  [[nodiscard]] Value at(std::string_view key) const {
    const auto v = find(key);
    if (!v) throw std::out_of_range("KeyIndex::at: no such key");
    return *v;
  }

  /// Store `value` under `key` in one probe, releasing any value it replaces.
  /// Both views must lie in bytes `owner` keeps alive: the slot keeps the
  /// owner and copies neither. Returns true when the key is new.
  bool insert_or_assign(std::string_view key, std::string_view value, Owner owner) {
    DYNA_EXPECTS(key.size() <= kMaxBytes && value.size() <= kMaxBytes);
    const std::size_t h = hash(key);
    if (capacity_ != 0) {
      const Probe p = probe(key, h);
      if (p.found) {
        // A whole new slot, not just a new value: the old key's bytes belong
        // to the owner this releases, so the key moves to the new owner too.
        slots_[p.index] = Slot(key, value, std::move(owner));
        return false;
      }
      if (size_ < max_load()) {
        place(p.index, h, Slot(key, value, std::move(owner)));
        return true;
      }
    }
    grow();
    place(probe(key, h).index, h, Slot(key, value, std::move(owner)));
    return true;
  }

  /// Remove `key` and release its value. Returns false if it was absent.
  bool erase(std::string_view key) noexcept {
    if (size_ == 0) return false;
    const Probe p = probe(key, hash(key));
    if (!p.found) return false;
    // Backward shift: walk the rest of the run and move back into the hole
    // every slot whose probe passed through it, i.e. whose home lies
    // cyclically at or before the hole. The run then stays contiguous.
    std::size_t hole = p.index;
    for (std::size_t j = next(hole); ctrl_[j] != kEmpty; j = next(j)) {
      const std::size_t home = hash(slots_[j].key()) & mask();
      if (((j - home) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = std::move(slots_[j]);
        ctrl_[hole] = ctrl_[j];
        hole = j;
      }
    }
    std::destroy_at(slots_ + hole);
    ctrl_[hole] = kEmpty;
    --size_;
    return true;
  }

  /// Drop every key and release every value; keeps both arrays.
  void clear() noexcept {
    if (size_ == 0) return;
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] != kEmpty) std::destroy_at(slots_ + i);
    }
    std::memset(ctrl_.get(), kEmpty, capacity_);
    size_ = 0;
  }

  /// Visit every (key, value) pair, in slot order (which depends on history).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] != kEmpty) fn(slots_[i].key(), slots_[i].view());
    }
  }

  /// Same (key, value) set, whatever the two layouts: equal sizes, and every
  /// key of `a` is in `b` with an equal value.
  friend bool operator==(const KeyIndex& a, const KeyIndex& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.capacity_; ++i) {
      if (a.ctrl_[i] == kEmpty) continue;
      const auto v = b.find(a.slots_[i].key());
      if (!v || !(*v == a.slots_[i].view())) return false;
    }
    return true;
  }

 private:
  /// The key's address, both sizes, and the value's pin: an alias of the
  /// owner pointing at the value bytes. The key lies in the same owner's
  /// bytes, so the pin keeps it alive too.
  struct Slot {
    Slot(std::string_view k, std::string_view v, Owner owner) noexcept
        : key_data(k.data()),
          key_size(static_cast<std::uint32_t>(k.size())),
          value_size(static_cast<std::uint32_t>(v.size())),
          value(std::move(owner), v.data()) {}

    [[nodiscard]] std::string_view key() const noexcept { return {key_data, key_size}; }
    [[nodiscard]] Value view() const noexcept { return {{value.get(), value_size}, value}; }

    const char* key_data;
    std::uint32_t key_size;
    std::uint32_t value_size;
    std::shared_ptr<const char> value;
  };
  static_assert(sizeof(Slot) == 32);

  /// Largest key or value a slot's 32-bit sizes hold.
  static constexpr std::size_t kMaxBytes = std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint8_t kEmpty = 0;

  struct Probe {
    std::size_t index;  // the key's slot if found, else the empty slot ending its run
    bool found;
  };

  /// Empty, with `capacity` slots allocated (a power of two, or 0).
  explicit KeyIndex(std::size_t capacity)
      : ctrl_(capacity == 0 ? nullptr : std::make_unique<std::uint8_t[]>(capacity)),
        slots_(capacity == 0 ? nullptr : std::allocator<Slot>{}.allocate(capacity)),
        capacity_(capacity) {}

  /// std::hash<std::string_view>: its low bits pick the home slot, its top
  /// 7 bits the tag. Not the shard router's FNV-1a: with a power-of-two
  /// shard count, all keys of one shard share that hash's low bits, so the
  /// mask would send them to 1/shards of the home slots.
  [[nodiscard]] static std::size_t hash(std::string_view key) noexcept {
    return std::hash<std::string_view>{}(key);
  }
  [[nodiscard]] static std::uint8_t tag_of(std::size_t h) noexcept {
    return static_cast<std::uint8_t>(0x80 | (h >> (std::numeric_limits<std::size_t>::digits - 7)));
  }

  void swap(KeyIndex& other) noexcept {
    std::swap(ctrl_, other.ctrl_);
    std::swap(slots_, other.slots_);
    std::swap(capacity_, other.capacity_);
    std::swap(size_, other.size_);
  }

  [[nodiscard]] std::size_t mask() const noexcept { return capacity_ - 1; }
  [[nodiscard]] std::size_t next(std::size_t i) const noexcept { return (i + 1) & mask(); }
  [[nodiscard]] std::size_t max_load() const noexcept { return capacity_ - capacity_ / 8; }

  /// Walk `key`'s run from its home slot; the load bound guarantees an empty
  /// slot ends it. Requires capacity_ > 0.
  [[nodiscard]] Probe probe(std::string_view key, std::size_t h) const noexcept {
    const std::uint8_t tag = tag_of(h);
    for (std::size_t i = h & mask();; i = next(i)) {
      if (ctrl_[i] == kEmpty) return {i, false};
      if (ctrl_[i] == tag && slots_[i].key() == key) return {i, true};
    }
  }

  void place(std::size_t index, std::size_t h, Slot slot) noexcept {
    std::construct_at(slots_ + index, std::move(slot));
    ctrl_[index] = tag_of(h);
    ++size_;
  }

  /// Double the capacity (or allocate the first 16 slots), moving every
  /// slot to its place in the new arrays.
  void grow() {
    KeyIndex bigger(capacity_ == 0 ? kMinCapacity : 2 * capacity_);
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] == kEmpty) continue;
      const std::size_t h = hash(slots_[i].key());
      std::size_t j = h & bigger.mask();
      while (bigger.ctrl_[j] != kEmpty) j = bigger.next(j);
      std::construct_at(bigger.slots_ + j, std::move(slots_[i]));
      bigger.ctrl_[j] = ctrl_[i];
      ++bigger.size_;
    }
    swap(bigger);
  }

  std::unique_ptr<std::uint8_t[]> ctrl_;
  Slot* slots_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dyna::kv
