// Keyspace router for sharded multi-raft: maps kvstore keys onto one of k
// independent consensus groups, deterministically, by hash or by contiguous
// lexicographic range. Also the client-side leader cache: sharded clients
// publish the leader a completed op discovered, later clients start there
// instead of re-walking the group (redirect handling stays in kv::KvClient;
// the router only shortcuts the first hop).
//
// Header-only and state-light on purpose — a router is per-run driver state,
// not simulation state, so it never participates in the reset contract.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace dyna::shard {

/// How the keyspace splits across groups.
enum class PartitionMode : std::uint8_t {
  Hash,   ///< FNV-1a over the whole key, modulo shards (uniform, order-free)
  Range,  ///< contiguous ranges over the key's first 8 bytes (big-endian)
};

class ShardRouter {
 public:
  explicit ShardRouter(std::size_t shards, PartitionMode mode = PartitionMode::Hash)
      : shards_(shards), mode_(mode), leader_(shards, kNoNode) {
    DYNA_EXPECTS(shards >= 1);
  }

  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }
  [[nodiscard]] PartitionMode mode() const noexcept { return mode_; }

  /// Deterministic shard assignment for a key.
  [[nodiscard]] std::size_t shard_of(std::string_view key) const noexcept {
    if (shards_ == 1) return 0;
    if (mode_ == PartitionMode::Hash) return hash64(key) % shards_;
    // Range: bucket the first 8 bytes read big-endian, so shard boundaries
    // are contiguous in lexicographic key order (shard i owns keys whose
    // prefix lies in [i*step, (i+1)*step)).
    return static_cast<std::size_t>(prefix64(key) / range_step());
  }

  /// A key that lands on `shard` and embeds `stem` (deterministic; same
  /// inputs always yield the same key). Hash mode appends the smallest salt
  /// that hashes home; range mode prepends the 8-byte big-endian midpoint of
  /// the shard's range — raw bytes, which the length-prefixed kv encoding
  /// carries verbatim. This is how pinned workload sessions draw keys that
  /// stay inside their own group.
  [[nodiscard]] std::string key_for_shard(std::size_t shard, std::string_view stem) const {
    DYNA_EXPECTS(shard < shards_);
    if (shards_ == 1) return std::string(stem);
    if (mode_ == PartitionMode::Range) {
      const std::uint64_t mid = range_step() * shard + range_step() / 2;
      std::string key(8, '\0');
      for (int b = 0; b < 8; ++b) {
        key[static_cast<std::size_t>(b)] =
            static_cast<char>((mid >> (56 - 8 * b)) & 0xFF);
      }
      key += stem;
      return key;
    }
    std::string key;
    for (std::uint64_t salt = 0;; ++salt) {
      key.assign(stem);
      key += '@';
      key += std::to_string(salt);
      if (shard_of(key) == shard) return key;
    }
  }

  // ---- Leader cache ----

  /// Publish a leader discovered for `shard` (a completed op's final target).
  void note_leader(std::size_t shard, NodeId leader) {
    DYNA_EXPECTS(shard < shards_);
    leader_[shard] = leader;
  }

  /// Last published leader for `shard`, or kNoNode if none yet.
  [[nodiscard]] NodeId leader_hint(std::size_t shard) const {
    DYNA_EXPECTS(shard < shards_);
    return leader_[shard];
  }

  /// Invalidate every cached leader entry naming `node` (the node left the
  /// cluster). A stale cache entry would seed new clients with a dead first
  /// hop; after invalidation they fall back to the ordinary leader walk.
  void note_removed(NodeId node) {
    for (NodeId& cached : leader_) {
      if (cached == node) cached = kNoNode;
    }
  }

 private:
  [[nodiscard]] static std::uint64_t hash64(std::string_view s) noexcept {
    // FNV-1a 64-bit.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
    return h;
  }

  [[nodiscard]] static std::uint64_t prefix64(std::string_view s) noexcept {
    std::uint64_t p = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      const std::uint64_t byte =
          b < s.size() ? static_cast<std::uint8_t>(s[b]) : 0;
      p = (p << 8) | byte;
    }
    return p;
  }

  /// Width of one range-mode bucket; the +1 keeps prefix/step < shards even
  /// for the all-0xFF prefix.
  [[nodiscard]] std::uint64_t range_step() const noexcept {
    return std::numeric_limits<std::uint64_t>::max() / shards_ + 1;
  }

  std::size_t shards_;
  PartitionMode mode_;
  std::vector<NodeId> leader_;
};

}  // namespace dyna::shard
