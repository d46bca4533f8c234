// Raft node configuration.
//
// The three variants evaluated in the paper are expressed purely through this
// struct plus the election policy:
//   * Raft      — etcd defaults: Et 1000 ms, h 100 ms, 100 ms ticks, static policy
//   * Raft-Low  — 1/10 of the defaults (Et 100 ms, h 10 ms, 10 ms ticks)
//   * Dynatune  — measurement + datagram heartbeats + per-follower timers +
//                 DynatunePolicy, 1 ms ticks
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace dyna::raft {

using namespace std::chrono_literals;

struct RaftConfig {
  /// Default (fallback) election timeout Et. The static policy always uses
  /// it; Dynatune starts from it and falls back to it on timer expiry.
  Duration election_timeout = 1000ms;

  /// Default (fallback) heartbeat interval h.
  Duration heartbeat_interval = 100ms;

  /// Timeout quantization. etcd counts timeouts in ticks; randomizedTimeout
  /// is therefore a whole number of ticks in [Et, 2·Et). Baseline Raft uses
  /// 100 ms ticks; Dynatune's fork re-times at 1 ms. Duration{0} disables
  /// quantization (continuous draw).
  Duration tick = 100ms;

  /// Attach HeartbeatMeta to heartbeats and echo it on responses
  /// (measurement plumbing; enabled in Dynatune mode).
  bool measure_network = false;

  /// Send empty AppendEntries (heartbeats) over the lossy datagram channel
  /// instead of the reliable one (the paper's UDP/TCP hybrid).
  bool datagram_heartbeats = false;

  /// One heartbeat timer per follower (required for per-path h tuning)
  /// instead of one broadcast timer.
  bool per_follower_heartbeat = false;

  /// §IV-E extension (a): skip an empty heartbeat when replication traffic
  /// to that follower within the current interval already proves liveness.
  /// Recovers part of Dynatune's peak-throughput cost under load.
  bool suppress_heartbeats_under_load = false;

  /// §IV-E extension (b): keep a single broadcast heartbeat timer but pace
  /// it at the *minimum* tuned h across followers (only meaningful with
  /// per_follower_heartbeat = false and a tuning policy). Trades some
  /// per-path pacing precision for one timer instead of n-1.
  bool consolidated_heartbeat_timer = false;

  /// Leader-side group commit: client commands arriving within one 500 us
  /// replication batching window coalesce into ONE multi-command log entry
  /// (a batch frame), with per-command completion fan-out when it applies.
  /// Admission is pipelined — a new batch accumulates while earlier ones are
  /// still in flight. Off by default: every reference trace predates this
  /// knob.
  bool group_commit = false;

  /// Group-commit cap: a batch seals early once it holds this many commands
  /// (or 64 KiB of frame, whichever trips first).
  std::size_t max_batch_commands = 64;

  /// Leader ReadIndex fast path: read-only client commands (classified by
  /// the host's read hook) are answered from the leader's state machine
  /// after a quorum round confirms leadership — no log write, no
  /// replication. Off by default.
  bool read_index = false;

  /// Snapshot/compaction policy: take a state-machine snapshot once more
  /// than this many applied entries sit behind the last compaction point.
  /// 0 disables snapshots entirely (the default — reference runs replay
  /// from index 1 and stay byte-identical to the pre-snapshot behaviour).
  std::size_t snapshot_threshold = 0;

  /// How many applied entries to keep in the log behind the snapshot so
  /// slightly-lagging followers catch up via AppendEntries instead of a
  /// full InstallSnapshot (cf. etcd's snapshot-catchup-entries).
  std::size_t snapshot_trailing = 64;

  /// Factory presets matching the paper's variants (election policy is
  /// supplied separately — see raft/election_policy.hpp).
  [[nodiscard]] static RaftConfig etcd_default() { return RaftConfig{}; }

  [[nodiscard]] static RaftConfig raft_low() {
    RaftConfig c;
    c.election_timeout = 100ms;
    c.heartbeat_interval = 10ms;
    c.tick = 10ms;
    return c;
  }

  [[nodiscard]] static RaftConfig dynatune() {
    RaftConfig c;
    c.tick = 1ms;
    c.measure_network = true;
    c.datagram_heartbeats = true;
    c.per_follower_heartbeat = true;
    return c;
  }
};

}  // namespace dyna::raft
