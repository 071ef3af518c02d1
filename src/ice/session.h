// Per-session protocol state machines for the session-core services.
//
// Each in-flight audit/batch/blinding is one value in a sharded session
// table (common/sharded_map.h) keyed by the user-chosen session nonce.
// Mutating a session means holding only its shard lock, so unrelated
// sessions never contend and no service-wide mutex exists on the audit
// path. Tables are TTL-bounded: an abandoned session (user never submits
// repacked tags, batch never finishes) evicts itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/sharded_map.h"
#include "ice/protocol.h"

namespace ice::proto {

/// One ICE-basic audit at the TPA (paper §IV): created by start_audit,
/// consumed by submit_repacked.
struct AuditSession {
  enum class State {
    kChallenging,   // challenge round trip to the edge still in flight
    kAwaitingTags,  // proof parked; waiting for the repacked tags
  };

  State state = State::kChallenging;
  std::uint32_t edge_id = 0;
  /// The key generation the challenge was minted under (ice/offline.h);
  /// submit_repacked refuses the session under any other.
  std::uint64_t generation = 0;
  Challenge challenge;
  ChallengeSecret secret;
  Proof proof;  // valid once state == kAwaitingTags
};

/// One ICE-batch round at the TPA (paper §V): created by batch_begin,
/// filled by per-edge submit_proof calls, consumed by batch_finish.
struct BatchSession {
  std::uint64_t generation = 0;  // as AuditSession::generation
  ChallengeSecret secret;
  std::size_t expected_proofs = 0;
  std::vector<Proof> proofs;

  [[nodiscard]] bool complete() const {
    return proofs.size() == expected_proofs;
  }
};

/// The blinding s~ a user shared with an edge for one upcoming challenge;
/// consumed (one-shot) when the TPA's challenge arrives.
struct BlindingSession {
  bn::BigInt s_tilde;
};

template <typename Session>
using SessionTable = ShardedMap<std::uint64_t, Session>;

/// Cap on concurrently open sessions per table (hostile users must not
/// exhaust service memory) and how long an abandoned session lingers.
constexpr std::size_t kMaxOpenSessions = 4096;
constexpr std::chrono::minutes kSessionTtl{10};

[[nodiscard]] inline ShardedMapConfig session_table_config(
    std::size_t max_entries = kMaxOpenSessions) {
  ShardedMapConfig config;
  config.ttl = kSessionTtl;
  config.max_entries = max_entries;
  return config;
}

}  // namespace ice::proto
