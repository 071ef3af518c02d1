// Per-session protocol state and the table that holds it.
//
// Each in-flight audit/batch/blinding is one entry in a SessionTable keyed
// by the user-chosen session nonce: one mutex over one map, which is ample
// at about one insert and one take per audit. The table owns the session
// refusals, so a service states each lookup in one call: a live-id
// collision is kAlreadyExists, a full table kResourceExhausted, a missing
// or expired id kNotFound, and an entry not yet ready to take
// kFailedPrecondition. Entries expire kSessionTtl after insertion (an
// abandoned audit must not hold service memory forever) and a table holds
// at most kMaxOpenSessions live entries (a hostile user must not exhaust
// it). Expired entries read as absent and are reaped lazily, with one sweep
// when the table is full.
//
// Callbacks passed to with() and take() run under the table's lock: they
// must not block, and in particular must never make a channel call.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ice/protocol.h"
#include "net/rpc.h"

namespace ice::proto {

/// One ICE-basic audit at the TPA (paper §IV): created by start_audit,
/// consumed by submit_repacked.
struct AuditSession {
  static constexpr const char* kName = "session";

  enum class State {
    kChallenging,   // challenge round trip to the edge still in flight
    kAwaitingTags,  // proof parked; waiting for the repacked tags
  };

  State state = State::kChallenging;
  std::uint32_t edge_id = 0;
  /// The key generation the challenge was minted under (ice/offline.h);
  /// submit_repacked refuses the session under any other, and refuses tags
  /// retrieved under any other.
  std::uint64_t generation = 0;
  Challenge challenge;
  ChallengeSecret secret;
  Proof proof;  // valid once state == kAwaitingTags
};

/// One ICE-batch round at the TPA (paper §V): created by batch_begin,
/// filled by per-edge submit_proof calls, consumed by batch_finish.
struct BatchSession {
  static constexpr const char* kName = "batch";

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
  static constexpr const char* kName = "blinding";

  bn::BigInt s_tilde;
};

/// Cap on concurrently open sessions per table and how long an abandoned
/// session lingers.
constexpr std::size_t kMaxOpenSessions = 4096;
constexpr std::chrono::minutes kSessionTtl{10};

/// TTL table of `Session`s keyed by session nonce. `Session::kName` names
/// an entry in refusal reasons. Thread-safe.
template <typename Session>
class SessionTable {
 public:
  using Clock = std::chrono::steady_clock;

  /// Tests pass a small `ttl` or `cap`; services keep the defaults.
  explicit SessionTable(Clock::duration ttl = kSessionTtl,
                        std::size_t cap = kMaxOpenSessions)
      : ttl_(ttl), cap_(cap) {}

  /// Inserts `session` under `id`. Throws kAlreadyExists if a live entry
  /// holds `id`, and kResourceExhausted if `cap` live entries remain after
  /// a sweep of the expired ones.
  void insert(std::uint64_t id, Session session) {
    std::lock_guard lock(mu_);
    const auto now = Clock::now();
    const auto it = map_.find(id);
    if (it != map_.end()) {
      if (now < it->second.deadline) {
        refuse(net::Status::kAlreadyExists, "id already in use");
      }
      it->second = {std::move(session), now + ttl_};  // expired: reuse
      return;
    }
    if (map_.size() >= cap_) {
      std::erase_if(map_, [now](const auto& e) {
        return now >= e.second.deadline;
      });
      if (map_.size() >= cap_) {
        refuse(net::Status::kResourceExhausted, "table full");
      }
    }
    map_.emplace(id, Entry{std::move(session), now + ttl_});
  }

  /// Runs fn(Session&) on the live entry under `id`; kNotFound if none.
  template <typename Fn>
  void with(std::uint64_t id, Fn&& fn) {
    std::lock_guard lock(mu_);
    fn(live(id)->second.session);
  }

  /// Removes and returns the live entry under `id`; kNotFound if none.
  Session take(std::uint64_t id) {
    return take(id, [](const Session&) { return true; });
  }

  /// As take(id), but only if ready(session) holds; otherwise the entry
  /// stays in place and the call throws kFailedPrecondition.
  template <typename Ready>
  Session take(std::uint64_t id, Ready&& ready) {
    std::lock_guard lock(mu_);
    const auto it = live(id);
    if (!ready(std::as_const(it->second.session))) {
      refuse(net::Status::kFailedPrecondition, "not ready");
    }
    Session session = std::move(it->second.session);
    map_.erase(it);
    return session;
  }

  /// Removes the entry under `id`, if any.
  void erase(std::uint64_t id) {
    std::lock_guard lock(mu_);
    map_.erase(id);
  }

  void clear() {
    std::lock_guard lock(mu_);
    map_.clear();
  }

  /// Live entries plus expired ones not yet reaped.
  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return map_.size();
  }

 private:
  struct Entry {
    Session session;
    Clock::time_point deadline;
  };
  using Map = std::unordered_map<std::uint64_t, Entry>;

  /// The live entry under `id` (call under mu_); an expired one is reaped.
  typename Map::iterator live(std::uint64_t id) {
    const auto it = map_.find(id);
    if (it == map_.end()) refuse(net::Status::kNotFound, "unknown id");
    if (Clock::now() >= it->second.deadline) {
      map_.erase(it);
      refuse(net::Status::kNotFound, "unknown id");
    }
    return it;
  }

  [[noreturn]] static void refuse(net::Status status, const char* reason) {
    throw net::ServiceError(status,
                            std::string(Session::kName) + ": " + reason);
  }

  const Clock::duration ttl_;
  const std::size_t cap_;
  mutable std::mutex mu_;
  Map map_;
};

}  // namespace ice::proto
