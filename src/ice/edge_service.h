// Edge-node actor: serves nearby users from its cache, pre-downloads from
// the CSP on misses, defers write-backs, and answers integrity challenges.
//
// The edge is the UNTRUSTED party in the protocol: nothing here is relied
// on for security — a tampered edge simply fails verification. Tests
// exercise that through the fault-injection hook.
//
// Concurrency (DESIGN.md §10): the per-session blindings live in one TTL
// session table (one mutex, which also owns the share/challenge refusals);
// the only other lock is cache_mu_ over the block cache, and neither is
// held across a channel call — CSP fetches, write-backs and TPA proof
// submissions all run lock-free on state snapshotted under the lock, so
// the TPA/Edge lock-order inversion cannot arise.
#pragma once

#include <mutex>
#include <optional>

#include "ice/keys.h"
#include "ice/params.h"
#include "ice/protocol.h"
#include "ice/session.h"
#include "mec/edge_cache.h"
#include "net/dispatch.h"
#include "net/rpc.h"
#include "net/serde.h"

namespace ice::proto {

class EdgeService final : public net::RpcHandler {
 public:
  /// `csp` is the upstream channel for cache misses and write-backs;
  /// `tpa` (may be null) is where ICE-batch proofs are submitted.
  EdgeService(std::uint32_t edge_id, const ProtocolParams& params,
              PublicKey pk, mec::EdgeCache cache, net::RpcChannel& csp,
              net::RpcChannel* tpa = nullptr);

  Bytes handle(std::uint16_t method, BytesView request) override;

  /// Warms the cache with specific blocks (experiment setup).
  void pre_download(const std::vector<std::size_t>& indices);

  /// Fault-injection access to the cache (tests/experiments only; callers
  /// must be quiescent — no lock is taken).
  [[nodiscard]] mec::EdgeCache& cache_for_corruption() { return cache_; }

  [[nodiscard]] std::uint32_t id() const { return edge_id_; }

 private:
  void on_read(net::Reader& r, net::Writer& w);
  void on_write(net::Reader& r, net::Writer& w);
  void on_index_query(net::Reader& r, net::Writer& w);
  void on_share_blind(net::Reader& r, net::Writer& w);
  void on_challenge(net::Reader& r, net::Writer& w);
  void on_batch_challenge(net::Reader& r, net::Writer& w);
  void on_subset_proof(net::Reader& r, net::Writer& w);
  void on_flush(net::Reader& r, net::Writer& w);

  /// Fetches `index` from the CSP (lock-free round trip) and admits it;
  /// returns the block. A concurrent admit of the same index wins quietly.
  Bytes fetch_and_admit(std::size_t index);
  /// Current cache content as blocks in index order (call under cache_mu_).
  [[nodiscard]] std::vector<Bytes> cached_blocks_ordered_locked();
  /// Snapshot of the cached blocks for proof computation.
  [[nodiscard]] std::vector<Bytes> snapshot_blocks();

  const std::uint32_t edge_id_;
  const ProtocolParams params_;
  const PublicKey pk_;
  net::RpcChannel* const csp_;
  net::RpcChannel* const tpa_;
  net::Dispatcher dispatch_;

  std::mutex cache_mu_;
  mec::EdgeCache cache_;

  SessionTable<BlindingSession> blindings_;  // s~ per session, one-shot
};

/// Client stub for the user-side (and TPA-side challenge) calls.
class EdgeClient {
 public:
  explicit EdgeClient(net::RpcChannel& channel) : channel_(&channel) {}

  [[nodiscard]] Bytes read(std::size_t index) const;
  void write(std::size_t index, BytesView data) const;
  [[nodiscard]] std::vector<std::size_t> index_query() const;
  void share_blinding(std::uint64_t session_id,
                      const bn::BigInt& s_tilde) const;
  /// TPA-side: deliver a challenge, get the proof back.
  [[nodiscard]] Proof challenge(std::uint64_t session_id,
                                const Challenge& chal) const;
  /// ICE-batch: deliver (e_j, g_s, ladder); the edge pushes its proof to
  /// the TPA.
  void batch_challenge(std::uint64_t batch_id, const bn::BigInt& e_j,
                       const bn::BigInt& g_s, const bn::Ladder& ladder) const;
  /// batch_challenge's request on its way; wait() returns once the edge
  /// has pushed its proof.
  [[nodiscard]] net::PendingReply<void> start_batch_challenge(
      std::uint64_t batch_id, const bn::BigInt& e_j, const bn::BigInt& g_s,
      const bn::Ladder& ladder) const;
  /// Flushes dirty blocks to the CSP; returns how many were written back.
  std::size_t flush() const;
  /// Owner-driven subset challenge (corruption localization): proof over
  /// the cached blocks at `subset`, coefficients from e, base g_s. Throws
  /// ProtocolError if the edge no longer holds one of the blocks.
  [[nodiscard]] Proof subset_proof(const bn::BigInt& e, const bn::BigInt& g_s,
                                   const std::vector<std::size_t>& subset)
      const;

 private:
  net::RpcChannel* channel_;
};

}  // namespace ice::proto
