// Third-party auditor actor.
//
// Holds the tag replica (TagStore) for private retrieval, runs ICE-basic
// audit sessions (challenge an edge, hold its proof, verify against the
// user's repacked tags) and ICE-batch sessions (collect J proofs, one
// product check). Semi-honest: it follows the protocol; privacy against it
// is provided by the PIR and the tag repacking, not by this code.
//
// Exactly one of the two TPA replicas is the "verifier" (owns audit
// sessions and edge channels); both answer tag queries.
//
// Key generations (DESIGN.md §14): set_key bumps the generation; the tag
// store, every session and every retrieval name the generation they
// belong to, and a verdict needs all three to be the current one. Anything
// else is a typed kFailedPrecondition, never a FAIL.
//
// Concurrency (DESIGN.md §10): requests route through a typed Dispatcher;
// per-session state lives in two TTL session tables, one mutex each, which
// also own the session refusals; the other service-wide locks are two
// shared_mutexes over the edge registry and the tag store, taken shared on
// the hot paths, and the challenge pool's mutex over the key and its
// generation. No lock of any kind is held across an outbound channel call
// (the TPA/Edge lock-order hazard is structurally impossible).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "crypto/csprng.h"
#include "ice/audit_log.h"
#include "ice/batch.h"
#include "ice/keys.h"
#include "ice/offline.h"
#include "ice/params.h"
#include "ice/protocol.h"
#include "ice/session.h"
#include "ice/tag_store.h"
#include "ice/wire.h"
#include "net/dispatch.h"
#include "net/rpc.h"
#include "net/serde.h"

namespace ice::proto {

class TpaService final : public net::RpcHandler {
 public:
  /// `parallelism` is the worker-task budget for PIR evaluation and proof
  /// verification: a local deployment knob, independent of the protocol
  /// parameters received via kTpaSetKey.
  explicit TpaService(std::size_t parallelism = 0);

  Bytes handle(std::uint16_t method, BytesView request) override;

  /// Registers the channel used to challenge edge `edge_id` (verifier
  /// replica only). Non-owning; must outlive the service.
  void register_edge(std::uint32_t edge_id, net::RpcChannel& channel);

  /// Direct state access for tests.
  [[nodiscard]] bool has_tags() const;

  /// Epoch-engine observability (DESIGN.md §15): merge counters. All zero
  /// before tags are stored. Thread-safe.
  [[nodiscard]] StoreEpochStats epoch_stats() const;

  /// Tamper-evident record of every verdict this TPA issued. Read it only
  /// while no audit is in flight (appends are internally serialized, reads
  /// through this accessor are not).
  [[nodiscard]] const AuditLog& audit_log() const { return log_; }

  /// Challenge-pool observability: depth, hit/miss/refill counters.
  /// Thread-safe.
  [[nodiscard]] OfflineStats offline_stats() const { return pool_.stats(); }

  /// Direct pool access for tests and operator tooling (the key, its
  /// generation and its ladder holder live there). The service owns the
  /// pool; do not hold references across a service restart.
  [[nodiscard]] ChallengePool& challenge_pool() { return pool_; }

 private:
  void on_set_key(net::Reader& r, net::Writer& w);
  void on_store_tags(net::Reader& r, net::Writer& w);
  void on_start_audit(net::Reader& r, net::Writer& w);
  void on_submit_repacked(net::Reader& r, net::Writer& w);
  void on_batch_begin(net::Reader& r, net::Writer& w);
  void on_submit_proof(net::Reader& r, net::Writer& w);
  void on_batch_finish(net::Reader& r, net::Writer& w);
  void on_update_tag(net::Reader& r, net::Writer& w);
  void on_tag_info(net::Reader& r, net::Writer& w);
  void on_tag_query(net::Reader& r, net::Writer& w);
  void on_close_epoch(net::Reader& r, net::Writer& w);

  /// The current key and its generation, read in one hold; throws
  /// ServiceError(kFailedPrecondition) before set_key.
  [[nodiscard]] ChallengePool::MintSpec key_snapshot() const;

  /// The one challenge path (DESIGN.md §14): pops a bundle minted under
  /// `key`'s generation or, on a miss, mints one inline with the same
  /// make_challenge call; then kicks the refill worker.
  [[nodiscard]] ChallengeBundle next_challenge(
      const ChallengePool::MintSpec& key);

  net::Dispatcher dispatch_;
  const std::size_t parallelism_;

  // Edge registry: written by register_edge, read (shared) by start_audit.
  mutable std::shared_mutex edges_mu_;
  std::map<std::uint32_t, net::RpcChannel*> edges_;

  // Tag store: installed by store_tags (built OUTSIDE the lock, then
  // installed unless set_key ran meanwhile or a store is already there),
  // dropped by set_key, queried shared by tag_query.
  mutable std::shared_mutex store_mu_;
  std::unique_ptr<TagStore> store_;

  SessionTable<AuditSession> sessions_;
  SessionTable<BatchSession> batches_;
  crypto::SharedCsprng rng_;

  // The key (with its ladder holder and generation) and the bundles
  // minted under it. Declared after rng_ and before worker_ so destruction
  // stops the worker (which draws from rng_ and fills pool_) before either
  // referent dies.
  ChallengePool pool_;
  OfflineWorker worker_;

  std::mutex log_mu_;
  AuditLog log_;
};

/// Client stub for the user-side TPA calls.
class TpaClient {
 public:
  explicit TpaClient(net::RpcChannel& channel) : channel_(&channel) {}

  void set_key(const PublicKey& pk, const ProtocolParams& params) const;
  void store_tags(const std::vector<bn::BigInt>& tags) const;
  /// Starts an ICE-basic audit of `edge_id` under the user-chosen session
  /// nonce (the edge holds the blinding s~ under the same id). The TPA
  /// challenges the edge synchronously and parks the proof. A nonce that
  /// collides with a live session is refused (RemoteError kAlreadyExists).
  void start_audit(std::uint32_t edge_id, std::uint64_t session_id) const;
  /// start_audit's request on its way; wait() returns once the proof is
  /// parked.
  [[nodiscard]] net::PendingReply<void> start_start_audit(
      std::uint32_t edge_id, std::uint64_t session_id) const;
  /// Submits the repacked tags, retrieved under key `generation` (the
  /// tag_info reply's); returns the audit verdict. A generation other than
  /// the session's is refused (RemoteError kFailedPrecondition).
  [[nodiscard]] bool submit_repacked(
      std::uint64_t session_id, std::uint64_t generation,
      const std::vector<bn::BigInt>& tags) const;
  /// ICE-batch: opens a batch under the user-chosen id expecting
  /// `num_edges` proofs; returns the batch base (g_s and its ladder; e is
  /// 0). The ladder is decoded but not validated: the caller checks it
  /// with validate_ladder before forwarding it. A live-id collision is
  /// refused (RemoteError kAlreadyExists).
  [[nodiscard]] Challenge batch_begin(std::uint64_t batch_id,
                                      std::size_t num_edges) const;
  /// ICE-batch: closes the batch with the repacked union tags, retrieved
  /// under key `generation` (refused as in submit_repacked).
  [[nodiscard]] bool batch_finish(std::uint64_t batch_id,
                                  std::uint64_t generation,
                                  const std::vector<bn::BigInt>& tags) const;
  /// Data dynamics: stages the replacement tag of one block into the next
  /// epoch (invisible to retrievals until close_epoch). Returns the epoch
  /// the update was staged under. A hostile index or out-of-range tag is
  /// refused with RemoteError kInvalidArgument.
  std::uint64_t update_tag(std::size_t index, const bn::BigInt& tag) const;
  /// What one kTpaCloseEpoch call did at this replica.
  struct CloseEpochReply {
    bool closed = false;
    std::uint64_t epoch = 0;
    std::uint64_t rows_merged = 0;
  };
  /// Merges staged updates into the readable snapshot.
  [[nodiscard]] CloseEpochReply close_epoch() const;
  /// The store's row count, key generation and content epoch; the user
  /// plans its tag queries against this (generation, epoch) pair.
  [[nodiscard]] TagInfo tag_info() const;
  /// One private tag query over all n rows, whose reply is read as the
  /// answer to it: one entry per point, `tag_bits`-bit tags, gradients as
  /// long as its points (a reply of any other shape is a CodecError). A
  /// stale generation or epoch surfaces as RemoteError kFailedPrecondition
  /// — refresh and re-plan.
  [[nodiscard]] pir::PirResponse tag_query(const TagQuery& query,
                                           std::size_t tag_bits) const;
  /// tag_query's request on its way; wait() returns the answer.
  [[nodiscard]] net::PendingReply<pir::PirResponse> start_tag_query(
      const TagQuery& query, std::size_t tag_bits) const;

 private:
  net::RpcChannel* channel_;
};

}  // namespace ice::proto
