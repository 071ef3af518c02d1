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
// Concurrency (DESIGN.md §10): requests route through a typed Dispatcher;
// per-session state lives in sharded TTL tables locked per shard; the only
// service-wide locks are two shared_mutexes over key/edge configuration and
// the tag store, taken shared on the hot paths. No lock of any kind is held
// across an outbound channel call (the PR 3 TPA/Edge lock-order hazard is
// structurally impossible now).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
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
  /// `offline` opts the verifier into the online/offline audit split
  /// (ice/offline.h): a background worker precomputes challenge bundles
  /// during idle cycles and start_audit / batch_begin consume them. Off by
  /// default — with it off, the RNG draw order and every wire byte are
  /// exactly the pre-PR-8 cold path.
  explicit TpaService(std::size_t parallelism = 0,
                      const OfflineConfig& offline = {});

  Bytes handle(std::uint16_t method, BytesView request) override;

  /// Registers the channel used to challenge edge `edge_id` (verifier
  /// replica only). Non-owning; must outlive the service.
  void register_edge(std::uint32_t edge_id, net::RpcChannel& channel);

  /// Direct state access for tests.
  [[nodiscard]] bool has_tags() const;

  /// Epoch-engine observability (DESIGN.md §15): merge counters plus
  /// snapshot-pin gauges. All zero before tags are stored.
  /// Thread-safe.
  [[nodiscard]] StoreEpochStats epoch_stats() const;

  /// Tamper-evident record of every verdict this TPA issued. Read it only
  /// while no audit is in flight (appends are internally serialized, reads
  /// through this accessor are not).
  [[nodiscard]] const AuditLog& audit_log() const { return log_; }

  /// Offline-split observability: pool depth, hit/miss/refill counters
  /// (all zero when the split is disabled). Thread-safe.
  [[nodiscard]] OfflineStats offline_stats() const { return pool_.stats(); }

  /// Direct pool access for tests and operator tooling (stale-bundle
  /// injection, prefill waits). The service owns the pool; do not hold
  /// references across a service restart.
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
  void on_append_tag(net::Reader& r, net::Writer& w);
  void on_close_epoch(net::Reader& r, net::Writer& w);

  /// Copies the key + params under the shared config lock; throws
  /// ServiceError(kFailedPrecondition) before set_key.
  [[nodiscard]] std::pair<PublicKey, ProtocolParams> config_snapshot() const;

  net::Dispatcher dispatch_;

  // Key/edge configuration: written by set_key/register_edge, read
  // (shared) by every audit path.
  mutable std::shared_mutex config_mu_;
  ProtocolParams params_;        // coeff/key widths from kTpaSetKey
  std::optional<PublicKey> pk_;
  std::map<std::uint32_t, net::RpcChannel*> edges_;

  // Tag store: replaced wholesale by store_tags (built OUTSIDE the lock,
  // then swapped in), queried shared by tag_query.
  mutable std::shared_mutex store_mu_;
  std::unique_ptr<TagStore> store_;

  SessionTable<AuditSession> sessions_;
  SessionTable<BatchSession> batches_;
  crypto::SharedCsprng rng_;

  // Online/offline split (ice/offline.h). Declared after rng_ and before
  // offline_worker_ so destruction stops the worker (which draws from
  // rng_ and fills pool_) before either referent dies.
  const OfflineConfig offline_cfg_;
  ChallengePool pool_;
  std::unique_ptr<OfflineWorker> offline_worker_;

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
  /// Submits the repacked tags; returns the audit verdict.
  [[nodiscard]] bool submit_repacked(
      std::uint64_t session_id, const std::vector<bn::BigInt>& tags) const;
  /// ICE-batch: opens a batch under the user-chosen id expecting
  /// `num_edges` proofs; returns g_s. A live-id collision is refused
  /// (RemoteError kAlreadyExists).
  [[nodiscard]] bn::BigInt batch_begin(std::uint64_t batch_id,
                                       std::size_t num_edges) const;
  /// ICE-batch: closes the batch with the repacked union tags.
  [[nodiscard]] bool batch_finish(std::uint64_t batch_id,
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
  /// Merges staged updates into the readable snapshot. With force=false
  /// the TPA refuses (closed=false) while audit sessions hold snapshot
  /// pins; the verifier-driven UserClient path forces.
  [[nodiscard]] CloseEpochReply close_epoch(bool force) const;
  /// The store's row count and content epoch; the user plans its tag
  /// queries against this epoch.
  [[nodiscard]] TagInfo tag_info() const;
  /// One private tag query over all n rows. A stale epoch surfaces as
  /// RemoteError kFailedPrecondition — refresh the epoch and re-plan.
  [[nodiscard]] pir::PirResponse tag_query(const TagQuery& query) const;
  /// Appends the tag of a newly outsourced block; returns its global
  /// index and the new epoch.
  [[nodiscard]] std::pair<std::size_t, std::uint64_t> append_tag(
      const bn::BigInt& tag) const;

 private:
  net::RpcChannel* channel_;
};

}  // namespace ice::proto
