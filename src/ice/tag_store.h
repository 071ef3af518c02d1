// The tag-side state one TPA keeps for one user's file.
//
// TPASetup (paper Sec. III-A): given the n tags, fix gamma and the embedding
// phi, and build the representation used to answer private tag queries.
// Both TPAs hold identical replicas (the 2-server PIR non-collusion
// assumption). The store is the paper's single layout: one TagDatabase, one
// Embedding and one PirServer over all n rows, so every retrieval reaches a
// TPA as one m-point query over the whole file (DESIGN.md §13).
//
// Shape, locking and epochs (DESIGN.md §15): the rows, the embedding and
// the PirServer over them are set at construction and never change shape;
// a new upload is a new store (after set_key). One reader-writer lock
// guards the base rows and the content epoch, the store's only epoch.
// Queries, tag reads and staged updates take it shared; only close_epoch
// takes it exclusive. The epoch counts the closes that merged rows, so a
// query planned before one fails its epoch check with the typed
// StaleEpochError instead of decoding against the wrong rows. The store
// also names the key generation its tags were uploaded under (fixed at
// construction). The store builds no bitplanes: the fused engine streams
// the rows.
//
// `update()` stages into the next epoch and `close_epoch()` merges. Staging
// is the only way to change a tag. A retrieval's snapshot guarantee is the
// lock and the epoch check; the verifier's own epoch gate
// (UserClient::close_epochs) keeps its audits clear of its closes.
#pragma once

#include <shared_mutex>
#include <span>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/random.h"
#include "common/error.h"
#include "ice/params.h"
#include "pir/embedding.h"
#include "pir/messages.h"
#include "pir/server.h"
#include "pir/tag_database.h"

namespace ice::proto {

/// A tag query was planned against an epoch the store has since left (a
/// close that merged rows). ProtocolError, so the RPC dispatcher maps it to
/// Status::kFailedPrecondition; the client refreshes its epoch and
/// re-plans.
class StaleEpochError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

/// Store-level epoch counters.
struct StoreEpochStats {
  pir::EpochStats db;
};

/// The store's row count, key generation and content epoch, read together
/// (the 309 reply). A retrieval is planned against (generation, epoch).
struct TagInfo {
  std::uint64_t n = 0;
  std::uint64_t generation = 0;
  std::uint64_t epoch = 0;
};

class TagStore {
 public:
  /// Copies the tag set, uploaded under key `generation`; K comes from
  /// `params.tag_bits()`, the evaluation budget from `params.parallelism`.
  /// Throws ParamError on an empty set or a tag wider than K bits.
  TagStore(const ProtocolParams& params, std::span<const bn::BigInt> tags,
           std::uint64_t generation = 0);

  [[nodiscard]] std::size_t n() const { return embedding_.n(); }
  [[nodiscard]] std::size_t tag_bits() const { return db_.tag_bits(); }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  /// Content epoch: the number of closes that merged rows.
  [[nodiscard]] std::uint64_t epoch() const;
  /// The 309 reply: n, the generation and the epoch.
  [[nodiscard]] TagInfo info() const;

  /// Plain (non-private) tag read; used by trusted-path tests and by the
  /// naive full-download baseline.
  [[nodiscard]] bn::BigInt tag(std::size_t index) const;

  /// Stages the replacement tag of an updated block (data dynamics) into
  /// the next epoch. Takes the lock only shared: it rides alongside
  /// queries and stays invisible until close_epoch().
  void update(std::size_t index, const bn::BigInt& tag);

  /// Merges staged updates and moves the epoch iff any row merged (an
  /// empty close leaves in-flight plans valid). The result's `epoch` is the
  /// store's content epoch after the call.
  pir::EpochMergeStats close_epoch();

  /// Rows staged for the next epoch.
  [[nodiscard]] std::size_t staged_updates() const {
    return db_.staged_updates();
  }
  [[nodiscard]] StoreEpochStats epoch_stats() const;

  /// Answers one private tag query (paper Alg. 1 "tag response") planned
  /// against `epoch`. Throws StaleEpochError when the epoch has moved and
  /// ParamError when a point's length is not gamma(n).
  void respond(std::uint64_t epoch, const pir::PirQuery& query,
               pir::PirResponse& out) const;

 private:
  mutable std::shared_mutex mu_;  // guards db_'s base rows and epoch_
  pir::TagDatabase db_;
  const pir::Embedding embedding_;
  const pir::PirServer server_;  // over db_ and embedding_
  const std::uint64_t generation_;
  std::uint64_t epoch_ = 0;
};

/// User-side helper: retrieves tags for `indices` from two TagStore replicas
/// (direct in-process variant used by tests and single-process simulations;
/// the RPC variant lives in user_client.h).
std::vector<bn::BigInt> retrieve_tags_direct(const TagStore& tpa0,
                                             const TagStore& tpa1,
                                             std::span<const std::size_t>
                                                 indices,
                                             bn::Rng64& rng);

}  // namespace ice::proto
