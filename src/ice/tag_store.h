// The tag-side state one TPA keeps for one user's file.
//
// TPASetup (paper Sec. III-A): given the n tags, fix gamma and the embedding
// phi, and build the representation used to answer private tag queries.
// Both TPAs hold identical replicas (the 2-server PIR non-collusion
// assumption). The store is the paper's single layout: one TagDatabase, one
// Embedding and one PirServer over all n rows, so every retrieval reaches a
// TPA as one m-point query over the whole file (DESIGN.md §13).
//
// Locking and epochs (DESIGN.md §15): one reader-writer lock guards the
// rows, the embedding and the content epoch, the store's only epoch.
// Queries, tag reads and staged updates take it shared; close_epoch and
// append take it exclusive. The epoch moves on every append and on every
// close that merged rows, and a replacement store starts above the store
// it replaces, so a query planned before any of these fails its epoch
// check with the typed StaleEpochError instead of decoding against the
// wrong state. The store also names the key generation its tags were
// uploaded under (fixed at construction). The store builds no bitplanes:
// the fused engine streams the rows.
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

/// A tag query was planned against an epoch the store has since left (an
/// append, or a close that merged rows). ProtocolError, so the RPC
/// dispatcher maps it to Status::kFailedPrecondition; the client refreshes
/// its epoch and re-plans.
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

  [[nodiscard]] std::size_t n() const;
  [[nodiscard]] std::size_t tag_bits() const { return db_.tag_bits(); }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  /// Content epoch: moves on every append and every close that merged.
  [[nodiscard]] std::uint64_t epoch() const;
  /// n, the generation and the epoch under one lock, so an append cannot
  /// fall between them.
  [[nodiscard]] TagInfo info() const;

  /// Starts this store's epoch one above `replaced`'s, so a query planned
  /// against the store this one replaces fails its epoch check. Call
  /// before the store is shared.
  void follow(const TagStore& replaced);

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

  /// Appends a tag for a newly outsourced block: one more row and an
  /// embedding over n + 1 (gamma may grow). Existing rows and staged
  /// updates stay where they are. Moves the epoch. Returns the new index.
  std::size_t append(const bn::BigInt& tag);

  /// Answers one private tag query (paper Alg. 1 "tag response") planned
  /// against `epoch`. Throws StaleEpochError when the epoch has moved and
  /// ParamError when a point's length is not gamma(n).
  void respond(std::uint64_t epoch, const pir::PirQuery& query,
               pir::PirResponse& out) const;

 private:
  mutable std::shared_mutex mu_;  // guards db_'s base rows, embedding_, epoch_
  pir::TagDatabase db_;
  pir::Embedding embedding_;
  // Points at db_ and embedding_, whose addresses never change, so an
  // append that grows both leaves it valid.
  pir::PirServer server_;
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
