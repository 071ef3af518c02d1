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
// close that merged rows, so a query planned before either fails its epoch
// check with the typed StaleEpochError instead of decoding against the
// wrong state. The store builds no bitplanes: the fused engine streams the
// rows.
//
// `update()` stages into the next epoch and `close_epoch()` merges, and
// audit sessions take a SnapshotPin for their whole lifetime. Staging is
// the only way to change a tag. A pin is advisory — the hard snapshot
// guarantee comes from the lock and the epoch check — but it lets a
// non-forced close refuse while audits are in flight instead of failing
// them, and it feeds the pins_active counter.
#pragma once

#include <atomic>
#include <memory>
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

/// RAII snapshot pin held by an audit session (stashed in session state, so
/// it must survive thread handoff: a shared_ptr with a counting deleter,
/// not a shared_mutex — unlock_shared from another thread would be UB).
/// Releasing the last copy decrements the store's active-pin count.
using SnapshotPin = std::shared_ptr<const void>;

/// Store-level epoch counters.
struct StoreEpochStats {
  pir::EpochStats db;
  std::uint64_t pins_taken = 0;      // lifetime SnapshotPin count
  std::uint64_t pins_active = 0;     // currently outstanding
  std::uint64_t closes_skipped = 0;  // non-forced closes refused by pins
};

/// The store's row count and content epoch, read together (the 309 reply).
struct TagInfo {
  std::uint64_t n = 0;
  std::uint64_t epoch = 0;
};

class TagStore {
 public:
  /// Copies the tag set; K comes from `params.tag_bits()`, the evaluation
  /// budget from `params.parallelism`. Throws ParamError on an empty set or
  /// a tag wider than K bits.
  TagStore(const ProtocolParams& params, std::span<const bn::BigInt> tags);

  [[nodiscard]] std::size_t n() const;
  [[nodiscard]] std::size_t tag_bits() const { return db_.tag_bits(); }
  /// Content epoch: moves on every append and every close that merged.
  [[nodiscard]] std::uint64_t epoch() const;
  /// n and the epoch under one lock, so an append cannot fall between them.
  [[nodiscard]] TagInfo info() const;

  /// Plain (non-private) tag read; used by trusted-path tests and by the
  /// naive full-download baseline.
  [[nodiscard]] bn::BigInt tag(std::size_t index) const;

  /// Stages the replacement tag of an updated block (data dynamics) into
  /// the next epoch. Takes the lock only shared: it rides alongside
  /// queries and stays invisible until close_epoch().
  void update(std::size_t index, const bn::BigInt& tag);

  /// Pins the current epoch snapshot for the lifetime of the returned
  /// handle. Cheap (one atomic increment); copies share the same pin.
  [[nodiscard]] SnapshotPin pin() const;
  [[nodiscard]] std::uint64_t pins_active() const {
    return latch_->load(std::memory_order_acquire);
  }

  /// Merges staged updates and moves the epoch iff any row merged (an
  /// empty close leaves in-flight plans valid). With `force` false the
  /// close is refused (closed=false, nothing merged) while any SnapshotPin
  /// is outstanding — operator tooling defers rather than invalidating
  /// in-flight audits. The verifier-driven path (UserClient) forces: its
  /// own epoch gate already excludes its audits. The result's `epoch` is
  /// the store's content epoch after the call.
  pir::EpochMergeStats close_epoch(bool force = false);

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
  std::uint64_t epoch_ = 0;
  // Pin latch: shared with every outstanding SnapshotPin's deleter, so a
  // pin released after the store is gone (session purged late) is safe.
  std::shared_ptr<std::atomic<std::uint64_t>> latch_ =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  mutable std::atomic<std::uint64_t> pins_taken_{0};
  std::atomic<std::uint64_t> closes_skipped_{0};
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
