// The tag-side state one TPA keeps for one user's file.
//
// TPASetup (paper Sec. III-A): given the n tags, fix gamma and the embedding
// phi, and build the polynomial/matrix representation used to answer
// private tag queries. Both TPAs hold identical replicas (the 2-server PIR
// non-collusion assumption).
//
// The store is range-sharded (pir/sharded_server.h): with
// `params.shard_budget` > 0 the tag space is partitioned into contiguous
// shards, each an independent TPASetup instance, and queries fan out to the
// shards they touch. `shard_budget` = 0 keeps the paper's monolithic layout
// as a one-shard map; either way `respond_sharded` is the one query
// surface, answered by the fused bitsliced engine (pir/server.h).
//
// The store runs the epoch engine (DESIGN.md §15): `update()` stages into
// the next epoch, `close_epoch()` merges, and audit sessions take a
// SnapshotPin for their whole lifetime. Staging is the only way to change
// a tag. A pin is advisory — the hard snapshot guarantee comes from the
// sharded server's structure lock — but it lets a non-forced close refuse
// while audits are in flight instead of failing them, and it feeds the
// pins_active counter.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "bignum/bigint.h"
#include "ice/params.h"
#include "pir/client.h"
#include "pir/server.h"
#include "pir/sharded_server.h"

namespace ice::proto {

/// RAII snapshot pin held by an audit session (stashed in session state, so
/// it must survive thread handoff: a shared_ptr with a counting deleter,
/// not a shared_mutex — unlock_shared from another thread would be UB).
/// Releasing the last copy decrements the store's active-pin count.
using SnapshotPin = std::shared_ptr<const void>;

/// Store-level epoch counters (ISSUE 9 satellite: stats surface).
struct StoreEpochStats {
  pir::EpochStats db;                // aggregated across shards
  std::uint64_t pins_taken = 0;      // lifetime SnapshotPin count
  std::uint64_t pins_active = 0;     // currently outstanding
  std::uint64_t closes_skipped = 0;  // non-forced closes refused by pins
};

class TagStore {
 public:
  /// Takes ownership of the tag set; K comes from `params.tag_bits()`,
  /// the shard partition from `params.shard_budget`, the evaluation budget
  /// from `params.parallelism`.
  TagStore(const ProtocolParams& params, std::vector<bn::BigInt> tags);

  [[nodiscard]] std::size_t n() const { return server_.n(); }
  [[nodiscard]] std::size_t tag_bits() const { return server_.tag_bits(); }
  [[nodiscard]] std::size_t num_shards() const {
    return server_.num_shards();
  }
  [[nodiscard]] std::uint64_t epoch() const { return server_.epoch(); }
  [[nodiscard]] pir::ShardMap shard_map() const {
    return server_.map_snapshot();
  }

  /// Plain (non-private) tag read; used by trusted-path tests and by the
  /// naive full-download baseline.
  [[nodiscard]] bn::BigInt tag(std::size_t index) const {
    return server_.tag(index);
  }

  /// Stages the replacement tag of an updated block (data dynamics) into
  /// the next epoch. Lock-light: rides alongside queries of the same shard
  /// and stays invisible until close_epoch().
  void update(std::size_t index, const bn::BigInt& tag) {
    server_.update(index, tag);
  }

  /// Pins the current epoch snapshot for the lifetime of the returned
  /// handle. Cheap (one atomic increment); copies share the same pin.
  [[nodiscard]] SnapshotPin pin() const;
  [[nodiscard]] std::uint64_t pins_active() const {
    return latch_->load(std::memory_order_acquire);
  }

  /// Merges staged updates and advances the epoch. With `force` false the
  /// close is refused (closed=false, nothing merged) while any SnapshotPin
  /// is outstanding — operator tooling defers rather than invalidating
  /// in-flight audits. The verifier-driven path (UserClient) forces: its
  /// own epoch gate already excludes its audits.
  pir::EpochCloseResult close_epoch(bool force = false);

  /// Rows staged for the next epoch across all shards.
  [[nodiscard]] std::size_t staged_updates() const {
    return server_.staged_updates();
  }
  [[nodiscard]] StoreEpochStats epoch_stats() const;

  /// Appends a tag for a newly outsourced block; may split the tail shard.
  /// Structural: bumps the shard-map epoch. Returns the new global index.
  std::size_t append(const bn::BigInt& tag) { return server_.append(tag); }

  /// Splits shard `s` (operator-initiated rebalance). Structural: bumps
  /// the epoch. Returns the new upper shard id.
  std::size_t split(std::size_t s) { return server_.split(s); }

  /// Answers a cross-shard fan-out query (paper Alg. 1 "tag response",
  /// evaluated per shard in parallel). Throws pir::StaleShardMapError when
  /// the query's epoch is stale.
  void respond_sharded(const pir::ShardedPirQuery& query,
                       pir::ShardedPirResponse& out) const {
    server_.respond_sharded(query, out);
  }

  /// Forces the TPASetup preprocessing and reports its duration in seconds
  /// (paper Tab. III row "TPASetup"; summed across shards). The serving
  /// engine streams the rows and never reads the planes; they back only
  /// the per-point matrix reference.
  double preprocess() { return server_.preprocess(); }

 private:
  pir::ShardedTagServer server_;
  // Pin latch: shared with every outstanding SnapshotPin's deleter, so a
  // pin released after the store is gone (session purged late) is safe.
  std::shared_ptr<std::atomic<std::uint64_t>> latch_ =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  mutable std::atomic<std::uint64_t> pins_taken_{0};
  std::atomic<std::uint64_t> closes_skipped_{0};
};

/// User-side helper: retrieves tags for `indices` from two TagStore replicas
/// (direct in-process variant used by tests and single-process simulations;
/// the RPC variant lives in user_client.h). Works for any shard count.
std::vector<bn::BigInt> retrieve_tags_direct(const TagStore& tpa0,
                                             const TagStore& tpa1,
                                             std::span<const std::size_t>
                                                 indices,
                                             bn::Rng64& rng);

}  // namespace ice::proto
