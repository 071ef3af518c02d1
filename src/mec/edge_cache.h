// Edge-node block cache with pluggable eviction and delayed write-back.
//
// Edges pre-download blocks on demand (query-driven, paper Sec. II-A) but
// have bounded storage, and they defer write-backs of user updates to the
// cloud for communication efficiency (Sec. I) — which is exactly why edge
// integrity matters: a corrupted dirty block is unrecoverable from the CSP.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/bytes.h"

namespace ice::mec {

enum class EvictionPolicy { kLru, kLfu, kFifo };

class EdgeCache {
 public:
  /// Capacity in blocks (>= 1).
  EdgeCache(std::size_t capacity, EvictionPolicy policy);

  /// Looks up a block; counts a hit/miss; LRU/LFU bookkeeping updated.
  [[nodiscard]] std::optional<Bytes> get(std::size_t index);

  /// Inserts a clean block fetched from the cloud, evicting if full.
  /// Returns the evicted index, if any. Evicting a dirty block is refused
  /// (throws ProtocolError) — the caller must flush first; silently dropping
  /// a dirty block would lose user data.
  std::optional<std::size_t> admit(std::size_t index, Bytes data);

  /// User update applied at the edge: block becomes dirty (delayed
  /// write-back). The block must be cached.
  void write(std::size_t index, Bytes data);

  /// Dirty blocks and their contents; marks them clean (delayed write-back
  /// batch leaving for the CSP).
  std::vector<std::pair<std::size_t, Bytes>> flush();

  [[nodiscard]] bool contains(std::size_t index) const;
  /// Byte length of a cached block, nullopt when it is not cached. Counts
  /// no hit or miss and leaves the eviction order alone.
  [[nodiscard]] std::optional<std::size_t> block_size(std::size_t index) const;
  [[nodiscard]] bool dirty(std::size_t index) const;
  /// Clears one block's dirty flag without a write-back — for recovery
  /// paths that restored the block to the cloud's version (the update is
  /// acknowledged as lost). Throws ParamError if not cached.
  void mark_clean(std::size_t index);
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Sorted indexes currently cached: this is S_j, the edge's pre-download
  /// set in the protocol.
  [[nodiscard]] std::vector<std::size_t> cached_indices() const;

  /// Direct mutable access for fault injection (corruption.h) — the cache
  /// does not notice, as with real silent data corruption.
  [[nodiscard]] Bytes& raw_block(std::size_t index);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    Bytes data;
    bool dirty = false;
    std::uint64_t freq = 0;      // LFU
    std::uint64_t last_use = 0;  // LRU / FIFO tiebreak
    std::uint64_t admitted = 0;  // FIFO
  };

  void touch(Entry& e);
  [[nodiscard]] std::size_t pick_victim() const;

  std::size_t capacity_;
  EvictionPolicy policy_;
  std::map<std::size_t, Entry> entries_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace ice::mec
