// Epoch-versioned fixed-width bit database of verification tags held by
// each TPA.
//
// Tag T_i is a K-bit value (K = |N|, the RSA modulus width). TPASetup turns
// the tag set into K polynomials F_1..F_K over GF(4) — polynomial F_pi has a
// monomial for every i whose pi-th tag bit is set (paper Eq. 1). This class
// stores the bits in two forms:
//   * row-major 64-bit words per tag (for word-parallel/bitsliced eval), and
//   * per-bitplane index lists (the paper's "matrix representation" M_pi).
//
// Dynamic data runs on explicit epochs (DESIGN.md §15). The readable state
// is the epoch-`t` snapshot; `update()` STAGES a replacement row into a
// delta plane that becomes visible only when `close_epoch()` merges it —
// so audits read a frozen database while an update storm accumulates into
// `t+1`, with no writer/reader serialization requirement on the hot path:
//   * readers (bit/tag/row/rows_data/plane) always see the base rows;
//   * `update()` is internally synchronized and touches only the delta, so
//     any number of updates may race any number of readers;
//   * `close_epoch()` copies the dirty rows into the base and merges the
//     changed indexes into a sorted overlay consumed by PlaneView — one
//     O(U·w) memcpy pass instead of a full K-plane rebuild. The CALLER must
//     serialize close_epoch (and add, which edits the base directly)
//     against readers; proto::TagStore does so with its reader-writer
//     lock.
//
// Plane maintenance replaces the old all-planes invalidation flag: a close
// leaves the built plane lists untouched and instead records which rows
// changed since the last full build. PlaneView iteration skips superseded
// base entries and bit-tests the overlay, costing O(|base| + |overlay|)
// per plane; once the overlay outgrows `n/8` the close pays one amortized
// full rebuild. `build_planes()` remains the benchmarked cold-start path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "bignum/bigint.h"
#include "common/bytes.h"

namespace ice::pir {

class TagDatabase;

/// One bitplane of the matrix representation at the current epoch: the
/// sorted base index list built by the last full plane build, minus entries
/// superseded by rows merged since, plus merged rows whose bit is now set.
/// A cheap value type; valid until the next mutation of the base state
/// (close_epoch / add / build_planes).
class PlaneView {
 public:
  PlaneView(std::span<const std::uint32_t> base,
            std::span<const std::uint32_t> dirty, const TagDatabase* db,
            std::size_t pi)
      : base_(base), dirty_(dirty), db_(db), pi_(pi) {}

  /// Visits every index whose bit `pi` is set, in a deterministic order
  /// (surviving base entries ascending, then overlay entries ascending).
  /// GF(4) accumulation is XOR, so the order never changes an evaluation.
  template <typename F>
  void for_each(F&& f) const {
    if (dirty_.empty()) {
      for (const std::uint32_t i : base_) f(i);
      return;
    }
    std::size_t di = 0;
    for (const std::uint32_t i : base_) {
      while (di < dirty_.size() && dirty_[di] < i) ++di;
      if (di < dirty_.size() && dirty_[di] == i) continue;  // superseded
      f(i);
    }
    for (const std::uint32_t d : dirty_) {
      if (bit_set(d)) f(d);
    }
  }

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Sorted index list (test/debug surface; eval paths use for_each).
  [[nodiscard]] std::vector<std::uint32_t> materialize() const;

 private:
  [[nodiscard]] bool bit_set(std::uint32_t index) const;

  std::span<const std::uint32_t> base_;
  std::span<const std::uint32_t> dirty_;
  const TagDatabase* db_;
  std::size_t pi_;
};

/// What one close_epoch() did.
struct EpochMergeStats {
  bool closed = false;          // false: nothing staged, epoch unchanged
  std::uint64_t epoch = 0;      // epoch after the call
  std::size_t rows_merged = 0;  // distinct staged rows applied
  bool planes_rebuilt = false;  // overlay crossed the threshold
};

/// Lifetime counters for the epoch engine (read them only while no
/// close_epoch is concurrent — i.e. under the same reader discipline as
/// any other read).
struct EpochStats {
  std::uint64_t epochs_closed = 0;
  std::uint64_t rows_merged = 0;      // cumulative across closes
  std::uint64_t plane_rebuilds = 0;   // threshold-triggered full rebuilds
  std::uint64_t rebuilds_avoided = 0; // closes that merged without one
                                      // (including with no plane cache)
  std::uint64_t staged_rows = 0;      // currently staged for the next epoch
  std::uint64_t dirty_rows = 0;       // current plane-overlay size
};

class TagDatabase {
 public:
  /// `tag_bits` is K; every stored tag must fit in K bits.
  explicit TagDatabase(std::size_t tag_bits);

  /// Appends a tag (interpreted as a K-bit integer) to the BASE state and
  /// returns its index. Load/rebuild path: the caller must serialize it
  /// against readers (rows_ may reallocate). A warm plane cache is extended
  /// in place — the new index lands at the tail of each set plane — so an
  /// append no longer invalidates the other K-1 bitplanes.
  std::size_t add(const bn::BigInt& tag);

  /// Stages a replacement for the tag at `index` (dynamic data: block
  /// updates re-tag) into the NEXT epoch. Internally synchronized; safe
  /// against concurrent readers and other update() calls. Invisible to
  /// every read surface until close_epoch(). Restaging an index overwrites
  /// its pending row.
  void update(std::size_t index, const bn::BigInt& tag);

  /// Merges every staged row into the base state and advances the epoch.
  /// Caller must serialize against readers. No-op (closed=false) when
  /// nothing is staged.
  EpochMergeStats close_epoch();

  /// Epochs closed so far (the content version of the readable snapshot).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Distinct rows staged for the next epoch. Internally synchronized.
  [[nodiscard]] std::size_t staged_updates() const;
  [[nodiscard]] EpochStats epoch_stats() const;

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t tag_bits() const { return tag_bits_; }
  [[nodiscard]] std::size_t words_per_tag() const { return words_per_tag_; }

  /// Numeric bit `pi` of tag `i` (epoch-t snapshot).
  [[nodiscard]] bool bit(std::size_t i, std::size_t pi) const;

  /// Tag `i` reconstructed as an integer (epoch-t snapshot).
  [[nodiscard]] bn::BigInt tag(std::size_t i) const;

  /// Row of 64-bit words (little-endian bit order) for tag `i`.
  [[nodiscard]] const std::uint64_t* row(std::size_t i) const {
    return rows_.data() + i * words_per_tag_;
  }

  /// All rows, contiguous (row i at offset i * words_per_tag()). The fused
  /// batch sweep streams this once per query batch.
  [[nodiscard]] const std::uint64_t* rows_data() const {
    return rows_.data();
  }

  /// The paper's matrix representation for bitplane `pi` at the current
  /// epoch. Built lazily on first use ("pre-processing once the tags are
  /// generated"); safe to call from concurrent readers (respond_matrix
  /// shards bitplanes across pool workers).
  [[nodiscard]] PlaneView plane(std::size_t pi) const;

  /// Forces (re)construction of all bitplane lists; returns build time in
  /// seconds. Exposed so benchmarks can measure TPASetup preprocessing.
  /// Caller must serialize against readers (it swaps the plane arrays).
  double build_planes() const;

 private:
  friend class PlaneView;

  void build_planes_locked() const;  // caller holds planes_mu_
  [[nodiscard]] std::size_t rebuild_threshold() const {
    return std::max<std::size_t>(64, n_ / 8);
  }

  std::size_t tag_bits_;
  std::size_t words_per_tag_;
  std::size_t n_ = 0;
  std::vector<std::uint64_t> rows_;  // n_ * words_per_tag_

  // Delta plane: rows staged for epoch_ + 1. Guarded by delta_mu_ (staging
  // races readers and other staging; close_epoch drains it under the
  // caller's exclusivity plus this lock).
  mutable std::mutex delta_mu_;
  std::vector<std::uint32_t> staged_index_;            // insertion order
  std::vector<std::uint64_t> staged_rows_;             // slot-major rows
  std::unordered_map<std::uint32_t, std::size_t> staged_slot_;

  mutable std::mutex planes_mu_;  // guards the lazy plane build
  mutable std::vector<std::vector<std::uint32_t>> planes_;  // K lists
  mutable std::atomic<bool> planes_built_{false};
  // Sorted indexes whose rows changed since the last full plane build (the
  // PlaneView overlay). Mutated only under the caller's exclusivity.
  mutable std::vector<std::uint32_t> plane_dirty_;

  std::uint64_t epoch_ = 0;
  EpochStats stats_;  // cumulative counters (staged/dirty derived live)
};

}  // namespace ice::pir
