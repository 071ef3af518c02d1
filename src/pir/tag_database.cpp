#include "pir/tag_database.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "common/stopwatch.h"

namespace ice::pir {

std::size_t PlaneView::size() const {
  std::size_t count = 0;
  for_each([&count](std::uint32_t) { ++count; });
  return count;
}

std::vector<std::uint32_t> PlaneView::materialize() const {
  std::vector<std::uint32_t> out;
  out.reserve(base_.size() + dirty_.size());
  for_each([&out](std::uint32_t i) { out.push_back(i); });
  std::sort(out.begin(), out.end());
  return out;
}

bool PlaneView::bit_set(std::uint32_t index) const {
  return db_->bit(index, pi_);
}

TagDatabase::TagDatabase(std::size_t tag_bits)
    : tag_bits_(tag_bits), words_per_tag_((tag_bits + 63) / 64) {
  if (tag_bits == 0) throw ParamError("TagDatabase: tag_bits must be >= 1");
}

std::size_t TagDatabase::add(const bn::BigInt& tag) {
  if (tag.is_negative() || tag.bit_length() > tag_bits_) {
    throw ParamError("TagDatabase::add: tag out of range for K bits");
  }
  rows_.resize(rows_.size() + words_per_tag_, 0);
  std::uint64_t* dst = rows_.data() + n_ * words_per_tag_;
  const auto& limbs = tag.limbs();
  for (std::size_t w = 0; w < limbs.size(); ++w) dst[w] = limbs[w];
  // Extend a warm plane cache in place: the new index is larger than every
  // existing one, so appending keeps each plane list sorted and the overlay
  // untouched. (Pre-epoch behavior was to invalidate all K planes here.)
  if (planes_built_.load(std::memory_order_acquire)) {
    std::lock_guard lock(planes_mu_);
    for (std::size_t w = 0; w < words_per_tag_; ++w) {
      std::uint64_t word = dst[w];
      while (word) {
        const auto b = static_cast<std::size_t>(__builtin_ctzll(word));
        const std::size_t pi = w * 64 + b;
        if (pi < tag_bits_) {
          planes_[pi].push_back(static_cast<std::uint32_t>(n_));
        }
        word &= word - 1;
      }
    }
  }
  return n_++;
}

void TagDatabase::update(std::size_t index, const bn::BigInt& tag) {
  if (index >= n_) throw ParamError("TagDatabase::update: bad index");
  if (tag.is_negative() || tag.bit_length() > tag_bits_) {
    throw ParamError("TagDatabase::update: tag out of range for K bits");
  }
  std::lock_guard lock(delta_mu_);
  const auto idx32 = static_cast<std::uint32_t>(index);
  auto [it, inserted] = staged_slot_.try_emplace(idx32, staged_index_.size());
  if (inserted) {
    staged_index_.push_back(idx32);
    staged_rows_.resize(staged_rows_.size() + words_per_tag_, 0);
  }
  std::uint64_t* dst = staged_rows_.data() + it->second * words_per_tag_;
  for (std::size_t w = 0; w < words_per_tag_; ++w) dst[w] = 0;
  const auto& limbs = tag.limbs();
  for (std::size_t w = 0; w < limbs.size(); ++w) dst[w] = limbs[w];
}

EpochMergeStats TagDatabase::close_epoch() {
  std::lock_guard delta_lock(delta_mu_);
  EpochMergeStats out;
  out.epoch = epoch_;
  if (staged_index_.empty()) return out;

  for (std::size_t slot = 0; slot < staged_index_.size(); ++slot) {
    std::memcpy(rows_.data() + staged_index_[slot] * words_per_tag_,
                staged_rows_.data() + slot * words_per_tag_,
                words_per_tag_ * sizeof(std::uint64_t));
  }
  out.rows_merged = staged_index_.size();

  if (planes_built_.load(std::memory_order_acquire)) {
    std::vector<std::uint32_t> merged = staged_index_;
    std::sort(merged.begin(), merged.end());
    if (plane_dirty_.empty()) {
      plane_dirty_ = std::move(merged);
    } else {
      std::vector<std::uint32_t> unioned;
      unioned.reserve(plane_dirty_.size() + merged.size());
      std::set_union(plane_dirty_.begin(), plane_dirty_.end(), merged.begin(),
                     merged.end(), std::back_inserter(unioned));
      plane_dirty_ = std::move(unioned);
    }
    if (plane_dirty_.size() > rebuild_threshold()) {
      std::lock_guard planes_lock(planes_mu_);
      build_planes_locked();
      out.planes_rebuilt = true;
    }
  }
  // A close with no plane cache merged its rows without a rebuild, too.
  ++(out.planes_rebuilt ? stats_.plane_rebuilds : stats_.rebuilds_avoided);

  staged_index_.clear();
  staged_rows_.clear();
  staged_slot_.clear();
  ++epoch_;
  ++stats_.epochs_closed;
  stats_.rows_merged += out.rows_merged;
  out.closed = true;
  out.epoch = epoch_;
  return out;
}

std::size_t TagDatabase::staged_updates() const {
  std::lock_guard lock(delta_mu_);
  return staged_index_.size();
}

EpochStats TagDatabase::epoch_stats() const {
  EpochStats out = stats_;
  out.staged_rows = staged_updates();
  out.dirty_rows = plane_dirty_.size();
  return out;
}

bool TagDatabase::bit(std::size_t i, std::size_t pi) const {
  if (i >= n_ || pi >= tag_bits_) {
    throw ParamError("TagDatabase::bit: out of range");
  }
  return (row(i)[pi / 64] >> (pi % 64)) & 1u;
}

bn::BigInt TagDatabase::tag(std::size_t i) const {
  if (i >= n_) throw ParamError("TagDatabase::tag: bad index");
  const std::uint64_t* r = row(i);
  return bn::BigInt::from_limbs(r, words_per_tag_);
}

double TagDatabase::build_planes() const {
  Stopwatch sw;
  std::lock_guard lock(planes_mu_);
  build_planes_locked();
  return sw.seconds();
}

void TagDatabase::build_planes_locked() const {
  planes_.assign(tag_bits_, {});
  for (std::size_t i = 0; i < n_; ++i) {
    const std::uint64_t* r = row(i);
    for (std::size_t w = 0; w < words_per_tag_; ++w) {
      std::uint64_t word = r[w];
      while (word) {
        const auto b = static_cast<std::size_t>(__builtin_ctzll(word));
        const std::size_t pi = w * 64 + b;
        if (pi < tag_bits_) {
          planes_[pi].push_back(static_cast<std::uint32_t>(i));
        }
        word &= word - 1;
      }
    }
  }
  plane_dirty_.clear();
  planes_built_.store(true, std::memory_order_release);
}

PlaneView TagDatabase::plane(std::size_t pi) const {
  if (pi >= tag_bits_) throw ParamError("TagDatabase::plane: out of range");
  // Double-checked lazy build: concurrent pool workers may all observe the
  // planes as stale; exactly one rebuilds while the rest wait on the mutex
  // and then see planes_built_ set under the same lock.
  if (!planes_built_.load(std::memory_order_acquire)) {
    std::lock_guard lock(planes_mu_);
    if (!planes_built_.load(std::memory_order_relaxed)) {
      build_planes_locked();
    }
  }
  return PlaneView(planes_[pi], plane_dirty_, this, pi);
}

}  // namespace ice::pir
