#include "bignum/fixed_base.h"

#include <algorithm>
#include <mutex>

#include "common/error.h"
#include "common/scratch.h"

namespace ice::bn {

namespace {

// Comb teeth for a given exponent capacity: more teeth shrink the per-call
// squaring chain (cost ~ 2 * cap / h products) but grow the table (2^h
// residues) and its build cost (~cap squarings + 2^h products), so h climbs
// only as the capacity makes the build amortizable. Capped at 10 teeth
// (1024 residues; 128 KiB at a 1024-bit modulus).
std::size_t teeth_for(std::size_t cap_bits) {
  if (cap_bits >= 16384) return 10;
  if (cap_bits >= 2048) return 8;
  if (cap_bits >= 768) return 7;
  if (cap_bits >= 256) return 6;
  if (cap_bits >= 64) return 4;
  return 3;
}

// Round the requested capacity up so that slightly longer exponents (e.g.
// updated_tag's block * s~ products) do not force a rebuild per call.
std::size_t round_capacity(std::size_t min_exp_bits) {
  constexpr std::size_t kStep = 256;
  const std::size_t floor = min_exp_bits < kStep ? kStep : min_exp_bits;
  return (floor + kStep - 1) / kStep * kStep;
}

// pow walks every column of a comb, so a cached comb serves a request only
// if it covers the exponent and is at most twice the comb the request would
// build: a block-sized TagGen comb must not turn each |N|-bit g^s into a
// block-long chain.
bool serves(const FixedBase& comb, std::size_t min_exp_bits) {
  const std::size_t cap = comb.capacity_bits();
  return cap >= min_exp_bits && cap <= 2 * round_capacity(min_exp_bits);
}

}  // namespace

FixedBase::FixedBase(const Montgomery& mont, const BigInt& base,
                     std::size_t max_exp_bits)
    : mont_(&mont),
      base_(mont.reduce(base)),
      cap_bits_(round_capacity(max_exp_bits)),
      teeth_(teeth_for(cap_bits_)) {
  cols_ = (cap_bits_ + teeth_ - 1) / teeth_;
  cap_bits_ = cols_ * teeth_;

  const std::size_t k = mont.limb_count();
  Montgomery::LimbVec scratch(mont.scratch_limbs());
  // Tooth bases B[i] = base^{2^{cols * i}}: one shared squaring chain.
  std::vector<Montgomery::LimbVec> tooth(teeth_);
  tooth[0] = mont.to_mont(base_);
  for (std::size_t i = 1; i < teeth_; ++i) {
    tooth[i] = tooth[i - 1];
    for (std::size_t s = 0; s < cols_; ++s) {
      mont.sqr_into(tooth[i].data(), tooth[i].data(), scratch.data());
    }
  }
  // table[j] = prod of tooth[i] over the set bits i of j, filled in index
  // order so table[j ^ highbit] is always ready.
  table_.assign(std::size_t{1} << teeth_, {});
  table_[0] = mont.one_mont();
  for (std::size_t j = 1; j < table_.size(); ++j) {
    std::size_t hb = teeth_ - 1;
    while (!(j >> hb & 1u)) --hb;
    const std::size_t rest = j ^ (std::size_t{1} << hb);
    if (rest == 0) {
      table_[j] = tooth[hb];
    } else {
      table_[j].resize(k);
      mont.mul_into(table_[j].data(), table_[rest].data(), tooth[hb].data(),
                    scratch.data());
    }
  }
}

BigInt FixedBase::pow(const BigInt& exp) const {
  BigInt out;
  pow_into(out, exp);
  return out;
}

void FixedBase::pow_into(BigInt& out, const BigInt& exp) const {
  if (exp.is_negative()) {
    throw ParamError("FixedBase::pow: negative exponent");
  }
  if (exp.is_zero()) {
    out = BigInt(1).mod(mont_->modulus());
    return;
  }
  if (exp.bit_length() > cap_bits_) {
    mont_->pow_into(out, base_, exp);
    return;
  }

  const std::size_t k = mont_->limb_count();
  ScratchArena::Lease lease =
      ScratchArena::local().take(k + mont_->scratch_limbs());
  Montgomery::Limb* acc = lease.data();
  Montgomery::Limb* scratch = acc + k;
  bool started = false;
  for (std::size_t col = cols_; col-- > 0;) {
    if (started) mont_->sqr_into(acc, acc, scratch);
    std::size_t j = 0;
    for (std::size_t tooth = 0; tooth < teeth_; ++tooth) {
      if (exp.bit(tooth * cols_ + col)) j |= std::size_t{1} << tooth;
    }
    if (j == 0) continue;
    if (started) {
      mont_->mul_into(acc, acc, table_[j].data(), scratch);
    } else {
      std::copy(table_[j].begin(), table_[j].end(), acc);
      started = true;
    }
  }
  if (!started) {
    out = BigInt(1).mod(mont_->modulus());
    return;
  }
  mont_->from_mont_into(out, acc, scratch);
}

std::shared_ptr<const FixedBase> Montgomery::fixed_base(
    const BigInt& base, std::size_t min_exp_bits) const {
  const BigInt key = reduce(base);
  {
    std::shared_lock lock(fb_mu_);
    for (const auto& e : fb_cache_) {
      if (e.base == key && serves(*e.comb, min_exp_bits)) {
        e.last_use.store(
            fb_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
        return e.comb;
      }
    }
  }
  auto fresh = std::make_shared<const FixedBase>(*this, key, min_exp_bits);
  std::unique_lock lock(fb_mu_);
  const std::uint64_t stamp =
      fb_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  for (auto& e : fb_cache_) {
    if (e.base == key && serves(*e.comb, min_exp_bits)) {  // a racing build
      e.last_use.store(stamp, std::memory_order_relaxed);
      return e.comb;
    }
  }
  // A right-sized comb goes beside the base's other combs: TagGen's
  // block-sized comb and the challenges' |N|-sized one both stay warm.
  if (fb_cache_.size() >= kMaxCachedBases) {
    // LRU eviction: drop the entry with the stalest use stamp.
    auto stalest = fb_cache_.begin();
    for (auto it = fb_cache_.begin(); it != fb_cache_.end(); ++it) {
      if (it->last_use.load(std::memory_order_relaxed) <
          stalest->last_use.load(std::memory_order_relaxed)) {
        stalest = it;
      }
    }
    fb_cache_.erase(stalest);
  }
  fb_cache_.emplace_back(key, fresh, stamp);
  return fresh;
}

std::size_t Montgomery::fixed_base_cache_size() const {
  std::shared_lock lock(fb_mu_);
  return fb_cache_.size();
}

}  // namespace ice::bn
