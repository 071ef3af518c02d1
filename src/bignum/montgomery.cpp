#include "bignum/montgomery.h"

#include <algorithm>
#include <mutex>

#include "bignum/mont_kernels.h"
#include "common/error.h"
#include "common/scratch.h"

namespace ice::bn {

namespace {

using u128 = unsigned __int128;
using Limb = BigInt::Limb;

// Inverse of odd `x` modulo 2^64 by Newton iteration (quadratic convergence:
// 6 steps reach 64 bits from the 1-bit seed).
Limb inv64(Limb x) {
  Limb inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - x * inv;
  return inv;
}

// t >= n (comparing the k-limb t against n)?
bool ge_mod(const Limb* t, const Limb* n, std::size_t k) {
  for (std::size_t i = k; i-- > 0;) {
    if (t[i] != n[i]) return t[i] > n[i];
  }
  return true;  // t == n also subtracts (yields 0, still reduced)
}

// out = t - n over k limbs (requires t >= n when called with carry-out 0).
void sub_mod(Limb* out, const Limb* t, const Limb* n, std::size_t k) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Limb ti = t[i];
    const Limb d = ti - n[i];
    const Limb b1 = ti < n[i] ? 1u : 0u;
    out[i] = d - borrow;
    const Limb b2 = d < borrow ? 1u : 0u;
    borrow = b1 | b2;
  }
}

}  // namespace

namespace detail {

void mont_mul_portable(Limb* out, const Limb* a, const Limb* b, const Limb* n,
                       Limb n0inv, std::size_t k, Limb* scratch) {
  // Fused CIOS into scratch[0..k+1]: each round adds a[i] * b and m * n in
  // ONE pass over t with two independent carry chains (c1 for a*b, c2 for
  // m*n), halving the t traffic per round and letting the two multiply
  // streams overlap instead of serializing on a single carry chain.
  Limb* t = scratch;
  std::fill(t, t + k + 2, Limb{0});
  for (std::size_t i = 0; i < k; ++i) {
    const Limb ai = a[i];
    u128 p = static_cast<u128>(ai) * b[0] + t[0];
    const Limb m = static_cast<Limb>(p) * n0inv;
    const u128 q = static_cast<u128>(m) * n[0] + static_cast<Limb>(p);
    Limb c1 = static_cast<Limb>(p >> 64);
    Limb c2 = static_cast<Limb>(q >> 64);  // low limb of q is exactly 0
    for (std::size_t j = 1; j < k; ++j) {
      p = static_cast<u128>(ai) * b[j] + t[j] + c1;
      c1 = static_cast<Limb>(p >> 64);
      const u128 r = static_cast<u128>(m) * n[j] + static_cast<Limb>(p) + c2;
      t[j - 1] = static_cast<Limb>(r);
      c2 = static_cast<Limb>(r >> 64);
    }
    const u128 s = static_cast<u128>(t[k]) + c1 + c2;
    t[k - 1] = static_cast<Limb>(s);
    t[k] = t[k + 1] + static_cast<Limb>(s >> 64);
    t[k + 1] = 0;
  }
  // Conditional final subtraction: result < 2N is guaranteed.
  if (t[k] != 0 || ge_mod(t, n, k)) {
    sub_mod(out, t, n, k);
  } else {
    std::copy(t, t + k, out);
  }
}

void mont_sqr_portable(Limb* out, const Limb* a, const Limb* n, Limb n0inv,
                       std::size_t k, Limb* scratch) {
  // SOS squaring: full 2k-limb square with the cross products computed once
  // and doubled, then a separate Montgomery reduction pass.
  Limb* t = scratch;  // uses 2k + 1 limbs
  std::fill(t, t + 2 * k + 1, Limb{0});

  // Cross products a[i] * a[j], j > i. Row i writes t[2i+1 .. i+k-1] and
  // assigns the carry to t[i+k], which no earlier row has touched.
  for (std::size_t i = 0; i < k; ++i) {
    Limb carry = 0;
    const Limb ai = a[i];
    for (std::size_t j = i + 1; j < k; ++j) {
      const u128 s = static_cast<u128>(ai) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    t[i + k] = carry;
  }
  // Double the cross products (their sum is < a^2 < 2^{128k}, so no bit
  // falls off the top) and add the diagonal a[i]^2 terms.
  Limb shift_carry = 0;
  for (std::size_t i = 0; i < 2 * k; ++i) {
    const Limb v = t[i];
    t[i] = (v << 1) | shift_carry;
    shift_carry = v >> 63;
  }
  t[2 * k] = shift_carry;
  Limb carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 s = static_cast<u128>(a[i]) * a[i] + t[2 * i] + carry;
    t[2 * i] = static_cast<Limb>(s);
    const u128 s2 = static_cast<u128>(t[2 * i + 1]) +
                    static_cast<Limb>(s >> 64);
    t[2 * i + 1] = static_cast<Limb>(s2);
    carry = static_cast<Limb>(s2 >> 64);
  }
  t[2 * k] += carry;

  // Montgomery reduction: k rounds of t += m * n << (64 i), then the
  // result is t >> 64k, which is < 2N because a^2 < N * R. Rounds are
  // fused in pairs: m1 needs only t[i+1] after m0's first two terms, so
  // both rounds then run one shared pass with independent carry chains.
  std::size_t i = 0;
  for (; i + 1 < k; i += 2) {
    const Limb m0 = t[i] * n0inv;
    const u128 p = static_cast<u128>(m0) * n[0] + t[i];
    Limb c0 = static_cast<Limb>(p >> 64);  // low limb of p is exactly 0
    u128 v = static_cast<u128>(m0) * n[1] + t[i + 1] + c0;
    c0 = static_cast<Limb>(v >> 64);
    const Limb m1 = static_cast<Limb>(v) * n0inv;
    const u128 q = static_cast<u128>(m1) * n[0] + static_cast<Limb>(v);
    Limb c1 = static_cast<Limb>(q >> 64);  // low limb of q is exactly 0
    for (std::size_t j = 2; j < k; ++j) {
      v = static_cast<u128>(m0) * n[j] + t[i + j] + c0;
      c0 = static_cast<Limb>(v >> 64);
      const u128 w =
          static_cast<u128>(m1) * n[j - 1] + static_cast<Limb>(v) + c1;
      t[i + j] = static_cast<Limb>(w);
      c1 = static_cast<Limb>(w >> 64);
    }
    const u128 s = static_cast<u128>(t[i + k]) + c0 +
                   static_cast<u128>(m1) * n[k - 1] + c1;
    t[i + k] = static_cast<Limb>(s);
    Limb c = static_cast<Limb>(s >> 64);
    for (std::size_t idx = i + k + 1; c != 0 && idx <= 2 * k; ++idx) {
      const u128 s2 = static_cast<u128>(t[idx]) + c;
      t[idx] = static_cast<Limb>(s2);
      c = static_cast<Limb>(s2 >> 64);
    }
  }
  for (; i < k; ++i) {  // odd k: one single-chain tail round
    const Limb m = t[i] * n0inv;
    carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 s = static_cast<u128>(m) * n[j] + t[i + j] + carry;
      t[i + j] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    for (std::size_t idx = i + k; carry != 0 && idx <= 2 * k; ++idx) {
      const u128 s = static_cast<u128>(t[idx]) + carry;
      t[idx] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
  }
  Limb* r = t + k;  // k + 1 limbs
  if (r[k] != 0 || ge_mod(r, n, k)) {
    sub_mod(out, r, n, k);
  } else {
    std::copy(r, r + k, out);
  }
}

unsigned pow_window_bits(std::size_t nbits) {
  // 2^{w-1} odd-power table products plus about nbits/(w+1) window
  // products; the squarings do not depend on w.
  const auto cost = [nbits](unsigned w) {
    return static_cast<double>(std::size_t{1} << (w - 1)) +
           static_cast<double>(nbits) / (w + 1);
  };
  unsigned best = 1;
  for (unsigned w = 2; w <= kMaxPowWindowBits; ++w) {
    if (cost(w) < cost(best)) best = w;
  }
  return best;
}

}  // namespace detail

Montgomery::Montgomery(const BigInt& modulus) : n_big_(modulus) {
  if (modulus <= BigInt(1) || modulus.is_even()) {
    throw ParamError("Montgomery: modulus must be odd and > 1");
  }
  const LimbBuf& n = modulus.limbs();
  n0inv_ = ~inv64(n[0]) + 1;  // -inv mod 2^64
  if (n.size() == detail::kIfmaLimbs && detail::mont_ifma_selected()) {
    kernel_ = Kernel::kIfma;
    k_ = detail::kIfmaDigits;
    n0inv_ &= (Limb{1} << 52) - 1;  // -N^{-1} mod 2^52
  } else {
    kernel_ = detail::mont_fixed_width(n.size()) ? Kernel::kAdx
                                                 : Kernel::kPortable;
    k_ = n.size();
  }
  const std::size_t r_bits =
      kernel_ == Kernel::kIfma ? 52 * detail::kIfmaDigits : 64 * k_;
  // The constants in residue format; load_reduced only reads n_big_.
  const auto residue = [&](const BigInt& x) {
    LimbVec out(k_);
    LimbVec scratch(scratch_limbs());
    load_reduced(out.data(), x, scratch.data());
    return out;
  };
  n_.assign(k_, 0);
  if (kernel_ == Kernel::kIfma) {
    detail::limbs_to_digits52(n_.data(), n.data());
  } else {
    std::copy(n.begin(), n.end(), n_.begin());
  }
  r2_ = residue(BigInt(1) << (2 * r_bits));
  one_mont_ = residue(BigInt(1) << r_bits);
  one_plain_ = residue(BigInt(1));
}

const char* Montgomery::kernel_name() const {
  switch (kernel_) {
    case Kernel::kIfma:
      return "ifma";
    case Kernel::kAdx:
      return "adx";
    case Kernel::kPortable:
      break;
  }
  return "portable";
}

void Montgomery::mul_into(Limb* out, const Limb* a, const Limb* b,
                          Limb* scratch) const {
  switch (kernel_) {
    case Kernel::kIfma:
      return detail::mont_mul_ifma(out, a, b, n_.data(), n0inv_);
    case Kernel::kAdx:
      return detail::mont_mul_fixed(out, a, b, n_.data(), n0inv_, k_);
    case Kernel::kPortable:
      break;
  }
  detail::mont_mul_portable(out, a, b, n_.data(), n0inv_, k_, scratch);
}

void Montgomery::sqr_into(Limb* out, const Limb* a, Limb* scratch) const {
  switch (kernel_) {
    case Kernel::kIfma:
      return detail::mont_mul_ifma(out, a, a, n_.data(), n0inv_);
    case Kernel::kAdx:
      return detail::mont_sqr_fixed(out, a, n_.data(), n0inv_, k_);
    case Kernel::kPortable:
      break;
  }
  detail::mont_sqr_portable(out, a, n_.data(), n0inv_, k_, scratch);
}

Montgomery::LimbVec Montgomery::mont_mul(const LimbVec& a,
                                         const LimbVec& b) const {
  LimbVec out(k_);
  LimbVec scratch(scratch_limbs());
  mul_into(out.data(), a.data(), b.data(), scratch.data());
  return out;
}

Montgomery::LimbVec Montgomery::mont_sqr(const LimbVec& a) const {
  LimbVec out(k_);
  LimbVec scratch(scratch_limbs());
  sqr_into(out.data(), a.data(), scratch.data());
  return out;
}

BigInt Montgomery::reduce(const BigInt& x) const {
  if (!x.is_negative() && x < n_big_) return x;
  return x.mod(n_big_);
}

void Montgomery::load_reduced(Limb* out, const BigInt& x,
                              Limb* scratch) const {
  // Already reduced is the common case: no division at all.
  const bool reduced = !x.is_negative() && x < n_big_;
  BigInt red;  // SBO: stack for protocol widths
  if (!reduced) red = x.mod(n_big_);
  const LimbBuf& limbs = reduced ? x.limbs() : red.limbs();
  Limb* dst = kernel_ == Kernel::kIfma ? scratch : out;
  const std::size_t width =
      kernel_ == Kernel::kIfma ? detail::kIfmaLimbs : k_;
  std::copy(limbs.begin(), limbs.end(), dst);
  std::fill(dst + limbs.size(), dst + width, Limb{0});
  if (kernel_ == Kernel::kIfma) detail::limbs_to_digits52(out, scratch);
}

void Montgomery::to_mont_into(Limb* out, const BigInt& x, Limb* scratch) const {
  load_reduced(out, x, scratch);
  mul_into(out, out, r2_.data(), scratch);
}

void Montgomery::from_mont_into(BigInt& out, const Limb* x,
                                Limb* scratch) const {
  if (kernel_ != Kernel::kIfma) {
    out.limbs_.resize_uninit(k_);
    mul_into(out.limbs_.data(), x, one_plain_.data(), scratch);
  } else {
    // x < 2N, so x R^{-1} mod N comes out at most N (N itself when x is 0
    // mod N): one conditional subtraction makes it canonical.
    mul_into(scratch, x, one_plain_.data(), scratch + k_);
    const std::size_t nk = detail::kIfmaLimbs;
    out.limbs_.resize_uninit(nk);
    Limb* v = out.limbs_.data();
    detail::digits52_to_limbs(v, scratch);
    const Limb* n = n_big_.limbs().data();
    if (ge_mod(v, n, nk)) sub_mod(v, v, n, nk);
  }
  out.sign_ = 1;
  out.normalize();
}

Montgomery::LimbVec Montgomery::to_mont(const BigInt& x) const {
  LimbVec v(k_);
  LimbVec scratch(scratch_limbs());
  to_mont_into(v.data(), x, scratch.data());
  return v;
}

BigInt Montgomery::from_mont(const LimbVec& x) const {
  BigInt out;
  LimbVec scratch(scratch_limbs());
  from_mont_into(out, x.data(), scratch.data());
  return out;
}

BigInt Montgomery::mul(const BigInt& a, const BigInt& b) const {
  return from_mont(mont_mul(to_mont(a), to_mont(b)));
}

BigInt Montgomery::pow(const BigInt& base, const BigInt& exp) const {
  BigInt out;
  pow_into(out, base, exp);
  return out;
}

void Montgomery::pow_into(BigInt& out, const BigInt& base,
                          const BigInt& exp) const {
  if (exp.is_negative()) throw ParamError("Montgomery::pow: negative exponent");
  if (exp.is_zero()) {
    out = BigInt(1).mod(n_big_);
    return;
  }

  const std::size_t nbits = exp.bit_length();
  const unsigned w = detail::pow_window_bits(nbits);
  const std::size_t k = k_;
  const std::size_t tsize = std::size_t{1} << (w - 1);

  // One arena lease holds the odd-power table, base^2, the accumulator and
  // the kernel scratch; every slice is fully written before it is read.
  ScratchArena::Lease lease =
      ScratchArena::local().take(tsize * k + 2 * k + scratch_limbs());
  Limb* table = lease.data();           // tsize entries of k limbs
  Limb* b2 = table + tsize * k;         // k limbs
  Limb* acc = b2 + k;                   // k limbs
  Limb* scratch = acc + k;              // scratch_limbs()

  // Odd powers base^1, base^3, ..., base^{2^w - 1} in Montgomery form.
  to_mont_into(table, base, scratch);
  if (tsize > 1) {
    sqr_into(b2, table, scratch);
    for (std::size_t i = 1; i < tsize; ++i) {
      mul_into(table + i * k, table + (i - 1) * k, b2, scratch);
    }
  }

  // Sliding odd windows from the top, read off the limbs; the chain
  // between windows is pure squarings on the sqr_into specialization.
  bool started = false;
  std::size_t pos = 0;  // exponent bit acc has reached
  const LimbBuf& e = exp.limbs();
  detail::for_each_odd_window(
      e.data(), e.size(), w, [&](detail::OddWindow win) {
        const Limb* entry = table + (win.digit >> 1) * k;
        if (started) {
          for (; pos > win.pos; --pos) sqr_into(acc, acc, scratch);
          mul_into(acc, acc, entry, scratch);
        } else {
          std::copy(entry, entry + k, acc);
          started = true;
        }
        pos = win.pos;
      });
  for (; pos > 0; --pos) sqr_into(acc, acc, scratch);
  from_mont_into(out, acc, scratch);
}

namespace {

// Process-wide shared() cache. LRU without hot-path exclusive locking:
// lookups under the shared lock stamp the entry's atomic use counter, and
// eviction (under the exclusive lock) drops the entry with the stalest
// stamp. Evicted contexts stay alive through outstanding shared_ptrs.
struct SharedEntry {
  BigInt modulus;
  std::shared_ptr<const Montgomery> ctx;
  mutable std::atomic<std::uint64_t> last_use{0};

  SharedEntry(BigInt m, std::shared_ptr<const Montgomery> c,
              std::uint64_t stamp)
      : modulus(std::move(m)), ctx(std::move(c)), last_use(stamp) {}
  SharedEntry(SharedEntry&& o) noexcept
      : modulus(std::move(o.modulus)),
        ctx(std::move(o.ctx)),
        last_use(o.last_use.load(std::memory_order_relaxed)) {}
  SharedEntry& operator=(SharedEntry&& o) noexcept {
    modulus = std::move(o.modulus);
    ctx = std::move(o.ctx);
    last_use.store(o.last_use.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    return *this;
  }
};

struct SharedCache {
  std::shared_mutex mu;
  std::vector<SharedEntry> entries;
  std::atomic<std::uint64_t> clock{0};
};

SharedCache& shared_cache() {
  static SharedCache& cache = *new SharedCache;  // leaked: static teardown
  return cache;
}

}  // namespace

std::shared_ptr<const Montgomery> Montgomery::shared(const BigInt& modulus) {
  SharedCache& cache = shared_cache();
  {
    std::shared_lock lock(cache.mu);
    for (const auto& e : cache.entries) {
      if (e.modulus == modulus) {
        e.last_use.store(
            cache.clock.fetch_add(1, std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
        return e.ctx;
      }
    }
  }
  auto fresh = std::make_shared<const Montgomery>(modulus);
  std::unique_lock lock(cache.mu);
  for (const auto& e : cache.entries) {
    if (e.modulus == modulus) return e.ctx;
  }
  if (cache.entries.size() >= kMaxSharedContexts) {
    auto stalest = cache.entries.begin();
    for (auto it = cache.entries.begin(); it != cache.entries.end(); ++it) {
      if (it->last_use.load(std::memory_order_relaxed) <
          stalest->last_use.load(std::memory_order_relaxed)) {
        stalest = it;
      }
    }
    cache.entries.erase(stalest);
  }
  cache.entries.emplace_back(
      modulus, fresh, cache.clock.fetch_add(1, std::memory_order_relaxed) + 1);
  return fresh;
}

std::size_t Montgomery::shared_cache_size() {
  SharedCache& cache = shared_cache();
  std::shared_lock lock(cache.mu);
  return cache.entries.size();
}

BigInt mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  if (m.sign() <= 0) throw ParamError("mod_pow: modulus must be positive");
  if (m == BigInt(1)) return BigInt(0);
  if (m.is_odd()) {
    return Montgomery(m).pow(base, exp);
  }
  // Even modulus: plain square-and-multiply (not on any hot path).
  if (exp.is_negative()) throw ParamError("mod_pow: negative exponent");
  BigInt result(1);
  BigInt b = base.mod(m);
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = (result * result).mod(m);
    if (exp.bit(i)) result = (result * b).mod(m);
  }
  return result;
}

}  // namespace ice::bn
