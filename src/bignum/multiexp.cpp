#include "bignum/multiexp.h"

#include <algorithm>
#include <vector>

#include "bignum/mont_kernels.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/scratch.h"

namespace ice::bn {

namespace {

using Limb = Montgomery::Limb;

// One odd window of one base: multiply table[digit >> 1] in when the
// shared chain reaches bit at - 1. at = 0 ends the base's list.
struct WindowEvent {
  std::size_t at;
  unsigned digit;  // odd
};

// prod bases[i]^{exps[i]} over [begin, end) with one shared squaring chain,
// written into the k-limb buffer `out` (Montgomery form). The window width
// follows Montgomery::pow's cost model; each base's windows come off its
// limbs top-down into a list of its own, and the replay walks one cursor
// per base. Table limbs come from the calling thread's arena, the lists and
// cursors reuse thread-local capacity: steady-state calls are
// allocation-free.
void straus_range(const Montgomery& mont, const std::vector<BigInt>& bases,
                  const std::vector<BigInt>& exps, std::size_t begin,
                  std::size_t end, Limb* out) {
  const std::size_t k = mont.limb_count();
  const std::size_t m = end - begin;
  std::size_t max_bits = 0;
  for (std::size_t i = begin; i < end; ++i) {
    max_bits = std::max(max_bits, exps[i].bit_length());
  }
  if (max_bits == 0) {
    std::copy(mont.one_mont().begin(), mont.one_mont().end(), out);
    return;
  }
  const unsigned w = detail::pow_window_bits(max_bits);

  // Per-base window lists, each top-down and closed by an at = 0 event;
  // cursor[b] indexes base b's next window. offs is a prefix sum of table
  // entry counts (zero-exponent bases get no table at all).
  static thread_local std::vector<WindowEvent> events;
  static thread_local std::vector<std::size_t> cursor;
  static thread_local std::vector<std::size_t> offs;
  events.clear();
  cursor.resize(m);
  offs.assign(m + 1, 0);
  for (std::size_t b = 0; b < m; ++b) {
    cursor[b] = events.size();
    const LimbBuf& e = exps[begin + b].limbs();
    unsigned max_digit = 0;
    detail::for_each_odd_window(
        e.data(), e.size(), w, [&](detail::OddWindow win) {
          events.push_back({win.pos + 1, win.digit});
          max_digit = std::max(max_digit, win.digit);
        });
    events.push_back({0, 0});
    offs[b + 1] = offs[b] + (max_digit == 0 ? 0 : (max_digit >> 1) + 1);
  }

  // One arena lease: all per-base odd-power tables laid out flat, plus
  // base^2 staging, the accumulator and kernel scratch. The chain runs in
  // this thread's own lease, not in `out`: pooled chunks' outputs sit side
  // by side in one caller buffer, and a chain written there would share
  // cache lines with its neighbour's on every squaring.
  const std::size_t total = offs.back();
  ScratchArena::Lease lease =
      ScratchArena::local().take(total * k + 2 * k + mont.scratch_limbs());
  Limb* tables = lease.data();
  Limb* b2 = tables + total * k;
  Limb* acc = b2 + k;
  Limb* scratch = acc + k;
  for (std::size_t b = 0; b < m; ++b) {
    const std::size_t ts = offs[b + 1] - offs[b];
    if (ts == 0) continue;
    Limb* table = tables + offs[b] * k;
    mont.to_mont_into(table, bases[begin + b], scratch);
    if (ts > 1) {
      mont.sqr_into(b2, table, scratch);
      for (std::size_t d = 1; d < ts; ++d) {
        mont.mul_into(table + d * k, table + (d - 1) * k, b2, scratch);
      }
    }
  }

  // Replay top-down: at each chain position that holds a window, multiply
  // in every base whose next window sits there and advance its cursor,
  // then square down to the next such position. Products commute mod N
  // and the result leaves through from_mont's canonical value, so the
  // order within a position does not matter.
  std::size_t next = 0;  // 1 + the next position holding a window
  for (std::size_t b = 0; b < m; ++b) {
    next = std::max(next, events[cursor[b]].at);
  }
  bool started = false;
  std::size_t pos = next - 1;
  for (;;) {
    next = 0;
    for (std::size_t b = 0; b < m; ++b) {
      const WindowEvent& ev = events[cursor[b]];
      if (ev.at == pos + 1) {
        const Limb* entry = tables + (offs[b] + (ev.digit >> 1)) * k;
        if (started) {
          mont.mul_into(acc, acc, entry, scratch);
        } else {
          std::copy(entry, entry + k, acc);
          started = true;
        }
        ++cursor[b];
      }
      next = std::max(next, events[cursor[b]].at);
    }
    if (next == 0) break;
    for (; pos >= next; --pos) mont.sqr_into(acc, acc, scratch);
  }
  for (; pos > 0; --pos) mont.sqr_into(acc, acc, scratch);
  std::copy(acc, acc + k, out);
}

}  // namespace

BigInt multi_exp(const Montgomery& mont, const std::vector<BigInt>& bases,
                 const std::vector<BigInt>& exps, std::size_t parallelism) {
  if (bases.size() != exps.size()) {
    throw ParamError("multi_exp: bases/exps size mismatch");
  }
  for (const BigInt& e : exps) {
    if (e.is_negative()) throw ParamError("multi_exp: negative exponent");
  }
  if (bases.empty()) return BigInt(1).mod(mont.modulus());

  const std::size_t k = mont.limb_count();
  const std::size_t chunks =
      chunk_count(bases.size(), resolve_parallelism(parallelism));
  // Partials live in one caller-held lease; pool workers write disjoint
  // k-limb slices (the lease is taken and dropped on this thread).
  ScratchArena::Lease lease =
      ScratchArena::local().take(chunks * k + mont.scratch_limbs());
  Limb* partials = lease.data();
  Limb* scratch = partials + chunks * k;
  parallel_chunks(bases.size(), parallelism,
                  [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                    straus_range(mont, bases, exps, begin, end,
                                 partials + chunk * k);
                  });
  for (std::size_t c = 1; c < chunks; ++c) {
    mont.mul_into(partials, partials, partials + c * k, scratch);
  }
  BigInt result;
  mont.from_mont_into(result, partials, scratch);
  return result;
}

BigInt mont_product(const Montgomery& mont, const std::vector<BigInt>& values,
                    std::size_t parallelism) {
  if (values.empty()) return BigInt(1).mod(mont.modulus());
  const std::size_t k = mont.limb_count();
  const std::size_t chunks =
      chunk_count(values.size(), resolve_parallelism(parallelism));
  ScratchArena::Lease lease =
      ScratchArena::local().take(chunks * k + mont.scratch_limbs());
  Limb* partials = lease.data();
  Limb* scratch = partials + chunks * k;
  parallel_chunks(
      values.size(), parallelism,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        // Accumulates in the worker's own lease (see straus_range).
        ScratchArena::Lease worker_lease =
            ScratchArena::local().take(2 * k + mont.scratch_limbs());
        Limb* v = worker_lease.data();
        Limb* acc = v + k;
        Limb* wscratch = acc + k;
        mont.to_mont_into(acc, values[begin], wscratch);
        for (std::size_t i = begin + 1; i < end; ++i) {
          mont.to_mont_into(v, values[i], wscratch);
          mont.mul_into(acc, acc, v, wscratch);
        }
        std::copy(acc, acc + k, partials + chunk * k);
      });
  for (std::size_t c = 1; c < chunks; ++c) {
    mont.mul_into(partials, partials, partials + c * k, scratch);
  }
  BigInt result;
  mont.from_mont_into(result, partials, scratch);
  return result;
}

}  // namespace ice::bn
