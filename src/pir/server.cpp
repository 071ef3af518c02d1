#include "pir/server.h"

#include <algorithm>
#include <array>
#include <type_traits>

#include "common/error.h"
#include "common/parallel.h"
#include "common/scratch.h"
#include "common/simd.h"

namespace ice::pir {

namespace {

using gf::GF4;
using gf::GF4Vector;

// Per-monomial evaluation data at a fixed query point q: the monomial value
// q_a q_b q_c and the three partial derivatives (products of the other two
// coordinates).
struct MonomialEval {
  GF4 mono;
  GF4 deriv[3];  // aligned with the triple positions a < b < c
};

MonomialEval eval_monomial(const GF4Vector& q, const Embedding::Triple& t) {
  const GF4 qa = q[t[0]], qb = q[t[1]], qc = q[t[2]];
  MonomialEval e;
  e.deriv[0] = qb * qc;
  e.deriv[1] = qa * qc;
  e.deriv[2] = qa * qb;
  e.mono = qa * e.deriv[0];
  return e;
}

// Rows per cache block of the fused bitsliced sweep: 128 rows of up to 16
// words (K = 1024) are 16 KB, so a block plus one point's accumulator
// planes stays L1-resident while the point loop revisits the block m times
// — the database itself streams through L2/DRAM exactly once per batch.
constexpr std::size_t kRowBlock = 128;

// Points per accumulator tile of the fused sweep: the live slabs are
// bounded to kPointTile * 2w(1 + gamma) words (~172 KB at K = 1024,
// n = 10^4) so large batches keep their accumulators cache-resident; the
// database is re-streamed once per tile, which is cheap next to slab
// thrashing at m = 64.
constexpr std::size_t kPointTile = 16;

// Packed GF(4) coefficient quad per query-coordinate key
// qa | qb << 2 | qc << 4: bits 0-1 the monomial qa*qb*qc, bits 2-3 the
// partial d0 = qb*qc, bits 4-5 d1 = qa*qc, bits 6-7 d2 = qa*qb. One table
// load replaces four field multiplies in the sweep's hottest scalar loop.
constexpr std::array<std::uint8_t, 64> make_coeff_lut() {
  std::array<std::uint8_t, 64> lut{};
  for (unsigned key = 0; key < 64; ++key) {
    const GF4 qa(static_cast<std::uint8_t>(key & 3));
    const GF4 qb(static_cast<std::uint8_t>((key >> 2) & 3));
    const GF4 qc(static_cast<std::uint8_t>((key >> 4) & 3));
    const GF4 d0 = qb * qc;
    const GF4 d1 = qa * qc;
    const GF4 d2 = qa * qb;
    const GF4 mono = qa * d0;
    lut[key] = static_cast<std::uint8_t>(
        mono.value() | (d0.value() << 2) | (d1.value() << 4) |
        (d2.value() << 6));
  }
  return lut;
}
constexpr std::array<std::uint8_t, 64> kCoeffLut = make_coeff_lut();

// Expands k elements of a lo/hi bit-plane pair into GF(4) bytes
// (lo | hi << 1 per element) through the dispatched spread kernel. GF4 is
// one trivially-copyable byte whose representation IS the 2-bit element
// value, so the kernel writes the output array directly.
void unpack_pair(const simd::XorKernels& kern, const std::uint64_t* lo,
                 const std::uint64_t* hi, std::size_t k, GF4* out) {
  static_assert(std::is_trivially_copyable_v<GF4> && sizeof(GF4) == 1);
  kern.spread_pair(lo, hi, k, reinterpret_cast<std::uint8_t*>(out));
}

}  // namespace

PirServer::PirServer(const TagDatabase& db, const Embedding& embedding,
                     std::size_t parallelism)
    : db_(&db), embedding_(&embedding), parallelism_(parallelism) {
  if (db.size() > embedding.n()) {
    throw ParamError("PirServer: database larger than embedding domain");
  }
}

void PirServer::check_point(const GF4Vector& q) const {
  if (q.size() != embedding_->gamma()) {
    throw ParamError("PirServer: query point has wrong dimension");
  }
}

PirResponse PirServer::respond(const PirQuery& query) const {
  PirResponse out;
  respond_into(query, out);
  return out;
}

// ------------------------------------------------------------------------
// Per-point reference evaluators (the pinning standard for the fused
// engine's differential tests, and the two Fig. 2 arms).
// ------------------------------------------------------------------------

PirSingleResponse PirServer::respond_naive(const GF4Vector& q) const {
  check_point(q);
  const std::size_t n = db_->size();
  const std::size_t k = db_->tag_bits();
  const std::size_t gamma = embedding_->gamma();
  PirSingleResponse out;
  out.values.assign(k, GF4::zero());
  out.gradients.assign(gamma, GF4Vector(k));
  // One full polynomial evaluation per bitplane: every monomial is
  // recomputed from q and multiplied by its 0/1 coefficient. Bitplanes are
  // independent, so they shard across the pool into disjoint output slots
  // (plane pi of every coordinate-major gradient vector).
  parallel_chunks(k, parallelism_, [&](std::size_t, std::size_t plane_begin,
                                       std::size_t plane_end) {
    for (std::size_t pi = plane_begin; pi < plane_end; ++pi) {
      GF4 value;
      GF4Vector grad(gamma);
      for (std::size_t i = 0; i < n; ++i) {
        const GF4 coeff(db_->bit(i, pi) ? std::uint8_t{1} : std::uint8_t{0});
        const Embedding::Triple t = embedding_->triple(i);
        const MonomialEval e = eval_monomial(q, t);
        value += coeff * e.mono;
        for (int d = 0; d < 3; ++d) {
          grad[t[static_cast<std::size_t>(d)]] +=
              coeff * e.deriv[static_cast<std::size_t>(d)];
        }
      }
      out.values[pi] = value;
      for (std::size_t j = 0; j < gamma; ++j) out.gradients[j][pi] = grad[j];
    }
  });
  return out;
}

PirSingleResponse PirServer::respond_matrix(const GF4Vector& q) const {
  check_point(q);
  const std::size_t n = db_->size();
  const std::size_t k = db_->tag_bits();
  const std::size_t gamma = embedding_->gamma();
  // Monomial values and derivatives once per query (not per bitplane);
  // disjoint slots, so the precompute shards over monomials.
  std::vector<MonomialEval> evals(n);
  std::vector<Embedding::Triple> triples(n);
  parallel_chunks(n, parallelism_,
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      triples[i] = embedding_->triple(i);
                      evals[i] = eval_monomial(q, triples[i]);
                    }
                  });
  PirSingleResponse out;
  out.values.assign(k, GF4::zero());
  out.gradients.assign(gamma, GF4Vector(k));
  // Bitplanes shard over the pool; every shard reuses the shared monomial
  // table read-only and owns its slice of the output (plane pi across the
  // coordinate-major gradient vectors).
  parallel_chunks(k, parallelism_, [&](std::size_t, std::size_t plane_begin,
                                       std::size_t plane_end) {
    GF4Vector grad(gamma);
    for (std::size_t pi = plane_begin; pi < plane_end; ++pi) {
      GF4 value;
      std::fill(grad.begin(), grad.end(), GF4::zero());
      // only nonzero coefficients; the view applies the epoch overlay
      db_->plane(pi).for_each([&](std::uint32_t i) {
        const MonomialEval& e = evals[i];
        const Embedding::Triple& t = triples[i];
        value += e.mono;
        grad[t[0]] += e.deriv[0];
        grad[t[1]] += e.deriv[1];
        grad[t[2]] += e.deriv[2];
      });
      out.values[pi] = value;
      for (std::size_t j = 0; j < gamma; ++j) out.gradients[j][pi] = grad[j];
    }
  });
  return out;
}

// ------------------------------------------------------------------------
// Fused bitsliced engine: one pass over the tag database for the whole
// query.
// ------------------------------------------------------------------------

void PirServer::respond_into(const PirQuery& query, PirResponse& out) const {
  for (const auto& q : query.points) check_point(q);
  const std::vector<GF4Vector>& qs = query.points;
  if (qs.empty()) {
    out.entries.clear();
    return;
  }
  const std::size_t n = db_->size();
  const std::size_t k = db_->tag_bits();
  const std::size_t gamma = embedding_->gamma();
  const std::size_t w = db_->words_per_tag();
  const std::size_t m = qs.size();
  const Embedding::Triple* const triples = embedding_->triples().data();
  const std::uint64_t* const rows = db_->rows_data();
  const simd::XorKernels& kern = simd::active_kernels();

  // Cache-blocked accumulator layout: per (shard, point) a contiguous run
  // of 2w(1 + gamma) words — the value pair [v_lo | v_hi] followed by the
  // gamma gradient pairs [g_lo_j | g_hi_j] (lo/hi interleaved per
  // coordinate, so one scatter touches one contiguous 2w-word pair). All m
  // points of a shard are adjacent, all shards adjacent in one reusable
  // thread-local lease, zeroed per call instead of allocated per call.
  const std::size_t pair = 2 * w;
  const std::size_t stride = pair * (1 + gamma);
  const std::size_t num_shards =
      chunk_count(n, resolve_parallelism(parallelism_));
  auto lease = ScratchArena::local().take_zeroed(
      std::max<std::size_t>(num_shards, 1) * m * stride);
  std::uint64_t* const acc = lease.data();

  // One pass over the rows per point tile. Within a shard, rows are walked
  // in blocks of kRowBlock; per block the gradient slot offsets are derived
  // from the triples once (they do not depend on the point), then for each
  // point of the tile a branchless scalar loop looks up the packed GF(4)
  // coefficient quad per row (kCoeffLut on the 6-bit query-coordinate key)
  // and appends one (dst, src) entry per NONZERO component — the entry
  // store always executes, the cursor only advances on a set bit.
  //
  // Entries are emitted COMPONENT-MAJOR: eight sections per (block, point),
  // one per coefficient bit (value lo/hi, then lo/hi of the three partial
  // derivatives), each section flushed by its own xor_scatter call. Within
  // a section consecutive entries frequently share a destination — the
  // value sections are a single destination outright, and the derivative
  // sections revisit each gradient slot in consecutive clumps because the
  // triples are generated coordinate-sorted — which is exactly the shape
  // the run-detecting kernels convert into register-resident folds instead
  // of per-entry accumulator read-modify-write round-trips.
  //
  // Skipped zero components are exactly the XORs the branchless masked
  // form would have turned into no-ops, and GF(4) addition is XOR, exact
  // and commutative, so the row shards, point tiling and section ordering
  // only reorder independent terms: the fold below reproduces the
  // per-point reference responses bit for bit.
  constexpr std::size_t kSecCap = kRowBlock + 8;
  parallel_chunks(n, parallelism_, [&](std::size_t shard, std::size_t begin,
                                       std::size_t end) {
    std::uint64_t* const shard_acc = acc + shard * m * stride;
    std::uint64_t cand[8 * kRowBlock];
    std::uint64_t sec[8 * kSecCap];
    for (std::size_t p0 = 0; p0 < m; p0 += kPointTile) {
      const std::size_t p1 = std::min(m, p0 + kPointTile);
      for (std::size_t block = begin; block < end; block += kRowBlock) {
        const std::size_t nrows = std::min(end, block + kRowBlock) - block;
        // The eight candidate entries of a row (one per coefficient bit)
        // depend only on the triple, not on the query point, so they are
        // materialized once per block and reused by every point of the
        // tile — the per-point loop below degenerates to key lookup plus
        // eight copy-and-conditionally-advance steps.
        for (std::size_t r = 0; r < nrows; ++r) {
          const Embedding::Triple t = triples[block + r];
          const std::uint64_t src = static_cast<std::uint64_t>(r * w) << 32;
          const std::uint64_t o0 = pair * (1 + t[0]);
          const std::uint64_t o1 = pair * (1 + t[1]);
          const std::uint64_t o2 = pair * (1 + t[2]);
          std::uint64_t* const c8 = cand + 8 * r;
          c8[0] = src;
          c8[1] = src | w;
          c8[2] = src | o0;
          c8[3] = src | (o0 + w);
          c8[4] = src | o1;
          c8[5] = src | (o1 + w);
          c8[6] = src | o2;
          c8[7] = src | (o2 + w);
        }
        for (std::size_t p = p0; p < p1; ++p) {
          const GF4Vector& q = qs[p];
          std::uint64_t* const s0 = sec;
          std::uint64_t* const s1 = sec + kSecCap;
          std::uint64_t* const s2 = sec + 2 * kSecCap;
          std::uint64_t* const s3 = sec + 3 * kSecCap;
          std::uint64_t* const s4 = sec + 4 * kSecCap;
          std::uint64_t* const s5 = sec + 5 * kSecCap;
          std::uint64_t* const s6 = sec + 6 * kSecCap;
          std::uint64_t* const s7 = sec + 7 * kSecCap;
          std::size_t n0 = 0, n1 = 0, n2 = 0, n3 = 0;
          std::size_t n4 = 0, n5 = 0, n6 = 0, n7 = 0;
          for (std::size_t r = 0; r < nrows; ++r) {
            const Embedding::Triple t = triples[block + r];
            const unsigned key =
                static_cast<unsigned>(q[t[0]].value()) |
                (static_cast<unsigned>(q[t[1]].value()) << 2) |
                (static_cast<unsigned>(q[t[2]].value()) << 4);
            const unsigned c = kCoeffLut[key];
            const std::uint64_t* const c8 = cand + 8 * r;
            s0[n0] = c8[0];
            n0 += c & 1u;
            s1[n1] = c8[1];
            n1 += (c >> 1) & 1u;
            s2[n2] = c8[2];
            n2 += (c >> 2) & 1u;
            s3[n3] = c8[3];
            n3 += (c >> 3) & 1u;
            s4[n4] = c8[4];
            n4 += (c >> 4) & 1u;
            s5[n5] = c8[5];
            n5 += (c >> 5) & 1u;
            s6[n6] = c8[6];
            n6 += (c >> 6) & 1u;
            s7[n7] = c8[7];
            n7 += (c >> 7) & 1u;
          }
          std::uint64_t* const pacc = shard_acc + p * stride;
          const std::uint64_t* const block_rows = rows + block * w;
          kern.xor_scatter(pacc, block_rows, w, s0, n0);
          kern.xor_scatter(pacc, block_rows, w, s1, n1);
          kern.xor_scatter(pacc, block_rows, w, s2, n2);
          kern.xor_scatter(pacc, block_rows, w, s3, n3);
          kern.xor_scatter(pacc, block_rows, w, s4, n4);
          kern.xor_scatter(pacc, block_rows, w, s5, n5);
          // d2's destination is the innermost (fastest-varying) triple
          // coordinate, so its sections almost never repeat a destination
          // consecutively — the run scan would be pure overhead.
          kern.xor_scatter_single(pacc, block_rows, w, s6, n6);
          kern.xor_scatter_single(pacc, block_rows, w, s7, n7);
        }
      }
    }
  });

  // Fold shards in ascending order (deterministic; all m points fold in
  // one pass since the layout is contiguous).
  for (std::size_t s = 1; s < num_shards; ++s) {
    kern.xor_row(acc, acc + s * m * stride, m * stride);
  }

  // Unpack the component planes into per-point responses; the
  // coordinate-major gradient layout mirrors the accumulator, so every
  // output vector expands from one contiguous pair. Points are disjoint
  // output slots, so they shard over the pool. resize (not assign) keeps a
  // warm entry's buffers — unpack_pair overwrites every element, so no
  // zeroing is needed.
  out.entries.resize(m);
  parallel_chunks(m, parallelism_, [&](std::size_t, std::size_t begin,
                                       std::size_t end) {
    for (std::size_t p = begin; p < end; ++p) {
      const std::uint64_t* const pacc = acc + p * stride;
      PirSingleResponse& entry = out.entries[p];
      entry.values.resize(k);
      entry.gradients.resize(gamma);
      unpack_pair(kern, pacc, pacc + w, k, entry.values.data());
      for (std::size_t j = 0; j < gamma; ++j) {
        const std::uint64_t* const g = pacc + pair * (1 + j);
        entry.gradients[j].resize(k);
        unpack_pair(kern, g, g + w, k, entry.gradients[j].data());
      }
    }
  });
}

}  // namespace ice::pir
