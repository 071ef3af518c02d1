#include "pir/server.h"

#include <algorithm>
#include <optional>

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

PirSingleResponse PirServer::respond_matrix(const Bitplanes& planes,
                                            const GF4Vector& q) const {
  check_point(q);
  const std::size_t n = db_->size();
  const std::size_t k = db_->tag_bits();
  if (planes.n != n || planes.tag_bits != k || planes.lists.size() != k) {
    throw ParamError("PirServer::respond_matrix: planes built over another "
                     "row count or tag width");
  }
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
      for (const std::uint32_t i : planes.lists[pi]) {  // nonzero only
        const MonomialEval& e = evals[i];
        const Embedding::Triple& t = triples[i];
        value += e.mono;
        grad[t[0]] += e.deriv[0];
        grad[t[1]] += e.deriv[1];
        grad[t[2]] += e.deriv[2];
      }
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
  const std::size_t n = db_->size();
  const std::size_t w = db_->words_per_tag();
  const std::size_t m = qs.size();
  out.shape = {m, db_->tag_bits(), embedding_->gamma()};
  const std::size_t gamma = out.shape.gamma;
  const std::size_t stride = out.shape.stride();
  // assign (not a fresh vector) keeps a warm response's capacity.
  out.planes.assign(m * stride, 0);
  if (m == 0) return;
  const Embedding::Triple* const triples = embedding_->triples().data();
  const std::uint64_t* const rows = db_->rows_data();
  const simd::XorKernels& kern = simd::active_kernels();

  // Accumulator layout: per (shard, point) a contiguous run of
  // 2w(1 + gamma) words — the value pair [v_lo | v_hi] followed by the
  // gamma gradient pairs [g_lo_j | g_hi_j] (lo/hi interleaved per
  // coordinate, so one kernel add touches one contiguous 2w-word pair).
  // That is the response's own layout: shard 0 accumulates straight into
  // out.planes, and the other shards into one reusable thread-local lease,
  // zeroed per call instead of allocated per call.
  const std::size_t num_shards =
      std::max<std::size_t>(chunk_count(n, resolve_parallelism(parallelism_)),
                            1);
  std::optional<ScratchArena::Lease> lease;
  if (num_shards > 1) {
    lease.emplace(ScratchArena::local().take_zeroed((num_shards - 1) * m *
                                                    stride));
  }
  const auto shard_acc = [&](std::size_t shard) {
    return shard == 0 ? out.planes.data()
                      : lease->data() + (shard - 1) * m * stride;
  };

  // Run-factored sweep. The embedding enumerates supports {a < b < c}
  // lexicographically, so the rows sharing (a, b) are consecutive with
  // c = c0, c0 + 1, ... up to gamma - 1, and the run's share of F and its
  // partials factors through U = sum_c q_c T_abc:
  //   F      += q_a q_b U          dF/dx_a += q_b U
  //   dF/dx_b += q_a U             dF/dx_c += q_a q_b T_abc
  // One xor_run call per (run, point) keeps U in registers, and every
  // point after the first finds the run's rows in cache. A point's GF4
  // elements are single bytes holding their 2-bit value, so the kernel
  // reads them in place. A row shard may cut a run at either end; each
  // piece is folded on its own, which is exact because every term above is
  // linear in the rows.
  parallel_chunks(n, parallelism_, [&](std::size_t shard, std::size_t begin,
                                       std::size_t end) {
    std::uint64_t* const acc = shard_acc(shard);
    for (std::size_t i = begin; i < end;) {
      const Embedding::Triple t = triples[i];
      const std::size_t len = std::min<std::size_t>(end - i, gamma - t[2]);
      const std::uint64_t* const run_rows = rows + i * w;
      for (std::size_t p = 0; p < m; ++p) {
        kern.xor_run(acc + p * stride, run_rows, w,
                     reinterpret_cast<const std::uint8_t*>(qs[p].data()),
                     t[0], t[1], t[2], len);
      }
      i += len;
    }
  });

  // Fold the other shards into shard 0 in ascending order (deterministic;
  // all m points fold in one pass since the layout is contiguous). The
  // folded planes are the response: nothing is expanded or copied.
  for (std::size_t s = 1; s < num_shards; ++s) {
    kern.xor_row(out.planes.data(), shard_acc(s), m * stride);
  }
}

}  // namespace ice::pir
