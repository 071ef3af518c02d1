// TPA-side PIR evaluation (paper Alg. 1, "Auditor tau: tag response").
//
// For each queried point q the server evaluates all K bitplane polynomials
// F_pi(q) and their gradients. One engine answers queries, and two
// per-point reference evaluators implement the same math:
//
//   respond        — the serving engine: the matrix recurrence transposed
//                    so that one tag row (K bits, packed in 64-bit words)
//                    is XOR-accumulated word-parallel into two GF(4)
//                    component bitplanes, fused across all m points of a
//                    query in one pass over the database. Rows sharing
//                    (a, b) are consecutive in the embedding, so the cubic
//                    is evaluated once per such run: q_a q_b times
//                    U = sum_c q_c T_abc (DESIGN.md §9).
//   respond_naive  — term-by-term evaluation multiplying every monomial by
//                    its 0/1 coefficient; the paper's Fig. 2 "micro
//                    benchmark without the matrix representation", and the
//                    reference the differential tests pin `respond` to.
//   respond_matrix — the paper's matrix representation M_pi: zero
//                    coefficients are skipped via per-bitplane index lists
//                    (Bitplanes, built by the caller) and the monomial /
//                    derivative values are computed once per query, then
//                    reused across all K bitplanes (Fig. 2, Tab. III).
#pragma once

#include <cstdint>
#include <vector>

#include "pir/embedding.h"
#include "pir/messages.h"
#include "pir/tag_database.h"

namespace ice::pir {

class PirServer {
 public:
  /// Non-owning views of the database and embedding; both must outlive the
  /// server and agree on n. `parallelism` is the worker-shard budget for
  /// each evaluation (ProtocolParams::parallelism convention: 0 = hardware
  /// concurrency, 1 = single-threaded); every evaluator returns
  /// bit-identical responses at every setting.
  PirServer(const TagDatabase& db, const Embedding& embedding,
            std::size_t parallelism = 1);

  /// Evaluates a whole query batch in ONE pass over the tag database: each
  /// run of rows sharing (a, b) is folded into every point's planes while
  /// it is in cache (m-way accumulation instead of m full sweeps).
  /// Bit-identical to looping respond_naive over the points, at every
  /// parallelism setting and SIMD tier.
  [[nodiscard]] PirResponse respond(const PirQuery& query) const;

  /// In-place respond(): reshapes `out` without discarding its entry and
  /// plane-vector capacity, so a warm response object (same m, k, gamma as
  /// the previous call) makes the steady-state batch sweep allocation-free.
  void respond_into(const PirQuery& query, PirResponse& out) const;

  /// Per-point references (see the file comment). respond_naive reads the
  /// base rows; respond_matrix reads `planes`, which the caller built from
  /// the rows it means to query, and throws ParamError when they were built
  /// over another row count or tag width.
  [[nodiscard]] PirSingleResponse respond_naive(const gf::GF4Vector& q) const;
  [[nodiscard]] PirSingleResponse respond_matrix(
      const Bitplanes& planes, const gf::GF4Vector& q) const;

 private:
  void check_point(const gf::GF4Vector& q) const;

  const TagDatabase* db_;
  const Embedding* embedding_;
  std::size_t parallelism_;
};

}  // namespace ice::pir
