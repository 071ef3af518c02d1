// Per-layer metrics from a traced run's spans.
//
// Every span was recorded by the benchmark at a public boundary (see
// trace.h). A client call is matched to the server handle it caused by
// target service, method and containment in time; a call made inside a
// handle names that handle as its parent. Per-audit numbers come from the
// calls a client made inside one of its audit spans (each client runs one
// audit at a time).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "deployment.h"
#include "trace.h"

namespace perfbench {

struct LayerInput {
  const std::vector<Span>* spans = nullptr;
  const std::vector<SiteInfo>* sites = nullptr;
  std::uint16_t tpa0 = 0;  // service sites of the replicas
  std::uint16_t tpa1 = 0;
  std::int64_t window_begin = 0;  // tracer time of the timed window
  std::int64_t window_end = 0;
  std::size_t audits = 0;  // audits completed in the window, all users
};

/// Blocking path of one ICE-basic round split by layer (ms). The branch
/// that finished last of the two concurrent ones (the TPA challenging the
/// edge, or the private tag retrieval) is the one on the path. Every part
/// is measured on its own: `user` is the time none of the client's calls
/// was in flight (decode, repack, thread hand-offs), plus the query encode
/// when PIR was on the path. The parts add up to the round only as far as
/// the spans cover it.
struct BasicBreakdown {
  double round = 0;
  double user = 0;
  double transport = 0;
  double tpa = 0;
  double edge = 0;
  double pir = 0;
};

struct LayerResult {
  double edge_proof_ms = 0;
  double edge_batch_proof_ms = 0;  // 0 when the workload runs no ICE-batch
  double tpa_challenge_ms = 0;
  double tpa_verify_ms = 0;
  double tpa_batch_verify_ms = 0;
  double respond_tpa0_ms = 0;  // ICE-basic rounds, the answered query
  double respond_tpa1_ms = 0;
  double stage_ms = 0;  // 0 when the workload updates nothing
  double close_ms = 0;
  double points_per_audit = 0;
  double attempts_per_retrieval = 0;
  double pir_codec_ms = 0;  // explicit retrieve_tags spans minus their calls
  double repack_ms = 0;     // ICE-basic: after both branches returned,
                            // before submit (decode when PIR was last,
                            // then repack)
  double batch_repack_ms = 0;  // ICE-batch: last query -> batch_finish
  double errors = 0;        // calls answered with a non-OK status or lost
  std::size_t basic_rounds = 0;
  std::size_t pir_critical_rounds = 0;  // rounds where PIR, not the edge
                                        // challenge, blocked
  std::size_t negative_parts = 0;  // rounds with a layer time below zero
  double coverage = 0;  // median over basic rounds of (sum of parts) / round
  BasicBreakdown median;           // per-layer medians over basic rounds
};

LayerResult analyze(const LayerInput& in);

double median(std::vector<double> v);

}  // namespace perfbench
