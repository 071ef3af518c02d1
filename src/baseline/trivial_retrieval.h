// Baselines the paper compares against (implicitly or explicitly).
//
// 1. Trivial private retrieval: download ALL n tags and pick locally. It is
//    perfectly private and the natural comparison point for the PIR's
//    communication cost (paper Sec. III-B calls it out as impractical).
// 2. Per-edge sequential auditing: run ICE-basic once per edge instead of
//    ICE-batch — the denominator of the ratio curves in Figs. 7 and 8.
// (3. The PIR evaluation without the matrix representation — Fig. 2's micro
//    benchmark — is pir::PirServer::respond_naive in the PIR module itself.)
#pragma once

#include <cstddef>
#include <vector>

#include "bignum/bigint.h"
#include "ice/tag_store.h"
#include "ice/user_client.h"

namespace ice::baseline {

/// Downloads the complete tag set from one replica and selects locally.
/// Trivially private; costs n * K bits of TPA->User traffic.
std::vector<bn::BigInt> trivial_retrieve(const proto::TagStore& store,
                                         const std::vector<std::size_t>&
                                             indices);

/// Exact TPA->User bit cost of the trivial scheme for a file of n blocks.
constexpr std::size_t trivial_retrieval_bits(std::size_t n,
                                             std::size_t tag_bits) {
  return n * tag_bits;
}

/// Runs ICE-basic once per edge (the ICE-batch comparator). Returns true
/// iff every individual audit passed.
bool sequential_audits(proto::UserClient& user,
                       const std::vector<net::RpcChannel*>& edge_channels);

}  // namespace ice::baseline
