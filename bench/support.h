// Shared scaffolding for the experiment-reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper
// (bench_fig*.cpp / bench_tab*.cpp) or an ablation (bench_ablation_*).
// They print self-describing fixed-width tables so the EXPERIMENTS.md
// paper-vs-measured comparison can be refreshed by re-running them.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "ice/csp_service.h"
#include "ice/edge_service.h"
#include "ice/keys.h"
#include "ice/tpa_service.h"
#include "ice/user_client.h"
#include "net/channel.h"
#include "pir/server.h"

namespace ice::bench {

// Safe primes pre-generated with this library (re-validated in the test
// suite); live safe-prime search at these sizes costs minutes and would
// dominate every bench run.
inline constexpr const char* kPrime128[2] = {
    "9c0fed7e75ff0872b00f5aa289a45043",
    "e9627eb0afce6d6c10c3df253db3e5ab"};
inline constexpr const char* kPrime256[2] = {
    "e44beb1515866fba68468af8631da0cce5d6f12264aa763d5cc233bbd08840bb",
    "84d17fc49fdd91edb379dbf82494d568134da67b9c153dafece0826fe68e3447"};
inline constexpr const char* kPrime512[2] = {
    "d910e3b27182e2137ffbfd0e6f56239142fafeb64c4f170e9dece7710ec4f42c"
    "dc229f9f270e7c22cdf6d8ed9670743597c151bfbbed1f34984f1e922bf94c83",
    "8f3958def5298492ece4f64345f6c1343a288a0d73a2b5176227dc0d1139f094"
    "18ac4922c01812b1f16d330fe318395756c486893d865d430a2ed110c6bafe3f"};

/// True when the binary was invoked with --smoke: every bench main shrinks
/// its problem sizes to a tiny fixed configuration so the ctest entries
/// labelled `bench_smoke` (and the sanitizer presets, which run the same
/// ctest suite) can execute every bench end-to-end in seconds. Smoke runs
/// exercise the exact measurement code paths; only the sizes change, and
/// JSON emission is skipped so real measurement files are never clobbered.
inline bool smoke_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") return true;
  }
  return false;
}

/// Keypair with a cached prime pair for the requested nominal modulus size
/// (256, 512 or 1024 bits; the real |N| may be one bit short).
inline proto::KeyPair bench_keypair(std::size_t modulus_bits,
                                    std::uint64_t seed = 1) {
  SplitMix64 gen(seed);
  bn::Rng64Adapter rng(gen);
  const char* const* pq = nullptr;
  switch (modulus_bits) {
    case 256: pq = kPrime128; break;
    case 512: pq = kPrime256; break;
    case 1024: pq = kPrime512; break;
    default:
      throw ParamError("bench_keypair: no cached primes for this size");
  }
  return proto::keygen_from_primes(bn::BigInt::from_hex(pq[0]),
                                   bn::BigInt::from_hex(pq[1]), rng,
                                   /*validate_primality=*/false);
}

/// Random K-bit tag values (bit patterns are all that PIR benches need).
inline std::vector<bn::BigInt> synthetic_tags(std::size_t n, std::size_t bits,
                                              std::uint64_t seed) {
  SplitMix64 gen(seed);
  bn::Rng64Adapter rng(gen);
  std::vector<bn::BigInt> tags;
  tags.reserve(n);
  for (std::size_t i = 0; i < n; ++i) tags.push_back(bn::random_bits(rng, bits));
  return tags;
}

/// Deterministic random blocks.
inline std::vector<Bytes> bench_blocks(std::size_t n, std::size_t bytes,
                                       std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Bytes> blocks(n);
  for (auto& b : blocks) {
    b.resize(bytes);
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng());
  }
  return blocks;
}

/// Median-of-R timing of a thunk, in seconds.
template <typename F>
double time_median(int repetitions, F&& f) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repetitions));
  for (int i = 0; i < repetitions; ++i) {
    Stopwatch sw;
    f();
    samples.push_back(sw.seconds());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Correctness gate for the PIR evaluator benches: the per-point naive and
/// matrix references and the fused engine must agree on every point of
/// `query` before anything is timed, or the columns would time different
/// computations. Exits non-zero on a mismatch.
inline void require_evaluators_agree(const pir::PirServer& server,
                                     const pir::PirQuery& query) {
  const pir::PirResponse fused = server.respond(query);
  bool ok = fused.entries.size() == query.points.size();
  for (std::size_t l = 0; ok && l < query.points.size(); ++l) {
    const pir::PirSingleResponse naive = server.respond_naive(query.points[l]);
    const pir::PirSingleResponse matrix =
        server.respond_matrix(query.points[l]);
    ok = matrix.values == naive.values &&
         matrix.gradients == naive.gradients &&
         fused.entries[l].values == naive.values &&
         fused.entries[l].gradients == naive.gradients;
  }
  if (!ok) {
    std::fprintf(stderr, "FATAL: PIR evaluators disagree on the query\n");
    std::exit(1);
  }
}

/// A fully wired in-memory deployment (CSP + 2 TPAs + J edges + user) used
/// by the protocol-level benches. Mirrors the test Deployment but with
/// bench-sized parameters and exposed channels for byte accounting.
class Deployment {
 public:
  Deployment(const proto::ProtocolParams& params, std::size_t n_blocks,
             std::size_t num_edges, std::size_t cache_capacity,
             std::uint64_t seed = 42)
      : params_(params),
        keys_(bench_keypair(params.modulus_bits, seed)),
        csp_(mec::BlockStore::synthetic(n_blocks, params.block_bytes, seed)),
        user_tpa0_(tpa0_),
        user_tpa1_(tpa1_) {
    for (std::size_t j = 0; j < num_edges; ++j) {
      auto to_csp = std::make_unique<net::InMemoryChannel>(csp_);
      auto to_tpa = std::make_unique<net::InMemoryChannel>(tpa0_);
      auto edge = std::make_unique<proto::EdgeService>(
          static_cast<std::uint32_t>(j), params_, keys_.pk,
          mec::EdgeCache(cache_capacity, mec::EvictionPolicy::kLru),
          *to_csp, to_tpa.get());
      auto channel = std::make_unique<net::InMemoryChannel>(*edge);
      tpa0_.register_edge(static_cast<std::uint32_t>(j), *channel);
      plumbing_.push_back(std::move(to_csp));
      plumbing_.push_back(std::move(to_tpa));
      edges_.push_back(std::move(edge));
      edge_channels_.push_back(std::move(channel));
    }
    user_ = std::make_unique<proto::UserClient>(params_, keys_, user_tpa0_,
                                                user_tpa1_);
  }

  /// Tags the synthetic file and uploads the tags; returns TagGen seconds.
  double setup() {
    std::vector<Bytes> blocks;
    for (std::size_t i = 0; i < csp_.store().size(); ++i) {
      blocks.push_back(csp_.store().block(i));
    }
    return user_->setup_file(blocks);
  }

  [[nodiscard]] std::vector<net::RpcChannel*> edge_channel_ptrs() {
    std::vector<net::RpcChannel*> out;
    for (auto& ch : edge_channels_) out.push_back(ch.get());
    return out;
  }

  /// Total user<->TPA traffic in bytes since the last reset.
  [[nodiscard]] std::uint64_t user_tpa_bytes() const {
    return user_tpa0_.stats().bytes_sent + user_tpa0_.stats().bytes_received +
           user_tpa1_.stats().bytes_sent + user_tpa1_.stats().bytes_received;
  }
  void reset_traffic() {
    user_tpa0_.reset_stats();
    user_tpa1_.reset_stats();
    for (auto& ch : edge_channels_) ch->reset_stats();
    for (auto& ch : plumbing_) ch->reset_stats();
  }

  proto::ProtocolParams params_;
  proto::KeyPair keys_;
  proto::CspService csp_;
  proto::TpaService tpa0_;
  proto::TpaService tpa1_;
  net::InMemoryChannel user_tpa0_;
  net::InMemoryChannel user_tpa1_;
  std::vector<std::unique_ptr<net::InMemoryChannel>> plumbing_;
  std::vector<std::unique_ptr<proto::EdgeService>> edges_;
  std::vector<std::unique_ptr<net::InMemoryChannel>> edge_channels_;
  std::unique_ptr<proto::UserClient> user_;
};

/// The paper's user devices: a laptop (measured directly) and a Raspberry
/// Pi 3B. We do not have a Pi; its numbers are modeled with the measured
/// laptop/Pi ratio from the paper's own Tab. III (KeyGen 3.10s vs 0.03s is
/// dominated by prime search luck; the stable TagGen ratio is ~15x).
inline constexpr double kRasPiSlowdown = 15.0;

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

/// Formats a JSON array of numbers ("[1, 2, 4]" / "[0.125, ...]").
inline std::string json_array(const std::vector<double>& v) {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out << ", ";
    out << v[i];
  }
  out << ']';
  return out.str();
}

inline std::string json_array(const std::vector<std::size_t>& v) {
  return json_array(std::vector<double>(v.begin(), v.end()));
}

/// Merges one section into BENCH_parallel.json in the working directory.
/// The file is an object with one single-line entry per bench
/// (`  "section": {...}`); benches rewrite only their own entry, so running
/// bench_fig6_edge_proof and bench_fig2_tag_response in either order
/// accumulates both thread sweeps in one file. `body` must be a one-line
/// JSON object.
inline void emit_parallel_json(const std::string& section,
                               const std::string& body,
                               const char* path = "BENCH_parallel.json") {
  std::map<std::string, std::string> entries;
  if (std::ifstream in{path}) {
    std::string line;
    while (std::getline(in, line)) {
      const auto key_begin = line.find('"');
      if (key_begin == std::string::npos) continue;  // '{' / '}' framing
      const auto key_end = line.find('"', key_begin + 1);
      const auto value_begin = line.find('{', key_end);
      if (key_end == std::string::npos || value_begin == std::string::npos) {
        continue;
      }
      std::string value = line.substr(value_begin);
      if (!value.empty() && value.back() == ',') value.pop_back();
      entries[line.substr(key_begin + 1, key_end - key_begin - 1)] = value;
    }
  }
  entries[section] = body;
  std::ofstream out(path, std::ios::trunc);
  out << "{\n";
  std::size_t i = 0;
  for (const auto& [key, value] : entries) {
    out << "  \"" << key << "\": " << value
        << (++i == entries.size() ? "\n" : ",\n");
  }
  out << "}\n";
  std::printf("[wrote %s section %s]\n", path, section.c_str());
}

}  // namespace ice::bench
