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
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "ice/keys.h"
#include "pir/server.h"
#include "support/fixtures.h"
#include "support/pir_planes.h"

namespace ice::bench {

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
/// (256, 512 or 1024 bits; the real |N| may be one bit short). The primes
/// are the first pair of the test suite's safe-prime fixtures (re-validated
/// there); live safe-prime search at these sizes costs minutes and would
/// dominate every bench run.
inline proto::KeyPair bench_keypair(std::size_t modulus_bits,
                                    std::uint64_t seed = 1) {
  SplitMix64 gen(seed);
  bn::Rng64Adapter rng(gen);
  const std::string_view* pq = nullptr;
  switch (modulus_bits) {
    case 256: pq = ice::testing::kSafePrime128; break;
    case 512: pq = ice::testing::kSafePrime256; break;
    case 1024: pq = ice::testing::kSafePrime512; break;
    default:
      throw ParamError("bench_keypair: no cached primes for this size");
  }
  return proto::keygen_from_primes(bn::BigInt::from_hex(std::string(pq[0])),
                                   bn::BigInt::from_hex(std::string(pq[1])),
                                   rng, /*validate_primality=*/false);
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

/// Median and interquartile range of R timings of a thunk, in seconds
/// (nearest-rank quartiles).
struct MedianIqr {
  double median;
  double iqr;
};

template <typename F>
MedianIqr time_quartiles(int repetitions, F&& f) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repetitions));
  for (int i = 0; i < repetitions; ++i) {
    Stopwatch sw;
    f();
    samples.push_back(sw.seconds());
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t r = samples.size();
  return {samples[r / 2], samples[3 * r / 4] - samples[r / 4]};
}

/// Median-of-R timing of a thunk, in seconds.
template <typename F>
double time_median(int repetitions, F&& f) {
  return time_quartiles(repetitions, std::forward<F>(f)).median;
}

/// Correctness gate for the PIR evaluator benches: the per-point naive and
/// matrix references (the latter over `planes`) and the fused engine must
/// agree on every point of `query` before anything is timed, or the columns
/// would time different computations. Exits non-zero on a mismatch.
inline void require_evaluators_agree(const pir::PirServer& server,
                                     const pir::Bitplanes& planes,
                                     const pir::PirQuery& query) {
  const pir::PirResponse fused = server.respond(query);
  bool ok = fused.shape.points == query.points.size();
  for (std::size_t l = 0; ok && l < query.points.size(); ++l) {
    const pir::PirSingleResponse naive = server.respond_naive(query.points[l]);
    const pir::PirSingleResponse matrix =
        server.respond_matrix(planes, query.points[l]);
    const pir::PirSingleResponse got = ice::testing::point_elements(fused, l);
    ok = matrix.values == naive.values &&
         matrix.gradients == naive.gradients && got.values == naive.values &&
         got.gradients == naive.gradients;
  }
  if (!ok) {
    std::fprintf(stderr, "FATAL: PIR evaluators disagree on the query\n");
    std::exit(1);
  }
}

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
