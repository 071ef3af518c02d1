// Micro-benchmarks of the cryptographic and algebraic primitives
// (google-benchmark). These are not paper figures; they locate where the
// protocol time goes and back the complexity claims in Sec. IV-C.
#include <benchmark/benchmark.h>

#include "bignum/montgomery.h"
#include "bignum/random.h"
#include "common/rng.h"
#include "crypto/chacha20.h"
#include "crypto/prf.h"
#include "crypto/sha256.h"
#include "pir/server.h"
#include "support.h"

namespace {

using namespace ice;
using namespace ice::bench;

void BM_BigIntMul(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  SplitMix64 gen(1);
  bn::Rng64Adapter rng(gen);
  const bn::BigInt a = bn::random_bits(rng, bits);
  const bn::BigInt b = bn::random_bits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigIntMul)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_BigIntDivMod(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  SplitMix64 gen(2);
  bn::Rng64Adapter rng(gen);
  const bn::BigInt num = bn::random_bits(rng, 2 * bits);
  const bn::BigInt den = bn::random_bits(rng, bits);
  for (auto _ : state) {
    bn::BigInt q, r;
    bn::BigInt::divmod(num, den, q, r);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_BigIntDivMod)->Arg(256)->Arg(1024)->Arg(4096);

void BM_MontgomeryPow(benchmark::State& state) {
  // range(0): modulus bits, range(1): exponent bits.
  const auto mod_bits = static_cast<std::size_t>(state.range(0));
  const auto exp_bits = static_cast<std::size_t>(state.range(1));
  const proto::KeyPair keys = bench_keypair(mod_bits);
  SplitMix64 gen(3);
  bn::Rng64Adapter rng(gen);
  const bn::Montgomery mont(keys.pk.n);
  const bn::BigInt exp = bn::random_bits(rng, exp_bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mont.pow(keys.pk.g, exp));
  }
}
BENCHMARK(BM_MontgomeryPow)
    ->Args({512, 64})
    ->Args({512, 512})
    ->Args({1024, 64})
    ->Args({1024, 1024})
    ->Args({1024, 32768});  // a 4KB block as exponent (TagGen unit cost)

void BM_Sha256(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const Bytes data(size, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_ChaCha20(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  crypto::ChaCha20 stream(crypto::ChaCha20::Key{}, crypto::ChaCha20::Nonce{});
  Bytes buf(size);
  for (auto _ : state) {
    stream.keystream(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_ChaCha20)->Arg(4096)->Arg(1 << 20);

void BM_CoefficientPrf(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::CoefficientPrf::expand(bn::BigInt(42), 64, count));
  }
}
BENCHMARK(BM_CoefficientPrf)->Arg(10)->Arg(100)->Arg(1000);

void BM_PirRespond(benchmark::State& state) {
  // range(0): n, range(1): evaluator (0 naive, 1 matrix, 2 fused bitsliced
  // answering a one-point query).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto evaluator = state.range(1);
  constexpr std::size_t kTagBits = 1024;
  pir::TagDatabase db(kTagBits);
  SplitMix64 gen(4);
  bn::Rng64Adapter rng(gen);
  for (std::size_t i = 0; i < n; ++i) {
    db.add(bn::random_bits(rng, kTagBits));
  }
  const pir::Embedding emb(n);
  const pir::PirServer server(db, emb);
  pir::PirQuery query;
  query.points.emplace_back(emb.gamma());
  for (auto& v : query.points[0]) {
    v = gf::GF4(static_cast<std::uint8_t>(gen.below(4)));
  }
  db.build_planes();
  for (auto _ : state) {
    if (evaluator == 0) {
      benchmark::DoNotOptimize(server.respond_naive(query.points[0]));
    } else if (evaluator == 1) {
      benchmark::DoNotOptimize(server.respond_matrix(query.points[0]));
    } else {
      benchmark::DoNotOptimize(server.respond(query));
    }
  }
}
BENCHMARK(BM_PirRespond)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({100, 2})
    ->Args({1000, 1})
    ->Args({1000, 2});

}  // namespace

BENCHMARK_MAIN();
