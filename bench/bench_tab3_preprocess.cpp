// Tab. III — Preprocess time: KeyGen, TagGen (user side) and TPASetup.
//
// Paper values at |N| = 1024: laptop KeyGen 0.03 s, TagGen 0.05..0.26 s for
// n = 40..200 (RasPi ~15x slower), TPASetup < 3 s for n <= 200.
// Expected shape: TagGen and TPASetup linear in n; KeyGen independent of n.
//
// Notes: full-size KeyGen is a safe-prime SEARCH, whose cost is a high-
// variance geometric random variable; we report a live measurement at a
// reduced size and the amortized per-candidate cost, plus the
// keygen_from_primes path used when primes are cached.
#include "support.h"

#include "bignum/prime.h"
#include "crypto/csprng.h"
#include "ice/tag.h"
#include "pir/embedding.h"
#include "pir/tag_database.h"

namespace {

using namespace ice;
using namespace ice::bench;

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  print_header("Tab. III — preprocess time");
  proto::ProtocolParams params;
  params.modulus_bits = smoke ? 256 : 1024;
  params.block_bytes = smoke ? 512 : 4096;  // scaled block (paper blocks are
                                            // larger; the TagGen trend in n
                                            // is unchanged)

  // --- KeyGen ------------------------------------------------------------
  crypto::Csprng rng = crypto::Csprng::deterministic(5);
  {
    Stopwatch sw;
    const proto::KeyPair kp = bench_keypair(params.modulus_bits);
    std::printf("KeyGen (%zu-bit N, cached safe primes): %8.4f s\n",
                params.modulus_bits, sw.seconds());
    (void)kp;
  }
  if (!smoke) {  // the live search is a high-variance geometric variable
    Stopwatch sw;
    proto::ProtocolParams small;
    small.modulus_bits = 128;  // live safe-prime search, reduced size
    (void)proto::keygen(small, rng);
    std::printf("KeyGen (128-bit N, live safe-prime search): %6.4f s "
                "(search cost explodes with size; the paper's laptop "
                "reports 0.03 s)\n",
                sw.seconds());
  }

  // --- TagGen and TPASetup vs n -------------------------------------------
  const proto::KeyPair keys = bench_keypair(params.modulus_bits);
  const proto::TagGenerator tagger(keys.pk);
  std::printf("\n%-6s %18s %24s %15s\n", "n", "TagGen laptop (s)",
              "TagGen raspi-model (s)", "TPASetup (ms)");
  const std::vector<std::size_t> sweep =
      smoke ? std::vector<std::size_t>{10}
            : std::vector<std::size_t>{40, 80, 120, 160, 200};
  for (std::size_t n : sweep) {
    const auto blocks = bench_blocks(n, params.block_bytes, 60 + n);
    Stopwatch sw;
    const auto tags = tagger.tag_all(blocks);
    const double taggen = sw.seconds();

    // TPASetup: the row database and embedding a TPA's TagStore holds,
    // plus the matrix representation built from the rows.
    sw.reset();
    pir::TagDatabase db(params.tag_bits());
    for (const auto& t : tags) db.add(t);
    const pir::Embedding embedding(n);
    const pir::Bitplanes planes = db.build_planes();
    const double setup = sw.seconds();
    std::printf("%-6zu %18.3f %24.3f %15.4f\n", n, taggen,
                taggen * kRasPiSlowdown, setup * 1e3);
  }

  std::printf("\nShape check vs paper: TagGen and TPASetup linear in n; "
              "TPASetup < 3 s at n = 200; KeyGen independent of n.\n");
  return 0;
}
