// Epoch engine under an update storm: audit latency with writes in flight,
// and the cost of an epoch close.
//
// Two arms (both land in BENCH_updates.json):
//
//   merge  — a TagDatabase takes U staged updates; one close_epoch()
//            merges them (a memcpy of the staged rows into the base).
//
//   storm  — a TagStore answers timed audit rounds (encode -> 2x respond
//            -> decode) on an idle database and under an epoch storm
//            (writer threads staging Zipf updates through the delta plane,
//            never merged during timing). Snapshot isolation should keep
//            the storm column within a small constant of idle with every
//            decode valid; the rounds read a frozen base, so a torn decode
//            is fatal.
#include "support.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "ice/tag_store.h"
#include "mec/workload.h"
#include "pir/client.h"
#include "pir/embedding.h"
#include "pir/tag_database.h"

namespace {

using namespace ice;
using namespace ice::bench;

struct MergeCell {
  double merge_ms;  // close_epoch() with U rows staged
  std::size_t rows_merged;
};

MergeCell measure_merge(std::span<const bn::BigInt> tags,
                        std::span<const bn::BigInt> fresh, std::size_t tag_bits,
                        std::size_t updates, std::uint64_t seed) {
  const std::size_t n = tags.size();
  pir::TagDatabase db(tag_bits);
  for (const auto& t : tags) (void)db.add(t);
  MergeCell cell{};
  SplitMix64 gen(seed);
  std::vector<std::size_t> targets(updates);
  for (auto& idx : targets) idx = gen.below(n);

  for (std::size_t u = 0; u < updates; ++u) {
    db.update(targets[u], fresh[u % fresh.size()]);
  }
  Stopwatch sw;
  const pir::EpochMergeStats merged = db.close_epoch();
  cell.merge_ms = 1e3 * sw.seconds();
  cell.rows_merged = merged.rows_merged;
  return cell;
}

struct StormCell {
  double idle_ms;    // audit round, quiesced database
  double epoch_ms;   // audit round with staged-update storm in flight
  std::size_t staged;  // rows staged by the epoch storm while timed
};

/// One full audit round against `store` (acting as both PIR replicas).
/// Any decode failure is a correctness bug: the exception propagates.
double time_round(const proto::TagStore& store, const pir::PirClient& client,
                  const std::vector<std::size_t>& wanted, bn::Rng64& rng,
                  int reps) {
  const std::uint64_t epoch = store.epoch();  // nothing closes while timed
  return 1e3 * time_median(reps, [&] {
    const pir::PirClient::EncodedQuery enc = client.encode(wanted, rng);
    pir::PirResponse r0, r1;
    store.respond(epoch, enc.queries[0], r0);
    store.respond(epoch, enc.queries[1], r1);
    (void)client.decode(enc.secrets, r0, r1);
  });
}

StormCell measure_storm(std::span<const bn::BigInt> tags,
                        std::span<const bn::BigInt> fresh,
                        std::size_t tag_bits, std::size_t m, int reps,
                        std::uint64_t seed) {
  const std::size_t n = tags.size();
  proto::ProtocolParams params;
  params.modulus_bits = tag_bits;
  params.parallelism = 1;
  proto::TagStore store(params, tags);

  const pir::Embedding embedding(n);
  const pir::PirClient client(embedding, tag_bits);
  SplitMix64 gen(seed);
  bn::Rng64Adapter rng(gen);
  std::vector<std::size_t> wanted(m);
  for (auto& idx : wanted) idx = gen.below(n);

  // Correctness gate before any timing: the decode must be bit-exact.
  {
    const auto got = proto::retrieve_tags_direct(store, store, wanted, rng);
    for (std::size_t i = 0; i < m; ++i) {
      if (got[i] != store.tag(wanted[i])) {
        std::fprintf(stderr, "FATAL: decode wrong at point %zu\n", i);
        std::exit(1);
      }
    }
  }

  StormCell cell{};
  cell.idle_ms = time_round(store, client, wanted, rng, reps);

  // Storm harness: writer threads push Zipf-popular rows until stopped,
  // PACED to a fixed offered load (~10k updates/s per writer) so the audit
  // thread measures the staging path, not CPU starvation against a spin
  // loop.
  constexpr auto kWriterPause = std::chrono::microseconds(100);
  std::atomic<bool> stop{false};
  const auto writer = [&](std::uint64_t wseed) {
    SplitMix64 wgen(wseed);
    mec::ZipfWorkload zipf(n, 1.0);
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      store.update(zipf.next(wgen), fresh[i++ % fresh.size()]);
      std::this_thread::sleep_for(kWriterPause);
    }
  };
  std::thread w0(writer, seed ^ 0xaaaa);
  std::thread w1(writer, seed ^ 0xbbbb);
  cell.epoch_ms = time_round(store, client, wanted, rng, reps);
  stop.store(true, std::memory_order_relaxed);
  w0.join();
  w1.join();

  // Snapshot isolation gate: mid-storm audits decoded the epoch-t tags
  // (a torn read throws inside decode); the staged rows are still
  // invisible here.
  cell.staged = store.staged_updates();
  for (std::size_t i = 0; i < m; ++i) {
    if (store.tag(wanted[i]) != tags[wanted[i]]) {
      std::fprintf(stderr, "FATAL: staged update leaked into the snapshot\n");
      std::exit(1);
    }
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  const std::size_t tag_bits = smoke ? 64 : 1024;

  print_header("Epoch engine: update storms vs audit latency");

  // Arm 1 — epoch-close merge.
  {
    const std::vector<std::size_t> sizes =
        smoke ? std::vector<std::size_t>{2000}
              : std::vector<std::size_t>{100000, 1000000};
    const std::size_t updates = smoke ? 50 : 1000;
    std::printf("%-9s %-8s %11s\n", "n", "updates", "merge(ms)");
    for (std::size_t n : sizes) {
      const std::vector<bn::BigInt> tags = synthetic_tags(n, tag_bits, 29 + n);
      const std::vector<bn::BigInt> fresh =
          synthetic_tags(256, tag_bits, 31 + n);
      const MergeCell cell =
          measure_merge(tags, fresh, tag_bits, updates, 41 * n + 7);
      if (cell.rows_merged == 0) {
        std::fprintf(stderr, "FATAL: merge cell merged no rows\n");
        return 1;
      }
      std::printf("%-9zu %-8zu %11.3f\n", n, updates, cell.merge_ms);
      if (!smoke) {
        std::ostringstream body;
        body << "{\"tag_bits\": " << tag_bits << ", \"n\": " << n
             << ", \"updates\": " << updates
             << ", \"merge_ms\": " << cell.merge_ms << "}";
        std::ostringstream section;
        section << "updates_merge_n" << n;
        emit_parallel_json(section.str(), body.str(), "BENCH_updates.json");
      }
    }
  }

  // Arm 2 — audit latency: idle vs epoch storm.
  {
    const std::size_t n = smoke ? 240 : 100000;
    const std::size_t m = smoke ? 6 : 64;
    const int reps = smoke ? 1 : 5;
    const std::vector<bn::BigInt> tags = synthetic_tags(n, tag_bits, 37);
    const std::vector<bn::BigInt> fresh = synthetic_tags(256, tag_bits, 43);
    std::printf("\n%-9s %-4s %10s %11s %10s %8s\n", "n", "m", "idle(ms)",
                "epoch(ms)", "staged", "vs_idle");
    const StormCell cell = measure_storm(tags, fresh, tag_bits, m, reps, 53);
    const double vs_idle = cell.epoch_ms / cell.idle_ms;
    std::printf("%-9zu %-4zu %10.2f %11.2f %10zu %7.2fx\n", n, m,
                cell.idle_ms, cell.epoch_ms, cell.staged, vs_idle);
    if (!smoke) {
      std::ostringstream body;
      body << "{\"tag_bits\": " << tag_bits << ", \"n\": " << n
           << ", \"m\": " << m
           << ", \"idle_ms\": " << cell.idle_ms
           << ", \"epoch_storm_ms\": " << cell.epoch_ms
           << ", \"rows_staged\": " << cell.staged
           << ", \"rounds\": " << reps
           << ", \"epoch_vs_idle\": " << vs_idle << "}";
      emit_parallel_json("updates_audit_bitsliced", body.str(),
                         "BENCH_updates.json");
    }
  }

  std::printf("\nTakeaway: staged updates ride the delta plane, so audits "
              "under a write storm stay\nnear idle latency with every decode "
              "valid; an epoch close is a memcpy-sized\nmerge.\n");
  return 0;
}
