#!/usr/bin/env bash
# Builds and runs the test suite under AddressSanitizer(+UBSan) and
# ThreadSanitizer using the CMake presets. TSan is the gate for the
# parallel audit paths (common/parallel.h fan-out), the exponentiation
# engine's shared caches (Montgomery::shared context cache, per-context
# Lim-Lee comb cache), and the session-core concurrency layer: the
# one-mutex session tables
# (SessionTableTest.ConcurrentDistinctKeysKeepCountsConsistent,
# ConcurrentSameKeyExactlyOneWinner, ConcurrentInsertsNeverExceedTheCap),
# the N-threads-interleaving basic+batch stress over shared services
# (SessionStressTest at parallelism 1/4/hardware,
# SessionCollisionTest.RacingStartAuditsOneWinner), the
# cross-service smoke under both channel families (stress_bench_sessions),
# and the tag store: staged updates racing retrievals under the store's one
# reader-writer lock, with closes alone taking it exclusively
# (UpdateEpochTest.ConcurrentUpdatesClosesAndAuditsAreRaceFree,
# TagServiceTest.ConcurrentUpdatesAndRetrievalsDecodeExactly, TagStoreTest.*),
# and the user's cached (generation, epoch) pair, which one client's
# concurrent ICE-basic and ICE-batch audits plan against while stale-plan
# refusals drop it (KeyRotationStressTest.UserClientAuditsAcrossRotationsNeverFail).
# The PR 9 epoch engine adds the snapshot-isolation storm targets: staged
# updates + epoch closes racing audits
# (UpdateEpochTest.StormAuditsMatchQuiescedReferenceBitExact pins mid-storm
# verdicts bit-exact to the quiesced reference), the mid-audit differential
# across thread budgets (EpochServiceTest.*), the update-storm sim scenario
# (UpdateStormTest.*) and the merge + epoch-storm bench (smoke_bench_updates).
# Every TPA challenge goes through the challenge pool, which adds its own
# TSan targets: the OfflineWorker's refill task racing try_acquire/rekey on
# the one-mutex ChallengePool (OfflineWorkerTest.StopDuringRefillDoesNotRace,
# ConcurrentRekeyNeverLeavesStaleBundles,
# ChallengePoolTest.MintSpecNeverPairsNewGenerationWithOldKey), the
# inline-miss vs pool-hit service differential (OfflineServiceTest.*),
# same-modulus set_key + store_tags rotations racing ICE-basic and ICE-batch
# audits (KeyRotationStressTest.SameModulusRotationsNeverFailHonestAudits,
# and at both TPAs racing the user's own retrievals:
# KeyRotationStressTest.UserClientAuditsAcrossRotationsNeverFail,
# KeyRotationTest.RotationBetweenRetrievalAndChallengeIsRefused),
# and the fleet simulation's scheduler loop over pooled challenges
# (FleetSimTest.*, smoke_bench_fleet).
# The client's pipelined calls run under TSan: TcpChannel's tickets, the
# replies one waiter reads and keeps for another, abandoned tickets and the
# poisoning of every pending call (TcpPipelineTest.*), four users sharing
# the user->TPA0 connection with their 310s, 303s, 304s and 307s in flight
# together (SessionStressTest.*, its InterleavedBasicAndBatchAuditsOverTcp
# arm), and whole rounds over sockets with the 204 held while the user's
# 303 and 310 to TPA0 are both out (TcpE2eTest.*):
# `tests/run_sanitizers.sh tsan 'TcpPipeline|SessionStress|TcpE2e'`.
# ASan+UBSan covers the scratch arena's leases, including a zero-word
# zeroed lease on a fresh thread, whose empty buffer has no storage
# (ScratchArenaTest.*).
# The thread pool's FIFO of concurrent broadcast jobs is gated by its own
# targets: posters from several threads sharing the workers
# (ThreadPoolTest.ConcurrentBroadcastsBothUseWorkers,
# ChunkExceptionReachesOnlyItsPoster,
# ConcurrentPostersStressRunsEveryChunkOnce) and two bitsliced responds
# racing on one pooled PIR server
# (ParallelDiffTest.ConcurrentBitslicedRespondsMatchSerial).
# ASan/UBSan covers the big-integer and PIR kernels, including the
# multiexp/fixed_base differential tests in bignum_test (MultiExpTest.*,
# FixedBaseTest.*) that pin the engine to Montgomery::pow. The run-factored
# PIR sweep is gated there by the run kernel against its term-by-term
# reference at every tier
# (SimdTest.XorRunMatchesTermByTermReferenceAtEveryTier), the
# production-width engine grid pinned to respond_naive
# (ProductionWidth/PirWidthDiffTest.*: K = 1024 and 520, full and partial
# last runs, n = 1, row shards cutting runs at parallelism 1-7) and the
# word-parallel GF(4) codec (PirMessagesTest.*,
# WireTest.PirResponseBytesMatchFlatScalarEncoding). The 310 reply's plane
# codec runs there too: the bit interleave and funnel shift against the
# scalar packing at every tag width and row offset
# (PirMessagesTest.PlanePairsMatchScalarPackingAtEveryShape, the
# K/gamma/m grid of WireTest.PirResponseBytesMatchFlatScalarEncoding), the
# hostile replies it refuses (WireTest.HostilePirRepliesRejected,
# WireTest.TruncatedTagMessagesRejectedAtEveryByte), the plane decode
# against the per-bit M^-1 solve on honest and random answers
# (ClientCodecTest.*, PirRoundTripTest.*) and the user's bounded read and
# decode (AllocTest.UserReadAndDecodeAllocationsAreBounded):
# `tests/run_sanitizers.sh asan 'Wire|PirMessages|ClientCodec|PirRoundTrip|AllocTest'`.
# Under TSan the same
# sweep races through ParallelDiffTest, TagServiceTest, UpdateEpochTest
# and EpochServiceTest. The 309/310 codecs' truncation and hostile-count
# cases (WireTest.*), the 310 point cap and point length cap at the
# service (TagServiceTest.QueryPointCapRefusesOneMorePoint,
# TagServiceTest.QueryPointLengthCapRefusesOneMoreElement), the repeated-index
# refusals of 207 and 104 (LocalizeTest.RepeatedSubsetIndexIsRefused,
# CloudAuditTest.RepeatedSampleIndexIsRefused) and the retired 100, 302,
# 311 and 312 ids (FuzzTest.RetiredTagQueryMethodIsUnknown) run under
# ASan+UBSan. Every end-to-end fixture builds sim::Deployment (DESIGN.md
# §16); its in-process and loopback-TCP wirings are gated under TSan by
# SessionStressTest, EpochServiceTest, TcpE2eTest, TransportDiffTest and
# OfflineServiceTest, and under ASan+UBSan by E2eTest, TcpE2eTest,
# TransportDiffTest, FuzzTest, LocalizeTest and DynamicsTest.
# The challenge's power ladder (DESIGN.md §8) keeps one lazily built
# holder per key, shared by concurrent first challenges, the refill
# worker and set_key: TSan gates that race with
# RungBasesTest.RacingFirstChallengesBuildOnce,
# RungBasesTest.WorkerColdPathAndRekeysBuildOncePerKey and
# LadderWireTest.SetKeyRacingChallengesNeverMixesKeys. ASan+UBSan covers
# the ladder codec and its hostile counts, widths and truncations
# (LadderProtocolTest.*, LadderWireTest.*) and the bignum side: the
# ladder differential against Montgomery::pow (LadderTest.*) and the
# chunk slicing it rests on. The radix-2^52 IFMA Montgomery kernel
# (masked 4-lane loads and stores of its third register, the scalar digit-0
# copy, the carry ripple) runs under ASan+UBSan against the BigInt
# reference at the three 16-limb modulus shapes, with aliased outputs, the
# limb/digit conversions and a context's canonical values
# (MontKernelIfmaTest.*; it skips on hosts without AVX-512 IFMA, and a
# 1024-bit pow or multi-exp there runs on it). The Straus engine's limb-level window
# schedule (two-limb window reads, per-base cursors, arena tables of up to
# 2 MB) runs under both: MultiExpScheduleTest.* and
# MultiExpTest.LadderChunkWindowsMatchFoldOfPow split it over 1-4 threads,
# whose per-thread partials the caller combines after the fan-out joins.
# The per-context comb cache keeps one comb per exponent size class, so a
# base may hold several entries: TSan gates lookups racing builds of mixed
# capacities with FixedBaseCacheTest.ConcurrentLookupsAgree and
# FixedBaseCacheTest.ModulusSizedExponentGetsItsOwnComb
# (`tests/run_sanitizers.sh tsan 'FixedBase|CacheBound'`). ASan+UBSan
# covers the challenge key width caps: set_key at kappa = 0, 257 and 2^40
# (LadderWireTest.SetKeyRefusesChainLengthsOutsideTheCaps) and the
# ParamError of make_challenge and draw_challenge_keys
# (BatchTest.ChallengeKeysAreFreshAndBounded), plus the owner-driven audit
# pins over recording channels (LocalizeTest.*, CloudAuditTest.*).
#
# Usage: tests/run_sanitizers.sh [asan|tsan] [ctest-filter-regex]
#   no args      — run both sanitizers over the full suite
#   one preset   — run just that preset
#   filter regex — forwarded to `ctest -R` (e.g. 'Parallel|ThreadPool')
set -euo pipefail
cd "$(dirname "$0")/.."

presets=(asan tsan)
if [[ $# -ge 1 && ( "$1" == "asan" || "$1" == "tsan" ) ]]; then
  presets=("$1")
  shift
fi
filter=()
if [[ $# -ge 1 ]]; then
  filter=(-R "$1")
fi

jobs="$(nproc 2>/dev/null || echo 2)"
for preset in "${presets[@]}"; do
  echo "=== [$preset] configure + build ==="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$jobs"
  echo "=== [$preset] ctest ==="
  ctest --test-dir "build-$preset" --output-on-failure -j "$jobs" "${filter[@]}"
done
echo "=== sanitizers clean: ${presets[*]} ==="
