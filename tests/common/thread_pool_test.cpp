#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.h"

namespace ice {
namespace {

// Blocks each arriving thread until `parties` threads have arrived or 10 s
// pass; returns whether the full meeting happened. A chunk that can only
// meet chunks running on other threads fails instead of hanging when its
// job is serialized onto one thread.
class Rendezvous {
 public:
  explicit Rendezvous(std::size_t parties) : parties_(parties) {}

  bool arrive_and_wait() {
    std::unique_lock lock(mu_);
    ++arrived_;
    cv_.notify_all();
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return arrived_ >= parties_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
};

TEST(ThreadPoolTest, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPoolTest, RunsSubmittedTask) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 7; });
  EXPECT_EQ(fut.get(), 7);
}

TEST(ThreadPoolTest, RunsManyTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(1);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor must wait for all 50
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, SizeReportsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, PoolStaysUsableAfterThrowingTasks) {
  ThreadPool pool(2);
  std::vector<std::future<int>> bad;
  for (int i = 0; i < 8; ++i) {
    bad.push_back(pool.submit(
        []() -> int { throw std::runtime_error("boom"); }));
  }
  for (auto& f : bad) EXPECT_THROW(f.get(), std::runtime_error);
  // Workers must have survived every throw and still drain new tasks.
  auto ok = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(ok.get(), 42);
}

TEST(ThreadPoolTest, ShutdownWhileBusyDrainsEverything) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        done.fetch_add(1);
      });
    }
  }  // destructor runs while workers are mid-task and the queue is deep
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPoolTest, ManySmallTasksStress) {
  ThreadPool pool(4);
  constexpr int kTasks = 10000;
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futs;
  futs.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futs.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), static_cast<long>(kTasks) * (kTasks - 1) / 2);
}

TEST(ThreadPoolTest, WorkersSurviveRacedBroadcastWakeups) {
  // Regression: a worker woken for a broadcast job whose chunks were all
  // claimed before its post-wait re-check used to fall through the
  // queue-empty check and retire with the pool still running. Hammer tiny
  // broadcasts so woken workers routinely lose the claim race, then prove
  // every worker is still alive by making them all rendezvous at once.
  ThreadPool pool(4);
  std::atomic<int> hits{0};
  for (int i = 0; i < 10000; ++i) {
    pool.run_chunks(2, [&hits](std::size_t) { hits.fetch_add(1); });
  }
  EXPECT_EQ(hits.load(), 20000);
  std::mutex m;
  std::condition_variable cv;
  std::size_t arrived = 0;
  std::vector<std::future<bool>> futs;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    futs.push_back(pool.submit([&] {
      std::unique_lock lock(m);
      ++arrived;
      cv.notify_all();
      return cv.wait_for(lock, std::chrono::seconds(10),
                         [&] { return arrived == pool.size(); });
    }));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get());
}

TEST(ThreadPoolTest, ConcurrentBroadcastsBothUseWorkers) {
  // Two non-pool threads post two-chunk broadcasts at once, and all four
  // chunks (each job's pair included) must be running at the same time to
  // meet. That needs both posters AND pool workers inside both jobs: a job
  // left to run on its caller alone cannot meet and times out.
  ThreadPool pool(4);
  Rendezvous meet(4);
  std::atomic<int> met{0};
  const auto post = [&] {
    pool.run_chunks(2, [&](std::size_t) {
      if (meet.arrive_and_wait()) met.fetch_add(1);
    });
  };
  std::thread a(post);
  std::thread b(post);
  a.join();
  b.join();
  EXPECT_EQ(met.load(), 4);
}

TEST(ThreadPoolTest, ChunkExceptionReachesOnlyItsPoster) {
  // Both jobs are in flight together (their four chunks meet first); only
  // the first job's chunks throw, and only its poster sees the error.
  ThreadPool pool(4);
  Rendezvous meet(4);
  std::atomic<int> met{0};
  const auto post = [&](bool fail) {
    try {
      pool.run_chunks(2, [&, fail](std::size_t) {
        if (meet.arrive_and_wait()) met.fetch_add(1);
        if (fail) throw std::runtime_error("chunk");
      });
      return false;
    } catch (const std::runtime_error&) {
      return true;
    }
  };
  bool threw_a = false;
  bool threw_b = true;
  std::thread a([&] { threw_a = post(true); });
  std::thread b([&] { threw_b = post(false); });
  a.join();
  b.join();
  EXPECT_EQ(met.load(), 4);
  EXPECT_TRUE(threw_a);
  EXPECT_FALSE(threw_b);
}

TEST(ThreadPoolTest, ConcurrentPostersStressRunsEveryChunkOnce) {
  // 8 posters x 1000 tiny broadcasts of 1-5 chunks against 4 workers: the
  // job FIFO churns through links, unlinks and claim races, and every
  // chunk of every broadcast must run exactly once.
  constexpr std::size_t kPosters = 8;
  constexpr std::size_t kRounds = 1000;
  constexpr std::size_t kMaxChunks = 5;
  ThreadPool pool(4);
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> posters;
  for (std::size_t p = 0; p < kPosters; ++p) {
    posters.emplace_back([&, p] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        const std::size_t chunks = 1 + (p + r) % kMaxChunks;
        std::atomic<int> hits[kMaxChunks] = {};
        pool.run_chunks(chunks, [&](std::size_t c) { hits[c].fetch_add(1); });
        for (std::size_t c = 0; c < kMaxChunks; ++c) {
          if (hits[c].load() != (c < chunks ? 1 : 0)) wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : posters) t.join();
  EXPECT_EQ(wrong.load(), 0u);
}

TEST(ThreadPoolTest, OnPoolThreadFlagTracksWorkerContext) {
  EXPECT_FALSE(ThreadPool::on_pool_thread());
  ThreadPool pool(1);
  auto fut = pool.submit([] { return ThreadPool::on_pool_thread(); });
  EXPECT_TRUE(fut.get());
  EXPECT_FALSE(ThreadPool::on_pool_thread());
}

TEST(ParallelChunksTest, PartitionRangeCoversEveryIndexOnce) {
  for (std::size_t n : {0u, 1u, 5u, 16u, 17u}) {
    for (std::size_t chunks : {1u, 2u, 3u, 7u, 32u}) {
      const auto parts = partition_range(n, chunks);
      std::size_t covered = 0;
      std::size_t expect_begin = 0;
      for (const auto& c : parts) {
        EXPECT_EQ(c.begin, expect_begin);
        EXPECT_LT(c.begin, c.end);
        covered += c.end - c.begin;
        expect_begin = c.end;
      }
      EXPECT_EQ(covered, n);
      EXPECT_LE(parts.size(), std::min<std::size_t>(std::max<std::size_t>(
                                  chunks, 1), std::max<std::size_t>(n, 1)));
    }
  }
}

TEST(ParallelChunksTest, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_chunks(kN, /*threads=*/7,
                            [&hits](std::size_t, std::size_t b,
                                    std::size_t e) {
                              for (std::size_t i = b; i < e; ++i) {
                                hits[i].fetch_add(1);
                              }
                            });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelChunksTest, PropagatesWorkerException) {
  EXPECT_THROW(
      parallel_chunks(100, /*threads=*/4,
                                [](std::size_t c, std::size_t, std::size_t) {
                                  if (c != 0) {
                                    throw std::runtime_error("chunk");
                                  }
                                }),
      std::runtime_error);
  // And from the caller-executed chunk 0 as well.
  EXPECT_THROW(
      parallel_chunks(100, /*threads=*/4,
                                [](std::size_t c, std::size_t, std::size_t) {
                                  if (c == 0) {
                                    throw std::runtime_error("chunk0");
                                  }
                                }),
      std::runtime_error);
}

TEST(ParallelChunksTest, NestedCallsRunInlineWithoutDeadlock) {
  // Saturate the shared pool with outer chunks that each open an inner
  // parallel region; on_pool_thread() must force the inner regions inline,
  // otherwise the inner submits would wait on workers that never free up.
  std::atomic<long> total{0};
  parallel_chunks(
      64, /*threads=*/0, [&total](std::size_t, std::size_t b, std::size_t e) {
        parallel_chunks(
            e - b, /*threads=*/0,
            [&total, b](std::size_t, std::size_t ib, std::size_t ie) {
              for (std::size_t i = ib; i < ie; ++i) {
                total.fetch_add(static_cast<long>(b + i));
              }
            });
      });
  EXPECT_EQ(total.load(), 64L * 63 / 2);
}

TEST(ParallelChunksTest, ResolveParallelismConvention) {
  EXPECT_EQ(resolve_parallelism(1), 1u);
  EXPECT_EQ(resolve_parallelism(7), 7u);
  EXPECT_GE(resolve_parallelism(0), 1u);  // 0 = hardware
}

}  // namespace
}  // namespace ice
