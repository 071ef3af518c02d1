// Tests for the TTL session table (ice/session.h): insert / with / take,
// the typed refusals it owns, expiry, the cap, and its behaviour under
// concurrent callers.
#include "ice/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace ice::proto {
namespace {

struct Note {
  static constexpr const char* kName = "note";
  std::string text;
};

using Table = SessionTable<Note>;
using net::Status;

/// The status a call throws (ServiceError), or kOk if it returns.
template <typename Fn>
Status status_of(Fn&& fn) {
  try {
    fn();
  } catch (const net::ServiceError& e) {
    return e.status();
  }
  return Status::kOk;
}

constexpr auto kMinute = std::chrono::minutes(1);
constexpr auto kBlink = std::chrono::milliseconds(1);

void sleep_past(std::chrono::milliseconds ttl) {
  std::this_thread::sleep_for(ttl * 5);
}

TEST(SessionTableTest, InsertThenWithThenTake) {
  Table t(kMinute, 8);
  t.insert(1, {"one"});
  EXPECT_EQ(t.size(), 1u);
  bool seen = false;
  t.with(1, [&](Note& n) {
    seen = n.text == "one";
    n.text = "uno";
  });
  EXPECT_TRUE(seen);
  EXPECT_EQ(t.take(1).text, "uno");
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(status_of([&] { t.with(1, [](Note&) {}); }), Status::kNotFound);
  EXPECT_EQ(status_of([&] { t.take(1); }), Status::kNotFound);
}

TEST(SessionTableTest, LiveKeyCollisionRefused) {
  Table t(kMinute, 8);
  t.insert(42, {"first"});
  EXPECT_EQ(status_of([&] { t.insert(42, {"second"}); }),
            Status::kAlreadyExists);
  // The original value must be untouched.
  t.with(42, [](Note& n) { EXPECT_EQ(n.text, "first"); });
  EXPECT_EQ(t.size(), 1u);
}

TEST(SessionTableTest, CapacityCapRefusesInserts) {
  Table t(kMinute, 3);
  for (std::uint64_t k = 0; k < 3; ++k) t.insert(k, {"x"});
  EXPECT_EQ(status_of([&] { t.insert(99, {"x"}); }),
            Status::kResourceExhausted);
  // Removing one frees a slot.
  t.erase(0);
  EXPECT_EQ(status_of([&] { t.insert(99, {"x"}); }), Status::kOk);
}

TEST(SessionTableTest, ExpiredEntriesReadAsAbsent) {
  Table t(kBlink, 8);
  t.insert(7, {"ghost"});
  sleep_past(kBlink);
  EXPECT_EQ(status_of([&] { t.with(7, [](Note&) {}); }), Status::kNotFound);
  EXPECT_EQ(status_of([&] { t.take(7); }), Status::kNotFound);
  // And the slot is reusable.
  EXPECT_EQ(status_of([&] { t.insert(7, {"fresh"}); }), Status::kOk);
  t.insert(8, {"ghost"});
  sleep_past(kBlink);
  EXPECT_EQ(status_of([&] { t.insert(8, {"over an expired entry"}); }),
            Status::kOk);
}

TEST(SessionTableTest, FullTableReclaimsExpiredEntries) {
  Table t(kBlink, 3);
  for (std::uint64_t k = 0; k < 3; ++k) t.insert(k, {"old"});
  sleep_past(kBlink);
  // Full of expired entries: the insert sweeps them and succeeds.
  EXPECT_EQ(status_of([&] { t.insert(100, {"new"}); }), Status::kOk);
  EXPECT_EQ(t.size(), 1u);
}

TEST(SessionTableTest, RejectedTakeLeavesEntry) {
  Table t(kMinute, 8);
  t.insert(5, {"pending"});
  const auto ready = [](const Note& n) { return n.text == "ready"; };
  EXPECT_EQ(status_of([&] { t.take(5, ready); }),
            Status::kFailedPrecondition);
  EXPECT_EQ(t.size(), 1u);

  t.with(5, [](Note& n) { n.text = "ready"; });
  EXPECT_EQ(t.take(5, ready).text, "ready");
  EXPECT_EQ(status_of([&] { t.take(5, ready); }), Status::kNotFound);
}

TEST(SessionTableTest, ClearEmptiesTheTable) {
  Table t(kMinute, 64);
  for (std::uint64_t k = 0; k < 20; ++k) t.insert(k, {"x"});
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  for (std::uint64_t k = 0; k < 20; ++k) {
    EXPECT_EQ(status_of([&] { t.with(k, [](Note&) {}); }), Status::kNotFound);
  }
}

TEST(SessionTableTest, ConcurrentDistinctKeysKeepCountsConsistent) {
  // gtest assertions are not thread-safe; worker threads report through
  // per-thread flags checked after the join.
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 200;
  Table t(kMinute, kThreads * kPerThread);
  std::vector<std::thread> threads;
  std::vector<char> ok(kThreads, 0);
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t, &ok, i] {
      bool good = true;
      try {
        for (std::uint64_t j = 0; j < kPerThread; ++j) {
          const std::uint64_t key = i * kPerThread + j;
          t.insert(key, {"v"});
          t.with(key, [](Note& n) { n.text += "!"; });
          if (j % 2 == 0) good &= t.take(key).text == "v!";
        }
      } catch (const net::ServiceError&) {
        good = false;
      }
      ok[i] = good ? 1 : 0;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t i = 0; i < kThreads; ++i) EXPECT_TRUE(ok[i]) << i;
  EXPECT_EQ(t.size(), kThreads * kPerThread / 2);
}

TEST(SessionTableTest, ConcurrentSameKeyExactlyOneWinner) {
  constexpr std::size_t kThreads = 8;
  for (int round = 0; round < 20; ++round) {
    Table t(kMinute, 8);
    std::atomic<int> winners{0};
    std::atomic<int> already_exists{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        const Status s =
            status_of([&] { t.insert(77, {"w" + std::to_string(i)}); });
        if (s == Status::kOk) winners.fetch_add(1);
        if (s == Status::kAlreadyExists) already_exists.fetch_add(1);
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(winners.load(), 1) << "round " << round;
    EXPECT_EQ(already_exists.load(), static_cast<int>(kThreads) - 1)
        << "round " << round;
    EXPECT_EQ(t.size(), 1u);
  }
}

// The cap is checked under the same lock as the insert, so racing
// inserters cannot overshoot it.
TEST(SessionTableTest, ConcurrentInsertsNeverExceedTheCap) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 64;
  constexpr std::size_t kCap = 100;
  for (int round = 0; round < 10; ++round) {
    Table t(kMinute, kCap);
    std::atomic<int> inserted{0};
    std::atomic<int> exhausted{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        for (std::uint64_t j = 0; j < kPerThread; ++j) {
          const Status s = status_of([&] { t.insert(i * kPerThread + j, {}); });
          if (s == Status::kOk) inserted.fetch_add(1);
          if (s == Status::kResourceExhausted) exhausted.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(inserted.load(), static_cast<int>(kCap)) << "round " << round;
    EXPECT_EQ(exhausted.load(), static_cast<int>(kThreads * kPerThread - kCap))
        << "round " << round;
    EXPECT_EQ(t.size(), kCap);
  }
}

}  // namespace
}  // namespace ice::proto
