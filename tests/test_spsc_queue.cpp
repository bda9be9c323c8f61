/// Unit + stress coverage for util::SpscQueue — the lanes wiring the
/// network front-end's acceptor/transport/service-loop threads
/// (src/net/tuning_server.hpp). Stress cases run under the `concurrency`
/// ctest label, so the TSan CI leg checks the two-index Lamport protocol
/// (and its cached-cursor fast path) for ordering bugs.

#include "util/spsc_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace lynceus::util {
namespace {

TEST(SpscQueue, SingleThreadedFifoAndEmptyFull) {
  SpscQueue<int> q(3);  // rounds up to 4
  EXPECT_EQ(q.capacity(), 4U);
  int out = 0;
  EXPECT_FALSE(q.try_pop(out));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));  // full
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_FALSE(q.try_pop(out));
  // Wrap-around lap behaves identically.
  for (int i = 10; i < 14; ++i) EXPECT_TRUE(q.try_push(i));
  for (int i = 10; i < 14; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);
  }
}

TEST(SpscQueue, RejectsZeroCapacity) {
  EXPECT_THROW(SpscQueue<int>(0), std::invalid_argument);
}

TEST(SpscQueue, FailedPushDoesNotConsumeMoveOnlyValue) {
  SpscQueue<std::unique_ptr<int>> q(2);
  EXPECT_TRUE(q.try_push(std::make_unique<int>(1)));
  EXPECT_TRUE(q.try_push(std::make_unique<int>(2)));
  auto keep = std::make_unique<int>(3);
  EXPECT_FALSE(q.try_push(std::move(keep)));
  ASSERT_NE(keep, nullptr);  // only moved from on success
  EXPECT_EQ(*keep, 3);
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(*out, 1);
}

/// One producer, one consumer, tiny ring: every element must arrive
/// exactly once, in order — the whole point of an SPSC lane. Small
/// capacity keeps the full/empty edges and cached-cursor refreshes hot.
void stress(std::size_t capacity, std::size_t items) {
  SpscQueue<std::uint64_t> q(capacity);
  std::thread producer([&] {
    Backoff backoff;
    for (std::uint64_t i = 0; i < items;) {
      if (q.try_push(std::uint64_t(i))) {
        ++i;
        backoff.reset();
      } else {
        backoff.spin();
      }
    }
  });
  std::uint64_t expected = 0;
  Backoff backoff;
  while (expected < items) {
    std::uint64_t v = 0;
    if (q.try_pop(v)) {
      ASSERT_EQ(v, expected);  // in order, none lost or duplicated
      ++expected;
      backoff.reset();
    } else {
      backoff.spin();
    }
  }
  std::uint64_t leftover = 0;
  EXPECT_FALSE(q.try_pop(leftover));
  producer.join();
}

TEST(SpscQueue, StressTinyCapacity) { stress(2, 200'000); }

TEST(SpscQueue, StressTypicalLaneCapacity) { stress(1024, 200'000); }

/// Non-trivial payloads (heap-owning strings) cross the lane intact —
/// the net layer moves encoded frames and decoded requests through it.
TEST(SpscQueue, StressStringPayload) {
  SpscQueue<std::string> q(8);
  constexpr std::size_t kItems = 20'000;
  std::thread producer([&] {
    Backoff backoff;
    for (std::size_t i = 0; i < kItems;) {
      if (q.try_push(std::to_string(i) + "-payload")) {
        ++i;
        backoff.reset();
      } else {
        backoff.spin();
      }
    }
  });
  Backoff backoff;
  for (std::size_t i = 0; i < kItems;) {
    std::string v;
    if (q.try_pop(v)) {
      ASSERT_EQ(v, std::to_string(i) + "-payload");
      ++i;
      backoff.reset();
    } else {
      backoff.spin();
    }
  }
  producer.join();
}

/// The shard loop's lane scheduler: two pre-filled lanes are served
/// alternately, one request per lane per pass, each lane in FIFO order;
/// the longer lane finishes alone once the shorter one is empty.
TEST(SpscQueue, RoundRobinServesPreFilledLanesAlternately) {
  std::vector<std::unique_ptr<SpscQueue<int>>> lanes;
  for (int l = 0; l < 2; ++l) {
    lanes.push_back(std::make_unique<SpscQueue<int>>(8));
  }
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(lanes[0]->try_push(i));
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(lanes[1]->try_push(100 + i));

  std::vector<int> served;
  const auto lane_at = [&](std::size_t l) -> SpscQueue<int>& {
    return *lanes[l];
  };
  const auto serve = [&](int v) { served.push_back(v); };
  std::size_t passes = 0;
  while (serve_round_robin(lanes.size(), lane_at, serve)) ++passes;
  EXPECT_EQ(passes, 4U);
  EXPECT_EQ(served, (std::vector<int>{0, 100, 1, 101, 2, 3}));
  EXPECT_FALSE(serve_round_robin(lanes.size(), lane_at, serve));
}

/// Counts default constructions (the pop targets a consumer builds).
struct Counted {
  static inline int constructed = 0;
  int value = 0;
  Counted() { ++constructed; }
};

/// An idle pass over many lanes builds one pop target, not one per lane —
/// a shard's idle spin passes construct one lane value each.
TEST(SpscQueue, RoundRobinPassConstructsOnePopTarget) {
  std::vector<std::unique_ptr<SpscQueue<Counted>>> lanes;
  for (int l = 0; l < 4; ++l) {
    lanes.push_back(std::make_unique<SpscQueue<Counted>>(2));
  }
  const auto lane_at = [&](std::size_t l) -> SpscQueue<Counted>& {
    return *lanes[l];
  };
  int served = 0;
  const auto serve = [&](const Counted&) { ++served; };

  Counted::constructed = 0;
  EXPECT_FALSE(serve_round_robin(lanes.size(), lane_at, serve));
  EXPECT_EQ(Counted::constructed, 1);

  Counted c;
  ASSERT_TRUE(lanes[1]->try_push(std::move(c)));
  ASSERT_TRUE(lanes[3]->try_push(std::move(c)));
  Counted::constructed = 0;
  EXPECT_TRUE(serve_round_robin(lanes.size(), lane_at, serve));
  EXPECT_EQ(Counted::constructed, 1);
  EXPECT_EQ(served, 2);
}

}  // namespace
}  // namespace lynceus::util
