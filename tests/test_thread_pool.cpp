#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/alloc_count.hpp"

namespace lynceus::util {
namespace {

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0U);
  std::vector<int> out(10, 0);
  pool.parallel_for(10, [&](std::size_t i) { out[i] = static_cast<int>(i); });
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
}

TEST(ThreadPool, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   if (i == 3) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(100, [&](std::size_t i) {
      total.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 5 * 4950);
}

// ---------------------------------------------------------------------------
// parallel_ranges: the deterministic, allocation-free static partition the
// branch-parallel lookahead engines fan out with.
// ---------------------------------------------------------------------------

struct RangeLog {
  std::atomic<int> calls{0};
  std::vector<std::atomic<int>> hits;
  explicit RangeLog(std::size_t n) : hits(n) {}
  static void body(void* ctx, std::size_t, std::size_t begin,
                   std::size_t end) {
    auto& log = *static_cast<RangeLog*>(ctx);
    log.calls.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = begin; i < end; ++i) {
      log.hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  }
};

TEST(ParallelRanges, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  ThreadPool::RangeSection section;
  for (int round = 0; round < 20; ++round) {  // also: reusable section
    RangeLog log(17);
    pool.parallel_ranges(section, 17, 4, &RangeLog::body, &log);
    for (std::size_t i = 0; i < 17; ++i) {
      EXPECT_EQ(log.hits[i].load(), 1) << "round " << round << " i " << i;
    }
    EXPECT_LE(log.calls.load(), 4);
    EXPECT_GE(log.calls.load(), 1);
  }
}

TEST(ParallelRanges, PartitionIsStaticIndexArithmetic) {
  // The (part -> range) map must be pure arithmetic on (n, parts) — the
  // determinism contract callers reduce under. Record which part covered
  // each index and check against p*n/parts boundaries.
  ThreadPool pool(3);
  ThreadPool::RangeSection section;
  const std::size_t n = 11;
  struct Cover {
    std::array<std::atomic<int>, 11> part_of;
  } cover;
  for (auto& p : cover.part_of) p.store(-1);
  pool.parallel_ranges(
      section, n, 4,
      [](void* ctx, std::size_t part, std::size_t begin, std::size_t end) {
        auto& c = *static_cast<Cover*>(ctx);
        for (std::size_t i = begin; i < end; ++i) {
          c.part_of[i].store(static_cast<int>(part));
        }
      },
      &cover);
  const std::size_t parts = 4;  // min(max_parts, n, workers + 1)
  for (std::size_t i = 0; i < n; ++i) {
    const int expected_part = [&] {
      for (std::size_t p = 0; p < parts; ++p) {
        if (i >= p * n / parts && i < (p + 1) * n / parts) {
          return static_cast<int>(p);
        }
      }
      return -1;
    }();
    EXPECT_EQ(cover.part_of[i].load(), expected_part) << "index " << i;
  }
}

TEST(ParallelRanges, WorkerlessPoolRunsInlineAsOnePart) {
  ThreadPool pool(0);
  ThreadPool::RangeSection section;
  RangeLog log(8);
  pool.parallel_ranges(section, 8, 4, &RangeLog::body, &log);
  EXPECT_EQ(log.calls.load(), 1);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(log.hits[i].load(), 1);
}

TEST(ParallelRanges, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  ThreadPool::RangeSection section;
  RangeLog log(1);
  pool.parallel_ranges(section, 0, 4, &RangeLog::body, &log);
  EXPECT_EQ(log.calls.load(), 0);
}

TEST(ParallelRanges, PropagatesException) {
  ThreadPool pool(2);
  ThreadPool::RangeSection section;
  EXPECT_THROW(pool.parallel_ranges(
                   section, 8, 3,
                   [](void*, std::size_t part, std::size_t, std::size_t) {
                     if (part == 1) throw std::runtime_error("boom");
                   },
                   nullptr),
               std::runtime_error);
  // The section must be reusable after a throwing run.
  RangeLog log(8);
  pool.parallel_ranges(section, 8, 3, &RangeLog::body, &log);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(log.hits[i].load(), 1);
}

TEST(ParallelRanges, NestsInsideParallelFor) {
  // The engines call parallel_ranges from inside pool tasks (root fan-out
  // via parallel_for, branch fan-out via sections, same pool). Distinct
  // concurrent sections must compose without deadlock.
  ThreadPool pool(3);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<ThreadPool::RangeSection> sections(kOuter);
  std::vector<std::atomic<int>> total(kOuter);
  struct Inner {
    std::atomic<int>* slot;
  };
  pool.parallel_for(kOuter, [&](std::size_t o) {
    Inner in{&total[o]};
    pool.parallel_ranges(
        sections[o], kInner, 4,
        [](void* ctx, std::size_t, std::size_t begin, std::size_t end) {
          static_cast<Inner*>(ctx)->slot->fetch_add(
              static_cast<int>(end - begin), std::memory_order_relaxed);
        },
        &in);
  });
  for (std::size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(total[o].load(), static_cast<int>(kInner)) << "outer " << o;
  }
}

// ---------------------------------------------------------------------------
// Concurrent callers: the server's shards all borrow one pool, so several
// threads call parallel_for / parallel_ranges on it at the same time —
// including ranges nested inside a parallel_for item. Runs under the
// `concurrency` label (TSan leg).
// ---------------------------------------------------------------------------

/// Runs `body(c)` on `callers` threads released together.
template <typename Body>
void run_callers(std::size_t callers, const Body& body) {
  std::atomic<std::size_t> arrived{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      arrived.fetch_add(1);
      while (arrived.load() < callers) std::this_thread::yield();
      body(c);
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(ThreadPoolConcurrentCallers, EveryCallerRunsEachIndexOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kOuter = 24;
  constexpr std::size_t kInner = 40;
  for (const std::size_t callers : {2U, 3U, 4U}) {
    SCOPED_TRACE(std::to_string(callers) + " callers");
    std::vector<std::string> failures(callers);
    run_callers(callers, [&](std::size_t c) {
      for (int round = 0; round < 3; ++round) {
        // parallel_for with a nested section per item.
        std::vector<std::atomic<int>> outer(kOuter);
        std::vector<ThreadPool::RangeSection> sections(kOuter);
        std::vector<std::unique_ptr<RangeLog>> inner;
        for (std::size_t o = 0; o < kOuter; ++o) {
          inner.push_back(std::make_unique<RangeLog>(kInner));
        }
        pool.parallel_for(kOuter, [&](std::size_t o) {
          outer[o].fetch_add(1, std::memory_order_relaxed);
          pool.parallel_ranges(sections[o], kInner, 4, &RangeLog::body,
                               inner[o].get());
        });
        // A top-level section of this caller's own.
        ThreadPool::RangeSection section;
        RangeLog flat(kInner * 3);
        pool.parallel_ranges(section, flat.hits.size(), 8, &RangeLog::body,
                             &flat);

        bool ok = true;
        for (std::size_t o = 0; o < kOuter; ++o) {
          ok = ok && outer[o].load() == 1;
          for (const auto& h : inner[o]->hits) ok = ok && h.load() == 1;
        }
        for (const auto& h : flat.hits) ok = ok && h.load() == 1;
        if (!ok) failures[c] = "round " + std::to_string(round);
      }
    });
    for (std::size_t c = 0; c < callers; ++c) {
      EXPECT_TRUE(failures[c].empty()) << "caller " << c << ": " << failures[c];
    }
  }
}

TEST(ThreadPoolConcurrentCallers, EachExceptionReachesItsOwnCaller) {
  ThreadPool pool(3);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kItems = 16;
  // Per caller: what each of its three throwing calls rethrew.
  std::vector<std::array<std::string, 3>> caught(kCallers);
  struct Thrower {
    std::string what;
    static void body(void* ctx, std::size_t part, std::size_t, std::size_t) {
      if (part == 1) throw std::runtime_error(static_cast<Thrower*>(ctx)->what);
    }
  };
  run_callers(kCallers, [&](std::size_t c) {
    const std::string tag = std::to_string(c);
    try {
      pool.parallel_for(kItems, [&](std::size_t i) {
        if (i == c + 3) throw std::runtime_error("for " + tag);
      });
    } catch (const std::runtime_error& e) {
      caught[c][0] = e.what();
    }
    ThreadPool::RangeSection section;
    Thrower ranges{"ranges " + tag};
    try {
      pool.parallel_ranges(section, kItems, 4, &Thrower::body, &ranges);
    } catch (const std::runtime_error& e) {
      caught[c][1] = e.what();
    }
    // Thrown from a section nested in a parallel_for item: the section
    // rethrows into the item, and parallel_for into this caller.
    std::vector<ThreadPool::RangeSection> sections(kItems);
    Thrower nested{"nested " + tag};
    try {
      pool.parallel_for(kItems, [&](std::size_t i) {
        if (i == 5) {
          pool.parallel_ranges(sections[i], kItems, 4, &Thrower::body, &nested);
        }
      });
    } catch (const std::runtime_error& e) {
      caught[c][2] = e.what();
    }
  });
  for (std::size_t c = 0; c < kCallers; ++c) {
    const std::string tag = std::to_string(c);
    EXPECT_EQ(caught[c][0], "for " + tag);
    EXPECT_EQ(caught[c][1], "ranges " + tag);
    EXPECT_EQ(caught[c][2], "nested " + tag);
  }
}

TEST(ParallelRanges, AllocationFree) {
  if (!alloc_count_available()) {
    GTEST_SKIP() << "allocation-counting hooks not linked";
  }
  ThreadPool pool(2);
  ThreadPool::RangeSection section;
  RangeLog warm(64);
  // One warm-up round lets the pool threads finish any lazy one-time
  // initialization of their own.
  pool.parallel_ranges(section, 64, 3, &RangeLog::body, &warm);
  // Measure the dispatch alone with a no-op body and no per-round state.
  AllocCountAllThreadsGuard dispatch_guard;
  for (int round = 0; round < 50; ++round) {
    pool.parallel_ranges(
        section, 64, 3, [](void*, std::size_t, std::size_t, std::size_t) {},
        nullptr);
  }
  EXPECT_EQ(dispatch_guard.delta(), 0U)
      << "parallel_ranges touched the heap";
}

TEST(DefaultWorkerCount, SizingRuleCoversTheSingleCoreEdge) {
  // hardware_concurrency() == 1 (the 1-core dev box behind the
  // BENCH_micro.json `workers: 0` entry) and == 0 (unknown, which the
  // standard permits) both size the default pool to zero workers — an
  // inline pool, explicitly *not* a scaling configuration; the bench
  // records `workers` so tools/compare_bench.py can skip such entries.
  EXPECT_EQ(worker_count_for(0), 0U);
  EXPECT_EQ(worker_count_for(1), 0U);
  // Multi-core hosts keep one thread for the caller.
  EXPECT_EQ(worker_count_for(2), 1U);
  EXPECT_EQ(worker_count_for(8), 7U);
}

TEST(DefaultWorkerCount, MatchesTheRuleOnThisHost) {
  EXPECT_EQ(default_worker_count(),
            worker_count_for(std::thread::hardware_concurrency()));
}

TEST(MaybeParallelFor, NullPoolRunsSequentially) {
  std::vector<int> order;
  maybe_parallel_for(nullptr, 5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(MaybeParallelFor, WithPool) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  maybe_parallel_for(&pool, 50, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 50);
}

}  // namespace
}  // namespace lynceus::util
