#pragma once

/// \file thread_pool.hpp
/// A small fixed-size thread pool with a blocking `parallel_for`.
///
/// Lynceus simulates the exploration paths rooted at distinct candidate
/// configurations independently (paper §4.3: "the simulation of exploration
/// paths rooted at different untested configurations are independent
/// problems that can be resolved in parallel"). The optimizer takes an
/// optional `ThreadPool*`; with a null pool, or a pool of one worker, work
/// runs inline on the calling thread, so single-threaded determinism is the
/// default and parallelism is strictly opt-in.
///
/// Any number of threads may call `parallel_for` / `parallel_ranges` on one
/// pool at once (the network server's shards all borrow one pool). Idle
/// workers help whichever call is waiting; every caller also works on its
/// own call, so each call completes even while the workers serve others,
/// and an exception reaches only the caller whose body threw it.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lynceus::util {

class ThreadPool {
 public:
  /// Plain-function body of `parallel_ranges`: called once per claimed
  /// part with the part index and its half-open index range.
  using RangeBody = void (*)(void* ctx, std::size_t part, std::size_t begin,
                             std::size_t end);

  /// Preallocated control block for `parallel_ranges`. One section object
  /// may be reused across any number of calls (the engines keep one per
  /// workspace); distinct *concurrent* sections need distinct objects.
  /// Immovable — embed it behind a pointer when the owner must move.
  class RangeSection {
   public:
    RangeSection() = default;
    RangeSection(const RangeSection&) = delete;
    RangeSection& operator=(const RangeSection&) = delete;

   private:
    friend class ThreadPool;
    std::atomic<std::size_t> next_part_{0};
    std::atomic<std::size_t> done_{0};
    std::atomic<std::size_t> holders_{0};
    std::size_t parts_ = 0;
    std::size_t n_ = 0;
    RangeBody body_ = nullptr;
    void* ctx_ = nullptr;
    RangeSection* next_ = nullptr;  ///< intrusive FIFO link (pool mutex)
    bool listed_ = false;           ///< on the pool's section list
    std::exception_ptr first_error_;
    std::mutex mutex_;
    std::condition_variable cv_;
  };

  /// Creates a pool with `workers` background threads. `workers == 0` is
  /// allowed and makes every submission run inline in `parallel_for`.
  explicit ThreadPool(std::size_t workers);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return threads_.size();
  }

  /// Runs `body(i)` for every `i` in `[0, n)` and blocks until all
  /// iterations complete. Iterations are distributed dynamically in chunks;
  /// the calling thread participates. Exceptions thrown by `body` are
  /// rethrown (the first one observed) after all workers drain.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Deterministic static range partition — the allocation-free variant
  /// the lookahead engines fan their intra-root branch work out with.
  ///
  /// Splits [0, n) into `parts = min(max_parts, n, worker_count() + 1)`
  /// contiguous ranges by pure index arithmetic (part p covers
  /// [p·n/parts, (p+1)·n/parts)) and runs `body(ctx, p, begin, end)` once
  /// per part. The partition depends only on (n, parts) — never on
  /// scheduling — so callers that give each part its own output slots and
  /// reduce them in fixed part order get bitwise-identical results
  /// regardless of which thread ran what. Parts are claimed dynamically
  /// (idle workers help; the calling thread always participates and is
  /// guaranteed to make progress even when every worker is busy), and the
  /// call blocks until every part has finished.
  ///
  /// Performs no heap allocation: all coordination state lives in the
  /// caller-owned `section`. Safe to call from inside a pool task (nested
  /// sections and sections concurrent with parallel_for compose; the
  /// claiming protocol cannot deadlock because the caller can always drain
  /// its own section). With `parts <= 1` or a worker-less pool the body
  /// runs inline as one part covering [0, n). Exceptions thrown by `body`
  /// are rethrown (first observed) after the section completes.
  void parallel_ranges(RangeSection& section, std::size_t n,
                       std::size_t max_parts, RangeBody body, void* ctx);

 private:
  void worker_loop();
  void run_one_part(RangeSection& s, std::size_t part) noexcept;
  /// Removes `s` from the section list if still present (pool mutex held).
  void unlink_section(RangeSection& s) noexcept;

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  RangeSection* sections_head_ = nullptr;  ///< intrusive FIFO (mutex_)
  RangeSection* sections_tail_ = nullptr;
  bool stop_ = false;
};

/// Convenience: runs `body` over `[0, n)` on `pool` if non-null, else
/// sequentially on the calling thread.
void maybe_parallel_for(ThreadPool* pool, std::size_t n,
                        const std::function<void(std::size_t)>& body);

/// Default pool size for entry points that opt into parallelism (the CLI
/// tuner, examples, benches): one worker per hardware thread beyond the
/// calling thread, so a pool of this size saturates the host without
/// oversubscribing it. 0 — i.e. a pool that runs everything inline — on
/// single-core hosts or when hardware_concurrency is unknown. Trajectories
/// do not depend on the pool size (root simulations are independent and
/// their results are merged in root order), so defaulting entry points to
/// this keeps runs reproducible across machines.
[[nodiscard]] std::size_t default_worker_count() noexcept;

/// The pure sizing rule behind default_worker_count(), exposed for tests:
/// `hw` is std::thread::hardware_concurrency()'s report. Returns hw - 1
/// for multi-core hosts, and 0 — a pool that runs everything inline on
/// the calling thread — both for single-core hosts (hw == 1) and when the
/// hardware concurrency is unknown (hw == 0, which the standard permits).
/// Consumers of a 0-worker pool (e.g. the bench's pooled_decision entry,
/// which records `workers`) therefore measure pool overhead rather than
/// scaling; tools/compare_bench.py skips such entries.
[[nodiscard]] constexpr std::size_t worker_count_for(unsigned hw) noexcept {
  return hw > 1 ? hw - 1 : 0;
}

}  // namespace lynceus::util
