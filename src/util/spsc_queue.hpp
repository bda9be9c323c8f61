#pragma once

/// \file spsc_queue.hpp
/// A bounded lock-free single-producer/single-consumer ring buffer for the
/// point-to-point lanes of the network front-end (src/net/): each
/// transport thread owns exactly one request lane into each service-loop
/// shard and each shard owns one completion lane back, so every lane has
/// one writer and one reader by construction and no cursor needs a CAS.
///
/// Design: classic Lamport ring with cached cursors. The producer owns
/// `tail_` and keeps a private copy of the consumer's `head_` (refreshed
/// only when the ring looks full); the consumer mirrors that with `tail_`.
/// In steady state a push is one relaxed load, one store, one release
/// store — no shared-line ping-pong until the ring actually fills or
/// drains.
///
/// Properties:
///   * `try_push` / `try_pop` are wait-free; neither blocks nor allocates
///     after construction.
///   * Strict FIFO (single producer, single consumer — there is no race to
///     order).
///   * Bounded: `try_push` returns false when full (the value is only
///     moved from on success), `try_pop` returns false when empty.
///   * `size()` is approximate under concurrency — monitoring only.
///
/// Thread-safety contract: at most ONE thread may call try_push/size
/// concurrently, and at most ONE thread may call try_pop concurrently.
/// Distinct queues are fully independent. Violating the single-writer /
/// single-reader rule is a data race.
///
/// `Backoff` below is the polite spin helper the lanes' poll loops share.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

namespace lynceus::util {

/// Destructive-interference distance for cursor padding. A constant 64
/// rather than std::hardware_destructive_interference_size: the standard
/// value is an ABI hazard GCC warns about (-Winterference-size), and 64
/// is correct for every target this builds on.
inline constexpr std::size_t kCacheLineSize = 64;

template <typename T>
class SpscQueue {
 public:
  using value_type = T;

  /// Builds a ring holding at most `capacity` elements (rounded up to the
  /// next power of two so index arithmetic is a mask). Capacity must be
  /// >= 1.
  explicit SpscQueue(std::size_t capacity)
      : capacity_(round_up_pow2(capacity)),
        mask_(capacity_ - 1),
        cells_(std::make_unique<T[]>(capacity_)) {
    if (capacity == 0) {
      throw std::invalid_argument("SpscQueue: capacity must be >= 1");
    }
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Enqueues by move. Returns false (leaving `value` untouched) when the
  /// ring is full. Producer thread only.
  bool try_push(T&& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity_) {
      // Ring looks full against the cached head — refresh from the
      // consumer's published cursor before giving up.
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity_) return false;
    }
    cells_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    // High-water tracking, producer-side. The cached head gives a free
    // occupancy *upper bound*; only when that bound would raise the
    // watermark is the consumer's real cursor loaded to confirm — so
    // steady state pays one compare on producer-local values and the
    // cached-cursor design keeps its no-ping-pong property.
    const std::uint64_t occ_bound = tail + 1 - head_cache_;
    if (occ_bound > high_water_.load(std::memory_order_relaxed)) {
      const std::uint64_t occ =
          tail + 1 - head_.load(std::memory_order_relaxed);
      if (occ > high_water_.load(std::memory_order_relaxed)) {
        high_water_.store(occ, std::memory_order_relaxed);
      }
    }
    return true;
  }

  bool try_push(const T& value) {
    T copy = value;
    return try_push(std::move(copy));
  }

  /// Dequeues into `out`. Returns false when the ring is empty. Consumer
  /// thread only.
  bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head >= tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head >= tail_cache_) return false;
    }
    out = std::move(cells_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// True when there is nothing to pop. Consumer thread only — this is
  /// the cheap lane probe behind the transport/shard armed-doorbell
  /// sleep (arm, re-check every lane with empty(), then block).
  [[nodiscard]] bool empty() const noexcept {
    return head_.load(std::memory_order_relaxed) >=
           tail_.load(std::memory_order_acquire);
  }

  /// Approximate occupancy (racy snapshot of both cursors).
  [[nodiscard]] std::size_t size() const noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

  /// Highest occupancy ever observed at a push (monitoring; the
  /// saturation signal behind TuningServer's per-lane stats). Updated
  /// by the producer, readable from any thread.
  [[nodiscard]] std::size_t high_water() const noexcept {
    return static_cast<std::size_t>(
        high_water_.load(std::memory_order_relaxed));
  }

 private:
  static std::size_t round_up_pow2(std::size_t n) noexcept {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<T[]> cells_;
  /// Producer-owned line: tail cursor + cached consumer head.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;
  /// Producer-updated watermark (see high_water()); off the hot lines.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> high_water_{0};
  /// Consumer-owned line: head cursor + cached producer tail.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
};

/// One fair pass of a consumer over `lanes` queues: pops at most one item
/// from each lane, in index order, and hands it to `serve`. `lane_at(i)`
/// returns the i-th queue; every lane holds the same value type. Returns
/// whether any lane had an item. Called until it returns false, it serves
/// pre-filled lanes alternately, so a saturated lane cannot starve the
/// others, and each lane stays FIFO. The pass constructs one pop target,
/// whatever the lane count, so an idle pass costs one default value.
template <typename LaneAt, typename Serve>
bool serve_round_robin(std::size_t lanes, LaneAt&& lane_at, Serve&& serve) {
  typename std::remove_reference_t<decltype(lane_at(std::size_t{0}))>::
      value_type item;
  bool any = false;
  for (std::size_t i = 0; i < lanes; ++i) {
    if (lane_at(i).try_pop(item)) {
      any = true;
      serve(item);
    }
  }
  return any;
}

/// Polite spin for poll loops over the lanes: a few pause-style hot spins,
/// then yields to the OS scheduler so an oversubscribed host still makes
/// progress. Reset it after useful work.
class Backoff {
 public:
  void spin() noexcept {
    if (count_ < kHotSpins) {
      ++count_;
      for (int i = 0; i < (1 << count_); ++i) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#else
        std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
      }
      return;
    }
    std::this_thread::yield();
  }

  void reset() noexcept { count_ = 0; }

 private:
  static constexpr int kHotSpins = 6;
  int count_ = 0;
};

}  // namespace lynceus::util
