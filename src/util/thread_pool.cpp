#include "util/thread_pool.hpp"

#include <atomic>
#include <exception>

namespace lynceus::util {

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    RangeSection* sec = nullptr;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] {
        return stop_ || !tasks_.empty() || sections_head_ != nullptr;
      });
      if (stop_ && tasks_.empty() && sections_head_ == nullptr) return;
      if (sections_head_ != nullptr) {
        // Sections are latency-critical inner fan-outs (a simulate() call
        // is blocked on them); serve them before queued tasks. The hold
        // count is raised under the pool mutex, so the section's owner can
        // wait for holders to drain after unlinking before reusing it.
        sec = sections_head_;
        sec->holders_.fetch_add(1, std::memory_order_relaxed);
      } else {
        task = std::move(tasks_.front());
        tasks_.pop();
      }
    }
    if (sec != nullptr) {
      // Claim exactly one part per grab, then return to the wait loop: a
      // worker never touches a section it does not freshly hold, which is
      // what makes caller-side reuse (after holders drain) safe.
      const std::size_t part =
          sec->next_part_.fetch_add(1, std::memory_order_relaxed);
      if (part < sec->parts_) {
        run_one_part(*sec, part);
      } else {
        std::lock_guard lock(mutex_);
        unlink_section(*sec);
      }
      // Drop the hold and notify *while holding the section mutex*: the
      // owner's wait predicate reads holders_ under this mutex, so it
      // cannot observe holders_ == 0 and return (allowing the section to
      // be reused or destroyed) until this worker's last touch of the
      // section — the unlock below — has completed.
      {
        std::lock_guard lk(sec->mutex_);
        sec->holders_.fetch_sub(1, std::memory_order_release);
        sec->cv_.notify_all();
      }
    } else {
      task();
    }
  }
}

void ThreadPool::run_one_part(RangeSection& s, std::size_t part) noexcept {
  const std::size_t begin = part * s.n_ / s.parts_;
  const std::size_t end = (part + 1) * s.n_ / s.parts_;
  try {
    s.body_(s.ctx_, part, begin, end);
  } catch (...) {
    std::lock_guard lk(s.mutex_);
    if (!s.first_error_) s.first_error_ = std::current_exception();
  }
  s.done_.fetch_add(1, std::memory_order_acq_rel);
}

void ThreadPool::unlink_section(RangeSection& s) noexcept {
  if (!s.listed_) return;
  RangeSection** link = &sections_head_;
  RangeSection* prev = nullptr;
  while (*link != nullptr && *link != &s) {
    prev = *link;
    link = &(*link)->next_;
  }
  if (*link == &s) {
    *link = s.next_;
    if (sections_tail_ == &s) sections_tail_ = prev;
  }
  s.next_ = nullptr;
  s.listed_ = false;
}

void ThreadPool::parallel_ranges(RangeSection& s, std::size_t n,
                                 std::size_t max_parts, RangeBody body,
                                 void* ctx) {
  if (n == 0 || body == nullptr) return;
  std::size_t parts = std::min(max_parts, n);
  parts = std::min(parts, threads_.size() + 1);
  if (parts <= 1 || threads_.empty()) {
    body(ctx, 0, 0, n);
    return;
  }
  s.n_ = n;
  s.parts_ = parts;
  s.body_ = body;
  s.ctx_ = ctx;
  s.next_part_.store(0, std::memory_order_relaxed);
  s.done_.store(0, std::memory_order_relaxed);
  s.first_error_ = nullptr;
  {
    std::lock_guard lock(mutex_);
    s.next_ = nullptr;
    s.listed_ = true;
    if (sections_tail_ != nullptr) {
      sections_tail_->next_ = &s;
    } else {
      sections_head_ = &s;
    }
    sections_tail_ = &s;
  }
  cv_.notify_all();

  // The calling thread participates until every part is claimed — the
  // section therefore completes even if no worker ever picks it up.
  for (;;) {
    const std::size_t part =
        s.next_part_.fetch_add(1, std::memory_order_relaxed);
    if (part >= parts) break;
    run_one_part(s, part);
  }
  {
    std::lock_guard lock(mutex_);
    unlink_section(s);
  }
  // Wait for outstanding parts *and* for every worker still holding the
  // section to let go — after this the section object is free for reuse.
  {
    std::unique_lock lk(s.mutex_);
    s.cv_.wait(lk, [&] {
      return s.done_.load(std::memory_order_acquire) == parts &&
             s.holders_.load(std::memory_order_acquire) == 0;
    });
  }
  if (s.first_error_) {
    const std::exception_ptr e = s.first_error_;
    s.first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (threads_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Helper tasks may still be dequeued *after* this call returns (a worker
  // can pop a task once all indices are already claimed), so everything
  // they touch lives in a shared control block, not on this stack frame.
  // Such late tasks observe next >= n and exit without calling the body.
  struct Control {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t n = 0;
    std::function<void(std::size_t)> body;
    std::exception_ptr first_error;
    std::mutex mutex;
    std::condition_variable done_cv;
  };
  auto ctl = std::make_shared<Control>();
  ctl->n = n;
  ctl->body = body;

  auto drain = [ctl] {
    for (;;) {
      const std::size_t i = ctl->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= ctl->n) break;
      try {
        ctl->body(i);
      } catch (...) {
        std::lock_guard lock(ctl->mutex);
        if (!ctl->first_error) ctl->first_error = std::current_exception();
      }
      if (ctl->done.fetch_add(1, std::memory_order_acq_rel) + 1 == ctl->n) {
        std::lock_guard lock(ctl->mutex);
        ctl->done_cv.notify_all();
      }
    }
  };

  const std::size_t helpers = std::min(threads_.size(), n - 1);
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < helpers; ++i) tasks_.push(drain);
  }
  cv_.notify_all();

  drain();  // The calling thread participates.

  {
    std::unique_lock lock(ctl->mutex);
    ctl->done_cv.wait(lock, [&] {
      return ctl->done.load(std::memory_order_acquire) >= ctl->n;
    });
  }
  // Take the exception out of the control block before rethrowing: a late
  // helper may drop the block's last reference on a worker thread, and the
  // exception object must not be released there while this caller's
  // handler is still reading it. With several callers sharing one pool,
  // helpers routinely start late.
  if (std::exception_ptr error = std::move(ctl->first_error)) {
    std::rethrow_exception(error);
  }
}

void maybe_parallel_for(ThreadPool* pool, std::size_t n,
                        const std::function<void(std::size_t)>& body) {
  if (pool != nullptr) {
    pool->parallel_for(n, body);
  } else {
    for (std::size_t i = 0; i < n; ++i) body(i);
  }
}

std::size_t default_worker_count() noexcept {
  return worker_count_for(std::thread::hardware_concurrency());
}

}  // namespace lynceus::util
