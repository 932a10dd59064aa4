#pragma once
// stash::par::ThreadPool — a deterministic thread pool.
//
// The pool itself is a conventional executor: one FIFO task queue shared by
// all workers.  Determinism comes from how the callers use it, and the pool
// supplies the two shapes that make deterministic parallelism easy:
//
//   * parallel_for(n, fn) / map<T>(n, fn): an *indexed* fan-out.  fn(i) may
//     run on any thread in any order, but result i lands in slot i, so a
//     caller that reduces the slots in index order produces output that is
//     byte-identical for any thread count — provided fn(i) itself is
//     deterministic and the iterations are independent (stash's benches get
//     this from per-trial chips and FlashChip's per-block RNG streams).
//   * threads <= 1 construct a pool with no workers at all: submit() and
//     parallel_for() execute inline on the caller, so `--threads 1` is
//     exactly the serial code path, not a one-worker approximation of it.
//
// Exceptions thrown by fn propagate: the first one (in completion order) is
// rethrown from parallel_for()/map() after all iterations finish.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "stash/trace/trace.hpp"

namespace stash::par {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 or 1 means "inline mode" (no workers,
  /// everything runs on the calling thread).
  explicit ThreadPool(unsigned threads = hardware_threads());

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins after draining: every task submitted before destruction runs.
  ~ThreadPool();

  /// Worker count (0 in inline mode).
  [[nodiscard]] unsigned threads() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  [[nodiscard]] static unsigned hardware_threads() noexcept {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
  }

  /// Enqueue fire-and-forget work (runs inline when threads() == 0).
  void submit(std::function<void()> fn);

  /// submit() with a future for the callable's result.
  template <typename Fn>
  auto async(Fn fn) -> std::future<std::invoke_result_t<Fn&>> {
    using R = std::invoke_result_t<Fn&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    auto fut = task->get_future();
    submit([task] { (*task)(); });
    return fut;
  }

  /// Run fn(i) for every i in [0, n), blocking until all complete.  The
  /// calling thread participates.  Iterations must be independent.
  ///
  /// Trace propagation: the caller's TraceContext is captured once and every
  /// iteration runs under its own ContextGuard — including on the inline
  /// path — so span identity inside fn(i) never depends on which thread (or
  /// how many) ran the iteration.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    const trace::TraceContext ctx = trace::current();
    auto run = [&fn, ctx](std::size_t i) {
      const trace::ContextGuard guard(ctx);
      fn(i);
    };
    if (threads() == 0 || n <= 1) {
      for (std::size_t i = 0; i < n; ++i) run(i);
      return;
    }
    struct Join {
      std::mutex mu;
      std::condition_variable cv;
      std::size_t live;
      std::exception_ptr err;
      explicit Join(std::size_t drivers) : live(drivers) {}
    };
    // One driver per worker (capped at n) plus the caller; each driver
    // claims indices from the shared cursor until the range is exhausted.
    const std::size_t helpers = std::min<std::size_t>(threads(), n) - 1;
    auto next = std::make_shared<std::atomic<std::size_t>>(0);
    auto join = std::make_shared<Join>(helpers);
    auto drive = [next, join, n, &run] {
      for (;;) {
        const std::size_t i = next->fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        try {
          run(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(join->mu);
          if (!join->err) join->err = std::current_exception();
        }
      }
    };
    for (std::size_t d = 0; d < helpers; ++d) {
      submit([join, drive] {
        drive();
        const std::lock_guard<std::mutex> lock(join->mu);
        if (--join->live == 0) join->cv.notify_all();
      });
    }
    drive();  // caller is a driver too
    std::unique_lock<std::mutex> lock(join->mu);
    join->cv.wait(lock, [&] { return join->live == 0; });
    if (join->err) std::rethrow_exception(join->err);
  }

  /// Indexed map: returns {fn(0), ..., fn(n-1)} with result i in slot i.
  /// T must be default-constructible and movable.
  template <typename T, typename Fn>
  std::vector<T> map(std::size_t n, Fn&& fn) {
    std::vector<T> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  bool stop_ = false;                        // guarded by mu_
  std::vector<std::thread> threads_;         // declared last: uses the above
};

}  // namespace stash::par
