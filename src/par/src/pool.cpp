#include "stash/par/pool.hpp"

namespace stash::par {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads <= 1) return;  // inline mode: no workers, submit() runs now
  threads_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  if (threads_.empty()) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // Workers exit only once the queue is empty, so every task submitted
  // before destruction runs.
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> fn) {
  if (threads_.empty()) {
    fn();
    return;
  }
  // Carry the submitter's trace context to whichever worker runs the task,
  // so causality survives the thread handoff.
  if (trace::enabled()) {
    const trace::TraceContext ctx = trace::current();
    if (ctx.active()) {
      fn = [ctx, inner = std::move(fn)] {
        const trace::ContextGuard guard(ctx);
        inner();
      };
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // the task (and its captures) dies before the next wait
  }
}

}  // namespace stash::par
