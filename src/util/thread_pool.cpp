#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mdo::util {

namespace {

/// The pool a worker thread belongs to; null on external threads.
thread_local const ThreadPool* t_worker_pool = nullptr;

/// The pool this thread is currently running a parallel_for batch on (as
/// the submitting caller). A re-entrant parallel_for from inside a loop
/// body executed by the caller thread must run inline: re-acquiring the
/// non-recursive submit_mutex would self-deadlock.
thread_local const ThreadPool* t_submitting_pool = nullptr;

/// Restores t_submitting_pool on scope exit (including exceptions).
struct SubmitScope {
  explicit SubmitScope(const ThreadPool* pool) { t_submitting_pool = pool; }
  ~SubmitScope() { t_submitting_pool = nullptr; }
};

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

struct ThreadPool::State {
  std::vector<std::thread> workers;

  std::mutex mutex;
  std::condition_variable work_cv;   // workers wait for a new batch
  std::condition_variable done_cv;   // caller waits for batch completion
  bool stop = false;

  // One batch at a time; `submit_mutex` serializes external callers.
  std::mutex submit_mutex;
  std::uint64_t batch_id = 0;        // bumped per batch, under `mutex`
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t end = 0;
  std::atomic<std::size_t> next{0};
  std::size_t chunk = 1;
  std::size_t busy_workers = 0;      // workers still inside the batch
  std::size_t started_workers = 0;   // workers that reached worker_loop

  std::mutex error_mutex;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(std::size_t threads)
    : num_threads_(threads < 1 ? 1 : threads), state_(new State) {
  state_->workers.reserve(num_threads_ - 1);
  for (std::size_t i = 0; i + 1 < num_threads_; ++i) {
    state_->workers.emplace_back([this] { worker_loop(); });
  }
  // Return only once every worker is parked in worker_loop: a thread still
  // inside its start-up code may hold runtime-internal locks (the sanitizer
  // runtimes' thread registries), and a fork() taken then — the shard
  // coordinator forks its workers — would hand the child a lock nobody
  // releases.
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->done_cv.wait(lock, [&] {
    return state_->started_workers == state_->workers.size();
  });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->stop = true;
  }
  state_->work_cv.notify_all();
  for (auto& worker : state_->workers) worker.join();
  delete state_;
}

bool ThreadPool::on_worker_thread() const { return t_worker_pool == this; }

void ThreadPool::run_range(std::size_t begin, std::size_t end,
                           const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = begin; i < end; ++i) fn(i);
}

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    ++state_->started_workers;
  }
  state_->done_cv.notify_all();
  std::uint64_t seen_batch = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t end = 0;
    std::size_t chunk = 1;
    {
      std::unique_lock<std::mutex> lock(state_->mutex);
      state_->work_cv.wait(lock, [&] {
        return state_->stop || state_->batch_id != seen_batch;
      });
      if (state_->stop) return;
      seen_batch = state_->batch_id;
      fn = state_->fn;
      // A worker that woke after its batch drained (the caller finished the
      // range alone, waited for busy_workers == 0, and cleared `fn`) must
      // not enter the chunk loop at all: its `end` would be stale, and a
      // subsequent batch resetting `next` could hand it bogus indices.
      if (fn == nullptr) continue;
      ++state_->busy_workers;
      end = state_->end;
      chunk = state_->chunk;
    }
    // While busy_workers > 0 the caller cannot return, so `fn`, `end`, and
    // the functor behind `fn` stay alive for the whole chunk loop.
    for (;;) {
      const std::size_t lo = state_->next.fetch_add(chunk);
      if (lo >= end) break;
      const std::size_t hi = std::min(end, lo + chunk);
      try {
        run_range(lo, hi, *fn);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(state_->error_mutex);
          if (!state_->error) state_->error = std::current_exception();
        }
        state_->next.store(end);  // cancel the rest of the batch
      }
    }
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      --state_->busy_workers;
    }
    state_->done_cv.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  // Nested submission is rejected (it could deadlock a fixed pool): a
  // parallel_for issued from a worker of this pool, or re-entrantly from
  // the thread already driving a batch on this pool, runs the range inline.
  // Only the outermost level is parallel.
  if (num_threads_ <= 1 || on_worker_thread() || t_submitting_pool == this ||
      end - begin == 1) {
    run_range(begin, end, fn);
    return;
  }

  std::lock_guard<std::mutex> submit_lock(state_->submit_mutex);
  const SubmitScope submit_scope(this);
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->fn = &fn;
    state_->end = end;
    state_->next.store(begin);
    // Chunks small enough to balance, large enough to amortize the atomic.
    state_->chunk =
        std::max<std::size_t>(1, (end - begin) / (4 * num_threads_));
    state_->error = nullptr;
    ++state_->batch_id;
  }
  state_->work_cv.notify_all();

  // The caller participates in its own batch.
  const std::size_t chunk = state_->chunk;
  for (;;) {
    const std::size_t lo = state_->next.fetch_add(chunk);
    if (lo >= end) break;
    const std::size_t hi = std::min(end, lo + chunk);
    try {
      run_range(lo, hi, fn);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(state_->error_mutex);
        if (!state_->error) state_->error = std::current_exception();
      }
      state_->next.store(end);  // cancel the rest of the batch
    }
  }
  {
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->done_cv.wait(lock, [&] { return state_->busy_workers == 0; });
    state_->fn = nullptr;
  }
  if (state_->error) std::rethrow_exception(state_->error);
}

std::size_t ThreadPool::configured_threads() {
#ifndef MDO_DEFAULT_THREADS
#define MDO_DEFAULT_THREADS 0
#endif
  std::size_t threads = MDO_DEFAULT_THREADS;
  if (const char* env = std::getenv("MDO_THREADS")) {
    char* parse_end = nullptr;
    const unsigned long parsed = std::strtoul(env, &parse_end, 10);
    if (parse_end != env && *parse_end == '\0') {
      threads = static_cast<std::size_t>(parsed);
    }
  }
  if (threads == 0) threads = hardware_threads();
  return threads;
}

namespace {
std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;
}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(configured_threads());
  }
  return *g_global_pool;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  g_global_pool = std::make_unique<ThreadPool>(
      threads == 0 ? configured_threads() : threads);
}

void ThreadPool::reset_global_after_fork() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  // Leak on purpose: the pool's threads died with the fork and joining them
  // would hang. The child is expected to _exit(), so the leak is invisible.
  (void)g_global_pool.release();
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  ThreadPool::global().parallel_for(begin, end, fn);
}

}  // namespace mdo::util
