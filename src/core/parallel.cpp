#include "core/parallel.h"

#include <algorithm>
#include <chrono>
#include <exception>

namespace psc::core {

std::size_t shard_size(std::size_t total, std::size_t shards,
                       std::size_t s) noexcept {
  if (shards == 0 || s >= shards) {
    return 0;
  }
  return total / shards + (s < total % shards ? 1 : 0);
}

std::size_t shard_begin(std::size_t total, std::size_t shards,
                        std::size_t s) noexcept {
  if (shards == 0) {
    return 0;
  }
  // Clamp every out-of-range index (s >= shards) the same way, so
  // shard_begin(total, shards, shards) == total without relying on the
  // arithmetic below happening to cancel.
  s = std::min(s, shards);
  return s * (total / shards) + std::min(s, total % shards);
}

// One post()ed job. state transitions under mu_: queued -> running
// (claimed by a worker, or erased from the deque by a stealing finish())
// -> done. fn itself runs outside the lock.
struct WorkerPool::AsyncJob {
  enum State { queued, running, done };
  std::function<void()> fn;
  State state = queued;
};

WorkerPool& WorkerPool::instance() {
  static WorkerPool pool;
  return pool;
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

std::size_t WorkerPool::thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threads_.size();
}

void WorkerPool::reserve(std::size_t threads) {
  std::lock_guard<std::mutex> lock(mu_);
  ensure_threads(threads);
}

void WorkerPool::ensure_threads(std::size_t threads) {
  while (threads_.size() < threads) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

void WorkerPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return shutdown_ || !async_jobs_.empty(); });
    if (shutdown_) {
      return;
    }
    std::shared_ptr<AsyncJob> job = std::move(async_jobs_.front());
    async_jobs_.pop_front();
    job->state = AsyncJob::running;
    lock.unlock();
    job->fn();
    lock.lock();
    job->state = AsyncJob::done;
    async_cv_.notify_all();
  }
}

WorkerPool::AsyncTicket WorkerPool::post(std::function<void()> fn) {
  AsyncTicket ticket;
  ticket.job_ = std::make_shared<AsyncJob>();
  ticket.job_->fn = std::move(fn);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ensure_threads(1);
    async_jobs_.push_back(ticket.job_);
  }
  work_cv_.notify_one();
  return ticket;
}

bool WorkerPool::finish(AsyncTicket& ticket) {
  // Stealing an unclaimed job back is what makes finish() deadlock-free:
  // a caller that is itself a pool job (a nested window, a prefetching
  // shard unit) never blocks on a queue no thread can drain.
  if (!ticket || run_if_unclaimed(ticket)) {
    return false;
  }
  const std::shared_ptr<AsyncJob> job = std::move(ticket.job_);
  std::unique_lock<std::mutex> lock(mu_);
  async_cv_.wait(lock, [&] { return job->state == AsyncJob::done; });
  return true;
}

bool WorkerPool::run_if_unclaimed(AsyncTicket& ticket) {
  if (ticket.job_ == nullptr) {
    return false;
  }
  std::unique_lock<std::mutex> lock(mu_);
  const std::shared_ptr<AsyncJob>& job = ticket.job_;
  if (job->state != AsyncJob::queued) {
    return false;
  }
  async_jobs_.erase(std::find(async_jobs_.begin(), async_jobs_.end(), job));
  job->state = AsyncJob::running;
  lock.unlock();
  job->fn();
  lock.lock();
  job->state = AsyncJob::done;
  lock.unlock();
  ticket.job_.reset();
  return true;
}

void LateUnits::push(std::function<void()> unit) {
  std::lock_guard<std::mutex> lock(mu_);
  queue_.push_back(std::move(unit));
  ++events_;
  cv_.notify_all();
}

namespace {

// How long a window lets freshly posted units sit unclaimed before it
// runs one itself: long enough for a sleeping pool thread to wake, so
// the caller stays free to merge and post while the pool has room.
constexpr std::chrono::microseconds steal_grace{500};

}  // namespace

void run_ordered_window(std::size_t units,
                        const std::function<std::size_t()>& cap,
                        const std::function<void(std::size_t)>& unit,
                        const std::function<void(std::size_t)>& merge,
                        LateUnits* late) {
  LateUnits own;
  LateUnits& side = late != nullptr ? *late : own;
  WorkerPool& pool = WorkerPool::instance();

  // Shared with the units, under side.mu_.
  std::vector<char> done(units, 0);
  std::vector<std::exception_ptr> errors(units);
  std::exception_ptr late_error;
  bool failed = false;
  std::size_t claimed = 0;   // started on some thread, not finished
  std::size_t finished = 0;  // units finished so far

  // Caller only.
  std::size_t next = 0;     // next indexed unit to start
  std::size_t merged = 0;   // indexed units merged (or skipped) so far
  std::size_t started = 0;  // units started so far, of both kinds
  std::vector<WorkerPool::AsyncTicket> tickets;

  // Wraps unit i (i < units) or late unit `fn` for whichever thread runs
  // it; the completion is recorded and signalled under the lock, so the
  // caller never misses it.
  const auto wrap = [&](std::size_t i, std::function<void()> fn) {
    return [&, i, fn = std::move(fn)] {
      {
        std::lock_guard<std::mutex> lock(side.mu_);
        ++claimed;
        side.cv_.notify_all();
      }
      std::exception_ptr error;
      try {
        if (fn) {
          fn();
        } else {
          unit(i);
        }
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(side.mu_);
      --claimed;
      ++finished;
      if (fn) {
        late_error = late_error != nullptr ? late_error : error;
      } else {
        done[i] = 1;
        errors[i] = error;
      }
      failed = failed || error != nullptr;
      ++side.events_;
      side.cv_.notify_all();
    };
  };

  std::unique_lock<std::mutex> lock(side.mu_);
  // Sleeps until a unit finishes or a late unit is pushed. If every unit
  // in flight still sits unclaimed in the pool's queue after a grace
  // period, no pool thread may be free to take one, so one of them runs
  // here instead.
  const auto wait = [&] {
    const std::size_t seen = side.events_;
    if (claimed == 0 && started != finished &&
        !side.cv_.wait_for(lock, steal_grace, [&] {
          return side.events_ != seen || claimed != 0;
        })) {
      lock.unlock();
      bool stole = false;
      for (WorkerPool::AsyncTicket& ticket : tickets) {
        if (pool.run_if_unclaimed(ticket)) {
          stole = true;
          break;
        }
      }
      lock.lock();
      if (stole) {
        return;
      }
    }
    side.cv_.wait(lock, [&] { return side.events_ != seen; });
  };

  try {
    std::size_t width = 0;  // cap read for the next unit; 0 = unread
    for (;;) {
      while (merged < next && done[merged] != 0) {
        const std::size_t i = merged++;
        if (errors[i] == nullptr) {
          lock.unlock();
          merge(i);
          lock.lock();
        }
      }
      if (failed) {
        side.queue_.clear();
      }
      const std::size_t remaining = units - next + side.queue_.size();
      if (remaining == 0) {
        if (started == finished) {
          break;
        }
        wait();
        continue;
      }
      if (width == 0) {
        const std::size_t known = started - finished + remaining;
        lock.unlock();
        width = std::clamp<std::size_t>(cap(), 1, known);
        lock.lock();
      }
      if (started - finished >= width) {
        wait();
        continue;
      }
      std::function<void()> job;
      if (next < units) {
        job = wrap(next++, nullptr);
      } else {
        job = wrap(units, std::move(side.queue_.front()));
        side.queue_.pop_front();
      }
      ++started;
      lock.unlock();
      if (width == 1) {
        job();
      } else {
        pool.reserve(width);
        tickets.push_back(pool.post(std::move(job)));
      }
      lock.lock();
      width = 0;
    }
  } catch (...) {
    // merge or cap threw: no posted unit may outlive this frame.
    if (lock.owns_lock()) {
      lock.unlock();
    }
    for (WorkerPool::AsyncTicket& ticket : tickets) {
      pool.finish(ticket);
    }
    throw;
  }
  lock.unlock();
  // Every unit has finished; redeem the tickets so no job outlives the
  // frame that its function refers to.
  for (WorkerPool::AsyncTicket& ticket : tickets) {
    pool.finish(ticket);
  }
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }
  if (late_error != nullptr) {
    std::rethrow_exception(late_error);
  }
}

}  // namespace psc::core
