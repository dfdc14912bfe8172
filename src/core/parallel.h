// Sharded campaign orchestration.
//
// A campaign's trace budget is divided into independent *shards*, each
// owning a deterministic RNG stream (util::Xoshiro256::split) and its own
// trace source; shard sinks accumulate partial state that is merged in
// shard order. Shards move trace data as columnar TraceBatches leased
// from a shared TraceBatchPool (core/trace_batch.h): with more shards
// than workers, the same few slabs cycle through successive shard jobs,
// so steady-state acquisition allocates nothing. Two knobs with distinct
// roles:
//
//   shards  determine the RESULT: campaign output is a pure function of
//           (seed, shard count). shards == 1 reproduces the sequential
//           pipeline bit-for-bit.
//   workers determine the EXECUTION: how many shard units run at once
//           (a campaign's `workers`, or a served job's fair budget). Any
//           value yields bit-identical results for a fixed shard count,
//           because per-shard work is self-contained and every merge
//           happens in shard order: TVLA sinks on the calling thread, GE
//           checkpoints on whichever thread extends their shard-order
//           chain (core::CheckpointReduction).
//
// Shard executor
// --------------
// Every shard fan-out in the repo runs on one executor,
// run_ordered_window, called from one function: the campaign loop
// core::run_sink_campaign (core/campaigns.h), which live campaigns,
// scenario runs and the bus daemon's replay and scenario jobs all
// share. One window per campaign runs two kinds of unit under one cap:
// the indexed shard units, then late units that the shards push as
// their input becomes ready, one CpaEngine::analyze unit per model of
// each GE checkpoint the moment its last shard folds it. Before starting
// each unit the window reads its cap, keeps at most that many units in
// flight on the process-wide persistent WorkerPool, and merges the
// indexed units strictly in index order on the calling thread, so merge
// order never depends on which pool thread finished first; late units
// merge nothing and finish in any order. A window whose units all sit
// unclaimed in the pool's queue runs one of them inline (steal-back),
// so it never deadlocks, even nested inside another window's unit. The
// pool starts empty and grows (never shrinks) to the largest cap any
// window asked for; its threads sleep between windows and are shared by
// every caller, so concurrent windows interleave their units in the
// pool's FIFO queue instead of queueing whole campaigns behind each
// other. Exceptions never cross the pool boundary: a failing unit is not
// merged, late units stop starting, and the lowest-indexed failure is
// rethrown on the calling thread once every started unit has finished.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace psc::core {

// Traces below which an extra shard stops paying for itself: each shard
// job owns a batch lease and a full set of accumulator merges, so auto
// shard sizing never cuts jobs smaller than this.
inline constexpr std::size_t min_traces_per_shard = 8192;

struct ShardPlan {
  std::size_t workers = 1;
  // 0 = one shard per worker.
  std::size_t shards = 0;

  std::size_t resolved_workers() const noexcept {
    return workers == 0 ? 1 : workers;
  }

  // Shard count sized to the workload: an explicit shard count always
  // wins (shards determine the result), but with shards == 0 the
  // campaign picks one shard per worker *capped so every shard job gets
  // at least min_traces_per_shard traces* — tiny runs stay on fewer
  // shards instead of paying per-shard lease/merge overhead that dwarfs
  // the work.
  std::size_t resolved_shards_for(std::size_t total_traces) const noexcept {
    if (shards != 0) {
      return shards;
    }
    const std::size_t w = resolved_workers();
    const std::size_t by_size = total_traces / min_traces_per_shard;
    return std::max<std::size_t>(1, std::min(w, by_size));
  }
};

// Process-wide persistent worker pool (see "Shard executor" above).
// run_ordered_window is the intended interface; the pool is public for
// the store's side jobs (the replay prefetcher's decodes, the writer's
// encode-ahead) and for tests and benches that assert on reuse.
class WorkerPool {
  struct AsyncJob;  // private; defined in parallel.cpp

 public:
  static WorkerPool& instance();

  // Handle to one post()ed job; redeem with finish(). Default tickets and
  // already-finished tickets are empty (finish() is a no-op on them).
  // Dropping a ticket without finish() leaves the job to run whenever a
  // pool thread gets to it, so its fn must own everything it touches.
  class AsyncTicket {
   public:
    AsyncTicket() = default;
    explicit operator bool() const noexcept { return job_ != nullptr; }

   private:
    friend class WorkerPool;
    std::shared_ptr<AsyncJob> job_;
  };

  // Enqueues one job for any idle pool thread: a shard unit of an
  // ordered window, or the async leg of a store pipeline (the replay
  // prefetcher decodes chunk N+1 here while the caller ingests chunk N;
  // the writer encodes full chunks here while the caller fills the next). fn must not throw; it runs exactly once,
  // on a pool thread or inline in finish().
  AsyncTicket post(std::function<void()> fn);

  // Waits until the ticket's job has run and empties the ticket. If no
  // pool thread has claimed the job yet it is stolen back and run inline
  // on the caller — so finish() never deadlocks, even when every pool
  // thread is busy with jobs that are themselves waiting on this one.
  // Returns true iff the job ran on a pool thread (the prefetcher's
  // async-hit statistic); false for inline execution or an empty ticket.
  bool finish(AsyncTicket& ticket);

  // The non-blocking half of finish(): if no pool thread has claimed the
  // ticket's job, runs it inline and empties the ticket. Returns whether
  // it did; a claimed, finished or empty ticket is left as it is.
  bool run_if_unclaimed(AsyncTicket& ticket);

  // Grows the pool to at least `threads` pool threads. post() alone only
  // guarantees one pool thread, so a window of W units (or a server
  // expecting N concurrent jobs, like the bus daemon) reserves its
  // concurrency target instead of having posted jobs queue behind each
  // other. Never shrinks; safe to call concurrently.
  void reserve(std::size_t threads);

  // Pool threads spawned so far (grow-only); exposed so tests can assert
  // the pool persists across campaigns.
  std::size_t thread_count() const;

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

 private:
  WorkerPool() = default;
  ~WorkerPool();

  void worker_loop();
  void ensure_threads(std::size_t threads);  // caller holds mu_

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // job posted or shutdown
  std::condition_variable async_cv_;  // a job completed
  std::vector<std::thread> threads_;
  std::deque<std::shared_ptr<AsyncJob>> async_jobs_;  // posted, unclaimed
  bool shutdown_ = false;
};

class LateUnits;

// The shard executor. Runs unit(i) for every i in [0, units) and
// merge(i) strictly in ascending i on the calling thread; with `late`,
// also every unit pushed there while the window runs, each after every
// indexed unit has started. cap() is read once before each unit starts
// and bounds the units in flight (values < 1 count as 1; values above
// the units known to remain count as that many); the pool grows to the
// cap, so a cap of W runs W units at once. A cap of 1, or a unit that is
// the only one left to run, runs inline on the caller without touching
// the pool. A unit that throws is not merged; once every started unit
// has finished, the exception of the lowest-indexed failing unit is
// rethrown, or else that of the first failing late unit. unit and late
// units run concurrently on pool threads; merge and cap only ever run on
// the caller.
void run_ordered_window(std::size_t units,
                        const std::function<std::size_t()>& cap,
                        const std::function<void(std::size_t)>& unit,
                        const std::function<void(std::size_t)>& merge,
                        LateUnits* late = nullptr);

// Work that joins a running window (see run_ordered_window) once its
// input is ready: the campaign loop pushes a GE checkpoint's analysis
// units from the shard whose fold makes the checkpoint final. Pushing
// never runs the unit, so a shard is not lengthened by what it unlocks.
// Late units queued after a unit of the window failed are dropped.
class LateUnits {
 public:
  // Thread-safe; call it only while the window runs, from its units.
  void push(std::function<void()> unit);

 private:
  friend void run_ordered_window(std::size_t,
                                 const std::function<std::size_t()>&,
                                 const std::function<void(std::size_t)>&,
                                 const std::function<void(std::size_t)>&,
                                 LateUnits*);

  // Guards the queue and the window's shared state; events_ counts
  // pushes and unit completions, and cv_ wakes the window's caller.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::size_t events_ = 0;
};

// Near-equal contiguous partition of `total` items into `shards` pieces:
// piece s gets total/shards items plus one of the first total%shards
// remainders. Sizes sum to exactly `total` — the property the checkpoint
// scheduler relies on: a global checkpoint at c traces partitions into
// per-shard targets shard_size(c, shards, s) that sum to exactly c.
std::size_t shard_size(std::size_t total, std::size_t shards,
                       std::size_t s) noexcept;
std::size_t shard_begin(std::size_t total, std::size_t shards,
                        std::size_t s) noexcept;

}  // namespace psc::core
