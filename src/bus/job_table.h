// Session + job table of the bus daemon: tracks every submitted
// campaign job through queued -> running -> done/failed, enforces
// per-session in-flight quotas, and wakes watchers on any change.
//
// Quota accounting is the part the robustness tests lean on: a session's
// in-flight count is charged at submit and released exactly once when
// the job reaches a terminal state — even if the submitting client
// disconnected long before (mid-job disconnect must not leak the job
// slot, and the job itself runs to completion).
//
// Retention: a finished job's status and result stay fetchable by job id
// from any connection until retained_terminal_jobs later jobs have
// finished. The table then retires the oldest terminal job, so a
// long-running daemon holds a bounded number of results; queued and
// running jobs are never retired. A retired id answers like an unknown
// one.
//
// The table owns jobs as shared_ptr so worker-pool closures can hold a
// job across the daemon's lifetime edges; all mutable state is guarded
// by one mutex, with a single condition variable for watchers
// (wait_change) and the drain barrier (wait_idle).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bus/jobs.h"
#include "bus/protocol.h"

namespace psc::bus {

enum class JobKind : std::uint8_t { cpa, tvla, scenario };

// Terminal (done or failed) jobs the table keeps; see "Retention" above.
inline constexpr std::size_t retained_terminal_jobs = 256;

// One submitted campaign. Immutable identity fields are set at submit;
// everything mutable is written under JobTable::mu_.
struct Job {
  std::uint64_t id = 0;
  std::uint64_t session = 0;
  JobKind kind = JobKind::cpa;
  std::string dataset;  // empty for scenario jobs (live acquisition)
  CpaJobSpec cpa_spec;
  TvlaJobSpec tvla_spec;
  ScenarioJobSpec scenario_spec;

  JobState state = JobState::queued;
  std::uint64_t consumed = 0;
  std::uint64_t total = 0;
  // Shard-execution telemetry (STATS frame): resolved shard count,
  // units currently running, high-water running units, and the fair
  // in-flight cap last granted to this job.
  std::uint32_t shards = 0;
  std::uint32_t running_shards = 0;
  std::uint32_t peak_shards = 0;
  std::uint32_t shard_cap = 0;
  std::string error;
  // Set on done, by kind.
  std::unique_ptr<CpaJobResult> cpa_result;
  std::unique_ptr<TvlaJobResult> tvla_result;
  std::unique_ptr<ScenarioJobResult> scenario_result;
};

class JobTable {
 public:
  explicit JobTable(std::size_t per_session_quota)
      : quota_(per_session_quota) {}

  // Registers a job for `session`, charging its quota. Returns the job
  // id, or 0 when the session already has `quota` jobs in flight.
  // Scenario jobs carry no dataset; the other kinds leave `scenario`
  // defaulted.
  std::uint64_t submit(std::uint64_t session, JobKind kind,
                       std::string dataset, const CpaJobSpec& cpa,
                       const TvlaJobSpec& tvla,
                       const ScenarioJobSpec& scenario = {});

  // Point-in-time status copy; nullptr when the id is unknown.
  std::unique_ptr<JobStatusMsg> status(std::uint64_t id) const;

  // The job's shared handle (for the executor and result fetch);
  // nullptr when unknown.
  std::shared_ptr<Job> find(std::uint64_t id) const;

  // State transitions, called from the executing worker thread. Each
  // terminal transition (done/failed) releases the owning session's
  // quota slot exactly once and wakes all waiters.
  void mark_running(std::uint64_t id);
  // Monotonic: under shard-parallel execution progress reports arrive
  // out of order from pool threads, so only a larger `consumed` value
  // advances the watermark (watchers never see progress regress).
  void update_progress(std::uint64_t id, std::uint64_t consumed,
                       std::uint64_t total);
  // Records shard-unit activity on the job row (STATS frame); called
  // concurrently from unit threads as they start and finish.
  void update_shard_activity(std::uint64_t id, std::uint32_t shards,
                             std::uint32_t running);

  // Fair in-flight shard budget for job `id`: `parallelism` total units
  // split evenly across non-terminal jobs, never below 1. Every job
  // re-reads it before each shard unit is issued, so a running job's
  // window shrinks as new jobs arrive and regrows as others drain — the
  // piece that stops one huge job from starving small ones. The grant is
  // remembered on the job row for STATS.
  std::uint32_t shard_budget(std::uint64_t id, std::uint32_t parallelism);

  // Fills the scheduler half of a STATS frame: lifetime submit count,
  // active (non-terminal) count, and one row per non-terminal job in id
  // order.
  void fill_stats(StatsMsg& msg) const;
  void mark_done(std::uint64_t id, std::unique_ptr<CpaJobResult> cpa,
                 std::unique_ptr<TvlaJobResult> tvla,
                 std::unique_ptr<ScenarioJobResult> scenario = nullptr);
  void mark_failed(std::uint64_t id, const std::string& error);

  // Blocks until the job's (state, consumed) differs from the caller's
  // last observation or `timeout` elapses; returns the fresh status
  // (nullptr for unknown id). The watch loop's building block.
  std::unique_ptr<JobStatusMsg> wait_change(std::uint64_t id,
                                            JobState seen_state,
                                            std::uint64_t seen_consumed,
                                            std::chrono::milliseconds timeout)
      const;

  // Blocks until no job is queued or running — the graceful-shutdown
  // drain barrier.
  void wait_idle() const;

  // In-flight (queued + running) jobs charged to `session`.
  std::size_t in_flight(std::uint64_t session) const;

  std::size_t job_count() const;

 private:
  // Releases the job's quota slot, records it as terminal and retires
  // the oldest terminal jobs beyond retained_terminal_jobs.
  void finish_locked(Job& job);

  const std::size_t quota_;
  mutable std::mutex mu_;
  mutable std::condition_variable change_cv_;
  std::uint64_t next_id_ = 1;
  std::uint64_t submitted_ = 0;
  std::size_t active_ = 0;  // non-terminal jobs (fair-share denominator)
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::unordered_map<std::uint64_t, std::size_t> in_flight_;
  std::deque<std::uint64_t> terminal_;  // retained terminal ids, oldest first
};

}  // namespace psc::bus
