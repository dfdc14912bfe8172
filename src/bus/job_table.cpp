#include "bus/job_table.h"

#include <algorithm>
#include <utility>

namespace psc::bus {

namespace {

JobStatusMsg status_of(const Job& job) {
  JobStatusMsg msg;
  msg.id = job.id;
  msg.state = job.state;
  msg.consumed = job.consumed;
  msg.total = job.total;
  msg.running_shards = job.running_shards;
  msg.error = job.error;
  return msg;
}

}  // namespace

std::uint64_t JobTable::submit(std::uint64_t session, JobKind kind,
                               std::string dataset, const CpaJobSpec& cpa,
                               const TvlaJobSpec& tvla,
                               const ScenarioJobSpec& scenario) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t& in_flight = in_flight_[session];
  if (in_flight >= quota_) {
    return 0;
  }
  ++in_flight;
  ++submitted_;
  ++active_;
  auto job = std::make_shared<Job>();
  job->id = next_id_++;
  job->session = session;
  job->kind = kind;
  job->dataset = std::move(dataset);
  job->cpa_spec = cpa;
  job->tvla_spec = tvla;
  job->scenario_spec = scenario;
  jobs_.emplace(job->id, job);
  change_cv_.notify_all();
  return job->id;
}

std::unique_ptr<JobStatusMsg> JobTable::status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return nullptr;
  }
  return std::make_unique<JobStatusMsg>(status_of(*it->second));
}

std::shared_ptr<Job> JobTable::find(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

void JobTable::mark_running(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it != jobs_.end() && it->second->state == JobState::queued) {
    it->second->state = JobState::running;
    change_cv_.notify_all();
  }
}

void JobTable::update_progress(std::uint64_t id, std::uint64_t consumed,
                               std::uint64_t total) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it != jobs_.end()) {
    Job& job = *it->second;
    if (consumed > job.consumed) {
      job.consumed = consumed;
    }
    job.total = total;
    change_cv_.notify_all();
  }
}

void JobTable::update_shard_activity(std::uint64_t id, std::uint32_t shards,
                                     std::uint32_t running) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return;
  }
  Job& job = *it->second;
  job.shards = shards;
  job.running_shards = running;
  job.peak_shards = std::max(job.peak_shards, running);
}

std::uint32_t JobTable::shard_budget(std::uint64_t id,
                                     std::uint32_t parallelism) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint32_t share = static_cast<std::uint32_t>(
      parallelism / std::max<std::size_t>(1, active_));
  const std::uint32_t cap = std::max<std::uint32_t>(1, share);
  const auto it = jobs_.find(id);
  if (it != jobs_.end()) {
    it->second->shard_cap = cap;
  }
  return cap;
}

void JobTable::fill_stats(StatsMsg& msg) const {
  std::lock_guard<std::mutex> lock(mu_);
  msg.jobs_submitted = submitted_;
  msg.jobs_active = active_;
  for (const auto& [id, job] : jobs_) {
    if (is_terminal(job->state)) {
      continue;
    }
    msg.jobs.push_back({job->id, job->state, job->shards, job->shard_cap,
                        job->running_shards, job->peak_shards});
  }
  std::sort(msg.jobs.begin(), msg.jobs.end(),
            [](const StatsMsg::JobRow& a, const StatsMsg::JobRow& b) {
              return a.id < b.id;
            });
}

void JobTable::mark_done(std::uint64_t id, std::unique_ptr<CpaJobResult> cpa,
                         std::unique_ptr<TvlaJobResult> tvla,
                         std::unique_ptr<ScenarioJobResult> scenario) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || is_terminal(it->second->state)) {
    return;
  }
  Job& job = *it->second;
  job.state = JobState::done;
  job.cpa_result = std::move(cpa);
  job.tvla_result = std::move(tvla);
  job.scenario_result = std::move(scenario);
  job.consumed = job.total;
  finish_locked(job);
}

void JobTable::mark_failed(std::uint64_t id, const std::string& error) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || is_terminal(it->second->state)) {
    return;
  }
  Job& job = *it->second;
  job.state = JobState::failed;
  job.error = error;
  finish_locked(job);
}

std::unique_ptr<JobStatusMsg> JobTable::wait_change(
    std::uint64_t id, JobState seen_state, std::uint64_t seen_consumed,
    std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return nullptr;
  }
  const std::shared_ptr<Job> job = it->second;
  change_cv_.wait_for(lock, timeout, [&] {
    return job->state != seen_state || job->consumed != seen_consumed;
  });
  return std::make_unique<JobStatusMsg>(status_of(*job));
}

void JobTable::wait_idle() const {
  std::unique_lock<std::mutex> lock(mu_);
  change_cv_.wait(lock, [&] { return active_ == 0; });
}

std::size_t JobTable::in_flight(std::uint64_t session) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = in_flight_.find(session);
  return it == in_flight_.end() ? 0 : it->second;
}

std::size_t JobTable::job_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_.size();
}

void JobTable::finish_locked(Job& job) {
  job.running_shards = 0;
  --active_;
  const auto slot = in_flight_.find(job.session);
  if (slot != in_flight_.end() && slot->second > 0) {
    if (--slot->second == 0) {
      in_flight_.erase(slot);
    }
  }
  terminal_.push_back(job.id);
  while (terminal_.size() > retained_terminal_jobs) {
    jobs_.erase(terminal_.front());
    terminal_.pop_front();
  }
  change_cv_.notify_all();
}

}  // namespace psc::bus
