// JobTable: quota charge/release accounting (the slot must release
// exactly once per job, no matter who disconnects when), bounded
// retention of finished jobs, watcher wake-ups, and the wait_idle drain
// barrier — including a multithreaded hammer that TSan checks for races.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "bus/job_table.h"

namespace psc::bus {
namespace {

using namespace std::chrono_literals;

std::uint64_t submit(JobTable& table, std::uint64_t session) {
  return table.submit(session, JobKind::cpa, "ds", CpaJobSpec{},
                      TvlaJobSpec{});
}

TEST(JobTable, QuotaChargedPerSessionAndReleasedOnTerminal) {
  JobTable table(2);
  const std::uint64_t a1 = submit(table, 1);
  const std::uint64_t a2 = submit(table, 1);
  EXPECT_NE(a1, 0u);
  EXPECT_NE(a2, 0u);
  EXPECT_NE(a1, a2);
  // Session 1 is full; session 2 is untouched.
  EXPECT_EQ(submit(table, 1), 0u);
  EXPECT_NE(submit(table, 2), 0u);
  EXPECT_EQ(table.in_flight(1), 2u);
  EXPECT_EQ(table.in_flight(2), 1u);

  // done releases; failed releases.
  table.mark_done(a1, std::make_unique<CpaJobResult>(), nullptr);
  EXPECT_EQ(table.in_flight(1), 1u);
  EXPECT_NE(submit(table, 1), 0u);
  table.mark_failed(a2, "boom");
  EXPECT_EQ(table.in_flight(1), 1u);
}

TEST(JobTable, TerminalTransitionReleasesExactlyOnce) {
  JobTable table(1);
  const std::uint64_t id = submit(table, 7);
  ASSERT_NE(id, 0u);
  table.mark_done(id, std::make_unique<CpaJobResult>(), nullptr);
  // Every further transition on a terminal job is a no-op: no double
  // release, no state change, no error overwrite.
  table.mark_failed(id, "late failure");
  table.mark_done(id, std::make_unique<CpaJobResult>(), nullptr);
  EXPECT_EQ(table.in_flight(7), 0u);
  const auto status = table.status(id);
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->state, JobState::done);
  EXPECT_TRUE(status->error.empty());

  // The freed slot is usable exactly once (quota 1).
  EXPECT_NE(submit(table, 7), 0u);
  EXPECT_EQ(submit(table, 7), 0u);
}

TEST(JobTable, StatusTracksProgressAndResultsStayFetchable) {
  JobTable table(4);
  const std::uint64_t id = submit(table, 1);
  table.mark_running(id);
  table.update_progress(id, 100, 400);
  auto status = table.status(id);
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->state, JobState::running);
  EXPECT_EQ(status->consumed, 100u);
  EXPECT_EQ(status->total, 400u);

  auto result = std::make_unique<CpaJobResult>();
  result->traces = 400;
  table.mark_done(id, std::move(result), nullptr);
  status = table.status(id);
  EXPECT_EQ(status->state, JobState::done);
  EXPECT_EQ(status->consumed, status->total);  // done implies fully consumed

  const std::shared_ptr<Job> job = table.find(id);
  ASSERT_NE(job, nullptr);
  ASSERT_NE(job->cpa_result, nullptr);
  EXPECT_EQ(job->cpa_result->traces, 400u);
  EXPECT_EQ(table.status(999), nullptr);
  EXPECT_EQ(table.find(999), nullptr);
}

// The table keeps only the most recent retained_terminal_jobs finished
// jobs: older ones are retired oldest first and then read as unknown,
// newer results stay fetchable, and a queued job is never retired no
// matter how many jobs finish after it.
TEST(JobTable, RetiresOldestTerminalJobsBeyondTheCap) {
  constexpr std::size_t extra = 10;
  JobTable table(1);
  const std::uint64_t queued = submit(table, 0);
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < retained_terminal_jobs + extra; ++i) {
    const std::uint64_t id = submit(table, 1);
    ASSERT_NE(id, 0u);
    ids.push_back(id);
    auto result = std::make_unique<CpaJobResult>();
    result->traces = id;
    if (i % 3 == 0) {
      table.mark_failed(id, "induced");
    } else {
      table.mark_done(id, std::move(result), nullptr);
    }
    EXPECT_LE(table.job_count(), retained_terminal_jobs + 1);
  }
  EXPECT_EQ(table.job_count(), retained_terminal_jobs + 1);
  for (std::size_t i = 0; i < extra; ++i) {
    EXPECT_EQ(table.status(ids[i]), nullptr) << "job " << ids[i];
    EXPECT_EQ(table.find(ids[i]), nullptr) << "job " << ids[i];
  }
  for (std::size_t i = extra; i < ids.size(); ++i) {
    const std::shared_ptr<Job> job = table.find(ids[i]);
    ASSERT_NE(job, nullptr) << "job " << ids[i];
    if (job->state == JobState::done) {
      ASSERT_NE(job->cpa_result, nullptr);
      EXPECT_EQ(job->cpa_result->traces, ids[i]);
    }
  }
  const auto status = table.status(queued);
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->state, JobState::queued);
  EXPECT_EQ(table.in_flight(1), 0u);
}

TEST(JobTable, WaitChangeWakesOnProgressFromAnotherThread) {
  JobTable table(4);
  const std::uint64_t id = submit(table, 1);
  std::thread worker([&] {
    std::this_thread::sleep_for(20ms);
    table.update_progress(id, 50, 100);
  });
  // Generous timeout: the wake must come from the update, not expiry.
  const auto status = table.wait_change(id, JobState::queued, 0, 5s);
  worker.join();
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->consumed, 50u);

  // Unknown ids are reported as such, not waited on.
  EXPECT_EQ(table.wait_change(999, JobState::queued, 0, 1ms), nullptr);
}

TEST(JobTable, WaitIdleBlocksUntilAllJobsTerminal) {
  JobTable table(8);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(submit(table, 1));
  }
  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    table.wait_idle();
    drained.store(true);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(drained.load());  // jobs still queued
  table.mark_done(ids[0], std::make_unique<CpaJobResult>(), nullptr);
  table.mark_failed(ids[1], "x");
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(drained.load());  // one job left
  table.mark_done(ids[2], std::make_unique<CpaJobResult>(), nullptr);
  drainer.join();
  EXPECT_TRUE(drained.load());
}

// TSan target: many threads submit, progress, finish and watch at once.
TEST(JobTable, ConcurrentSubmittersAndFinishersStayConsistent) {
  constexpr std::size_t sessions = 4;
  constexpr std::size_t jobs_per_session = 25;
  JobTable table(2);  // tight quota: submits contend with releases
  std::atomic<std::size_t> completed{0};

  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      std::size_t done = 0;
      while (done < jobs_per_session) {
        const std::uint64_t id = submit(table, s);
        if (id == 0) {
          std::this_thread::yield();  // quota full: wait for a release
          continue;
        }
        table.mark_running(id);
        table.update_progress(id, 1, 2);
        if (done % 2 == 0) {
          table.mark_done(id, std::make_unique<CpaJobResult>(), nullptr);
        } else {
          table.mark_failed(id, "induced");
        }
        ++done;
        completed.fetch_add(1);
      }
    });
  }
  std::thread watcher([&] {
    while (completed.load() < sessions * jobs_per_session) {
      table.job_count();
      table.in_flight(0);
      table.wait_change(1, JobState::queued, 0, 1ms);
    }
  });
  for (auto& t : threads) {
    t.join();
  }
  watcher.join();

  table.wait_idle();  // everything terminal -> returns immediately
  EXPECT_EQ(table.job_count(), sessions * jobs_per_session);
  for (std::size_t s = 0; s < sessions; ++s) {
    EXPECT_EQ(table.in_flight(s), 0u) << "leaked quota slot, session " << s;
  }
}

}  // namespace
}  // namespace psc::bus
