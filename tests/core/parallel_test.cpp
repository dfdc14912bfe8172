#include "core/parallel.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/campaigns.h"
#include "core/guessing_entropy.h"

namespace psc::core {
namespace {

// fn(i) for every i in [0, units), on the ordered window with a constant
// cap; results in index order.
template <typename Fn>
auto window_map(std::size_t units, std::size_t cap, Fn fn) {
  std::vector<decltype(fn(std::size_t{0}))> out(units);
  run_ordered_window(
      units, [cap] { return cap; }, [&](std::size_t i) { out[i] = fn(i); },
      [](std::size_t) {});
  return out;
}

TEST(ShardPartition, SizesSumToTotalAndDifferByAtMostOne) {
  for (const std::size_t total : {0u, 1u, 7u, 100u, 1001u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 8u, 13u}) {
      std::size_t sum = 0;
      std::size_t lo = total;
      std::size_t hi = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t size = shard_size(total, shards, s);
        EXPECT_EQ(shard_begin(total, shards, s), sum);
        sum += size;
        lo = std::min(lo, size);
        hi = std::max(hi, size);
      }
      EXPECT_EQ(sum, total) << total << "/" << shards;
      EXPECT_LE(hi - lo, 1u) << total << "/" << shards;
      EXPECT_EQ(shard_begin(total, shards, shards), total);
    }
  }
}

TEST(ShardPartition, CheckpointPartitionsAreMonotone) {
  // A shard's target for checkpoint c never decreases with c — the
  // invariant the segment scheduler needs to advance shard engines.
  constexpr std::size_t shards = 5;
  for (std::size_t s = 0; s < shards; ++s) {
    std::size_t prev = 0;
    for (std::size_t c = 0; c <= 100; ++c) {
      const std::size_t target = shard_size(c, shards, s);
      EXPECT_GE(target, prev);
      prev = target;
    }
  }
}

// Satellite: boundary behaviour — fewer items than shards, and the
// degenerate shards == 0 plan.
TEST(ShardPartition, TotalSmallerThanShardCount) {
  constexpr std::size_t total = 3;
  constexpr std::size_t shards = 8;
  std::size_t sum = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t size = shard_size(total, shards, s);
    EXPECT_EQ(size, s < total ? 1u : 0u) << "shard " << s;
    EXPECT_EQ(shard_begin(total, shards, s), sum) << "shard " << s;
    sum += size;
  }
  EXPECT_EQ(sum, total);
  EXPECT_EQ(shard_begin(total, shards, shards), total);
}

TEST(ShardPartition, ZeroShardsIsEmpty) {
  EXPECT_EQ(shard_size(100, 0, 0), 0u);
  EXPECT_EQ(shard_size(100, 0, 5), 0u);
  EXPECT_EQ(shard_begin(100, 0, 0), 0u);
  EXPECT_EQ(shard_begin(100, 0, 5), 0u);
}

// shard_begin clamps every out-of-range index the same way: s == shards
// and s > shards both land on total, matching shard_size returning 0
// there.
TEST(ShardPartition, BeginClampsPastTheEnd) {
  for (const std::size_t total : {0u, 3u, 100u, 1001u}) {
    for (const std::size_t shards : {1u, 3u, 8u}) {
      EXPECT_EQ(shard_begin(total, shards, shards), total);
      EXPECT_EQ(shard_begin(total, shards, shards + 1), total);
      EXPECT_EQ(shard_begin(total, shards, shards + 1000), total);
      EXPECT_EQ(shard_size(total, shards, shards), 0u);
      EXPECT_EQ(shard_size(total, shards, shards + 1000), 0u);
    }
  }
}

TEST(ShardPlan, Resolution) {
  EXPECT_EQ(ShardPlan{}.resolved_workers(), 1u);
  EXPECT_EQ((ShardPlan{.workers = 0}).resolved_workers(), 1u);
  EXPECT_EQ((ShardPlan{.workers = 4}).resolved_workers(), 4u);
  EXPECT_EQ((ShardPlan{.workers = 0, .shards = 0}).resolved_shards_for(
                100 * min_traces_per_shard),
            1u);
}

TEST(ShardPlan, AutoShardsSizeToWorkload) {
  // An explicit shard count always wins — shards determine the result.
  EXPECT_EQ((ShardPlan{.workers = 4, .shards = 9}).resolved_shards_for(10),
            9u);
  // Large workloads: one shard per worker.
  EXPECT_EQ((ShardPlan{.workers = 4}).resolved_shards_for(
                4 * min_traces_per_shard),
            4u);
  EXPECT_EQ((ShardPlan{.workers = 4}).resolved_shards_for(1'000'000), 4u);
  // Small workloads: capped so every shard job still amortizes its
  // lease/merge overhead; never below one shard.
  EXPECT_EQ((ShardPlan{.workers = 4}).resolved_shards_for(
                2 * min_traces_per_shard),
            2u);
  EXPECT_EQ((ShardPlan{.workers = 4}).resolved_shards_for(100), 1u);
  EXPECT_EQ((ShardPlan{.workers = 4}).resolved_shards_for(0), 1u);
  EXPECT_EQ((ShardPlan{.workers = 1}).resolved_shards_for(1'000'000), 1u);
}

// ---------- persistent worker pool ----------

// The pool persists across windows: helper threads spawned by the first
// multi-unit window are reused, not respawned, by later windows.
TEST(WorkerPool, ThreadsPersistAcrossWindows) {
  window_map(8, 4, [](std::size_t s) { return s; });
  const std::size_t after_first = WorkerPool::instance().thread_count();
  EXPECT_GE(after_first, 4u);  // the pool grows to the cap; grow-only
  for (int round = 0; round < 5; ++round) {
    const auto out = window_map(8, 4, [](std::size_t s) { return s * s; });
    for (std::size_t s = 0; s < out.size(); ++s) {
      EXPECT_EQ(out[s], s * s);
    }
    EXPECT_EQ(WorkerPool::instance().thread_count(), after_first);
  }
}

// ---------- the ordered window (run_ordered_window) ----------

// Every shard runs exactly once per window, across many back-to-back
// windows on the shared pool (the reuse path a campaign sweep exercises).
TEST(OrderedWindow, EachUnitRunsExactlyOncePerMap) {
  for (int round = 0; round < 20; ++round) {
    constexpr std::size_t jobs = 16;
    std::array<std::atomic<int>, jobs> hits{};
    window_map(jobs, 4, [&](std::size_t s) {
      return hits[s].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t s = 0; s < jobs; ++s) {
      ASSERT_EQ(hits[s].load(), 1) << "round " << round << " job " << s;
    }
  }
}

// A window from inside a unit posts its own units to the same pool and
// drains them with steal-back, so it completes even when every pool
// thread is busy running the outer window.
TEST(OrderedWindow, NestedMapInsideAUnitCompletes) {
  std::array<std::atomic<int>, 4> outer_hits{};
  std::atomic<int> inner_total{0};
  const auto sums = window_map(4, 4, [&](std::size_t s) {
    outer_hits[s].fetch_add(1, std::memory_order_relaxed);
    const auto parts = window_map(3, 4, [&](std::size_t t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
      return 10 * s + t;
    });
    return std::accumulate(parts.begin(), parts.end(), std::size_t{0});
  });
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(outer_hits[s].load(), 1);
    EXPECT_EQ(sums[s], 30 * s + 3);
  }
  EXPECT_EQ(inner_total.load(), 12);
}

// The cap is re-read before each unit is posted: once it shrinks, no
// later unit ever runs next to more units than the cap it was posted
// under, and a cap of 1 runs units inline on the caller. merge runs on
// the caller in ascending order and skips failed units; the
// lowest-indexed failure is rethrown after every unit ran.
TEST(OrderedWindow, ShrinkingCapBoundsInFlightAndMergesInOrder) {
  constexpr std::size_t units = 12;
  const auto cap_for = [](std::size_t i) -> std::size_t {
    return i < 4 ? 4 : i < 8 ? 2 : 1;
  };
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t cap_reads = 0;
  std::atomic<std::size_t> running{0};
  std::array<std::size_t, units> seen{};
  std::array<std::thread::id, units> ran_on{};
  std::array<std::atomic<int>, units> hits{};
  std::vector<std::size_t> merged;
  try {
    run_ordered_window(
        units, [&] { return cap_for(cap_reads++); },
        [&](std::size_t i) {
          seen[i] = running.fetch_add(1) + 1;
          ran_on[i] = std::this_thread::get_id();
          hits[i].fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          running.fetch_sub(1);
          if (i == 3 || i == 9) {
            throw std::runtime_error("unit " + std::to_string(i));
          }
        },
        [&](std::size_t i) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          merged.push_back(i);
        });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "unit 3");
  }
  EXPECT_EQ(cap_reads, units);
  for (std::size_t i = 0; i < units; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "unit " << i;
    EXPECT_LE(seen[i], cap_for(i)) << "unit " << i;
    if (cap_for(i) == 1) {
      EXPECT_EQ(ran_on[i], caller) << "unit " << i;
    }
  }
  EXPECT_EQ(merged,
            (std::vector<std::size_t>{0, 1, 2, 4, 5, 6, 7, 8, 10, 11}));
}

// reserve() pre-spawns pool threads so N posted jobs can run truly
// concurrently (post() alone only guarantees one thread) — the bus
// daemon's startup contract.
TEST(WorkerPool, ReserveGrowsThePoolUpFront) {
  WorkerPool::instance().reserve(3);
  EXPECT_GE(WorkerPool::instance().thread_count(), 3u);
  const std::size_t after = WorkerPool::instance().thread_count();
  // Never shrinks, and re-reserving a smaller count is a no-op.
  WorkerPool::instance().reserve(1);
  EXPECT_EQ(WorkerPool::instance().thread_count(), after);

  // Reserved threads actually serve posted jobs.
  std::atomic<int> hits{0};
  std::vector<WorkerPool::AsyncTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(WorkerPool::instance().post(
        [&] { hits.fetch_add(1, std::memory_order_relaxed); }));
  }
  for (auto& ticket : tickets) {
    WorkerPool::instance().finish(ticket);
  }
  EXPECT_EQ(hits.load(), 8);
}

// The campaign progress hook reports every consumed trace exactly once,
// cumulatively across shards, and observing progress does not change the
// campaign's result.
TEST(CampaignProgress, CountsEveryTraceAndLeavesResultsUntouched) {
  LiveCampaignConfig config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space()},
      .protocol = CampaignProtocol::random_stream,
      .traces = 4000,
      .keys = {smc::FourCc("PHPC")},
      .models = {power::PowerModel::rd0_hw},
      .seed = 17,
      .workers = 2,
      .shards = 2,
  };
  const auto plain = run_live_campaign(config);

  std::atomic<std::size_t> high_water{0};
  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> reported_total{0};
  config.progress = [&](std::size_t consumed, std::size_t total) {
    // Cross-shard calls may arrive out of order: track the max.
    std::size_t seen = high_water.load(std::memory_order_relaxed);
    while (consumed > seen &&
           !high_water.compare_exchange_weak(seen, consumed,
                                             std::memory_order_relaxed)) {
    }
    calls.fetch_add(1, std::memory_order_relaxed);
    reported_total.store(total, std::memory_order_relaxed);
  };
  const auto observed = run_live_campaign(config);

  EXPECT_EQ(high_water.load(), config.traces);
  EXPECT_EQ(reported_total.load(), config.traces);
  EXPECT_GE(calls.load(), 2u);  // at least one call per shard
  ASSERT_EQ(observed.cpa.size(), plain.cpa.size());
  EXPECT_EQ(observed.cpa[0].final_results[0].true_ranks,
            plain.cpa[0].final_results[0].true_ranks);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t g = 0; g < 256; ++g) {
      ASSERT_EQ(observed.cpa[0].final_results[0].bytes[i].correlation[g],
                plain.cpa[0].final_results[0].bytes[i].correlation[g]);
    }
  }
}

// ---------- async side jobs (post/finish) ----------

TEST(WorkerPoolAsync, PostedJobRunsExactlyOnce) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> hits{0};
    auto ticket = WorkerPool::instance().post(
        [&] { hits.fetch_add(1, std::memory_order_relaxed); });
    WorkerPool::instance().finish(ticket);
    EXPECT_EQ(hits.load(), 1) << "round " << round;
    EXPECT_FALSE(static_cast<bool>(ticket));  // redeemed tickets empty
    // finish() on an empty ticket is a harmless no-op.
    EXPECT_FALSE(WorkerPool::instance().finish(ticket));
  }
}

TEST(WorkerPoolAsync, ManyOutstandingJobsAllComplete) {
  constexpr std::size_t jobs = 64;
  std::array<std::atomic<int>, jobs> hits{};
  std::vector<WorkerPool::AsyncTicket> tickets;
  tickets.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    tickets.push_back(WorkerPool::instance().post(
        [&hits, i] { hits[i].fetch_add(1, std::memory_order_relaxed); }));
  }
  for (auto& ticket : tickets) {
    WorkerPool::instance().finish(ticket);
  }
  for (std::size_t i = 0; i < jobs; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "job " << i;
  }
}

// finish() from inside a window's unit steals unclaimed work back and
// runs it inline — the property that makes prefetch-inside-sharded-
// replay deadlock-free even when every pool thread is busy with units.
TEST(OrderedWindow, PostAndFinishInsideAUnitNeverDeadlock) {
  constexpr std::size_t shards = 8;
  std::array<std::atomic<int>, shards> hits{};
  window_map(shards, 4, [&](std::size_t s) {
    auto ticket = WorkerPool::instance().post(
        [&hits, s] { hits[s].fetch_add(1, std::memory_order_relaxed); });
    WorkerPool::instance().finish(ticket);
    return s;
  });
  for (std::size_t s = 0; s < shards; ++s) {
    ASSERT_EQ(hits[s].load(), 1) << "shard " << s;
  }
}

// Async jobs posted while a window is in flight share the pool's queue
// with its units: both complete, and the window still runs every shard
// once.
TEST(OrderedWindow, AsyncJobsInterleaveWithAMap) {
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> async_hits{0};
    auto ticket = WorkerPool::instance().post(
        [&] { async_hits.fetch_add(1, std::memory_order_relaxed); });
    constexpr std::size_t jobs = 8;
    std::array<std::atomic<int>, jobs> hits{};
    window_map(jobs, 4, [&](std::size_t s) {
      return hits[s].fetch_add(1, std::memory_order_relaxed);
    });
    WorkerPool::instance().finish(ticket);
    EXPECT_EQ(async_hits.load(), 1) << "round " << round;
    for (std::size_t s = 0; s < jobs; ++s) {
      ASSERT_EQ(hits[s].load(), 1) << "round " << round << " job " << s;
    }
  }
}

// ---------- campaign-level invariance ----------

// The headline guarantee of the sharded pipeline: for a fixed shard count,
// the worker count is pure execution detail — recovered key bytes,
// true-rank vectors, correlations and GE curves are bit-identical.
TEST(ParallelCpaCampaign, WorkerCountDoesNotChangeResults) {
  LiveCampaignConfig config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space()},
      .protocol = CampaignProtocol::random_stream,
      .traces = 24000,
      .keys = {smc::FourCc("PHPC")},
      .models = {power::PowerModel::rd0_hw},
      .checkpoints = {8000},
      .seed = 91,
      .workers = 1,
      .shards = 4,
  };
  const auto serial = run_live_campaign(config);
  config.workers = 4;
  const auto parallel = run_live_campaign(config);

  EXPECT_EQ(serial.secret, parallel.secret);
  ASSERT_EQ(serial.cpa.size(), parallel.cpa.size());
  const auto& a = serial.cpa[0];
  const auto& b = parallel.cpa[0];
  ASSERT_EQ(a.curves[0].size(), b.curves[0].size());
  for (std::size_t p = 0; p < a.curves[0].size(); ++p) {
    EXPECT_EQ(a.curves[0][p].traces, b.curves[0][p].traces);
    EXPECT_DOUBLE_EQ(a.curves[0][p].ge_bits, b.curves[0][p].ge_bits);
    EXPECT_DOUBLE_EQ(a.curves[0][p].mean_rank, b.curves[0][p].mean_rank);
    EXPECT_EQ(a.curves[0][p].recovered_bytes, b.curves[0][p].recovered_bytes);
  }
  EXPECT_EQ(a.final_results[0].true_ranks, b.final_results[0].true_ranks);
  EXPECT_EQ(a.final_results[0].best_round_key,
            b.final_results[0].best_round_key);
  for (std::size_t i = 0; i < 16; ++i) {
    for (int g = 0; g < 256; ++g) {
      ASSERT_DOUBLE_EQ(
          a.final_results[0].bytes[i].correlation[static_cast<std::size_t>(g)],
          b.final_results[0].bytes[i].correlation[static_cast<std::size_t>(g)])
          << "byte " << i << " guess " << g;
    }
  }
}

TEST(ParallelTvlaCampaign, WorkerCountDoesNotChangeResults) {
  LiveCampaignConfig config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space(),
                 .include_pcpu = true},
      .traces = 1500,
      .seed = 92,
      .workers = 1,
      .shards = 3,
  };
  const auto serial = run_live_campaign(config);
  config.workers = 3;
  const auto parallel = run_live_campaign(config);

  ASSERT_EQ(serial.tvla.size(), parallel.tvla.size());
  for (std::size_t c = 0; c < serial.tvla.size(); ++c) {
    EXPECT_EQ(serial.tvla[c].channel, parallel.tvla[c].channel);
    for (const PlaintextClass row : all_plaintext_classes) {
      for (const PlaintextClass col : all_plaintext_classes) {
        ASSERT_DOUBLE_EQ(serial.tvla[c].matrix.score(row, col),
                         parallel.tvla[c].matrix.score(row, col))
            << serial.tvla[c].channel;
      }
    }
  }
}

// Sharding changes the exact trace streams but must not change the
// statistical outcome: a sharded campaign still extracts the key material
// a sequential campaign does.
TEST(ParallelCpaCampaign, ShardedCampaignStillConverges) {
  LiveCampaignConfig config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space()},
      .protocol = CampaignProtocol::random_stream,
      .traces = 40000,
      .keys = {smc::FourCc("PHPC")},
      .models = {power::PowerModel::rd0_hw},
      .checkpoints = {10000},
      .seed = 13,
      .workers = 2,
      .shards = 8,
  };
  const auto result = run_live_campaign(config);
  const auto& curve = result.cpa[0].curves[0];
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_GT(curve[0].ge_bits, curve[1].ge_bits);
  EXPECT_LT(curve[1].ge_bits, random_guess_ge_bits() - 5.0);
}

TEST(ParallelTvlaCampaign, ShardedCampaignStillDetectsLeakage) {
  LiveCampaignConfig config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space(),
                 .include_pcpu = true},
      .traces = 2000,
      .seed = 11,
      .workers = 2,
      .shards = 4,
  };
  const auto result = run_live_campaign(config);
  const auto* phpc = result.find_tvla("PHPC");
  const auto* phps = result.find_tvla("PHPS");
  const auto* pcpu = result.find_tvla("PCPU");
  ASSERT_NE(phpc, nullptr);
  ASSERT_NE(phps, nullptr);
  ASSERT_NE(pcpu, nullptr);
  EXPECT_GE(std::abs(phpc->matrix.score(PlaintextClass::all_zeros,
                                        PlaintextClass::all_ones)),
            util::tvla_threshold);
  EXPECT_TRUE(phps->matrix.no_data_dependence());
  EXPECT_TRUE(pcpu->matrix.no_data_dependence());
}

// Default plan (workers = 1, shards = 0) must resolve to the sequential
// single-shard pipeline, i.e. exactly the pre-sharding campaign behaviour
// covered by campaigns_test.
TEST(ParallelCpaCampaign, DefaultPlanIsSingleShard) {
  LiveCampaignConfig explicit_config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space()},
      .protocol = CampaignProtocol::random_stream,
      .traces = 6000,
      .keys = {smc::FourCc("PHPC")},
      .models = {power::PowerModel::rd0_hw},
      .seed = 93,
      .workers = 1,
      .shards = 1,
  };
  LiveCampaignConfig default_config = explicit_config;
  default_config.shards = 0;
  const auto a = run_live_campaign(explicit_config);
  const auto b = run_live_campaign(default_config);
  EXPECT_EQ(a.cpa[0].final_results[0].true_ranks,
            b.cpa[0].final_results[0].true_ranks);
  for (std::size_t i = 0; i < 16; ++i) {
    for (int g = 0; g < 256; ++g) {
      ASSERT_DOUBLE_EQ(
          a.cpa[0].final_results[0].bytes[i]
              .correlation[static_cast<std::size_t>(g)],
          b.cpa[0].final_results[0].bytes[i]
              .correlation[static_cast<std::size_t>(g)]);
    }
  }
}

}  // namespace
}  // namespace psc::core
