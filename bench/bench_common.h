// Shared helpers for the experiment-reproduction binaries. Each binary
// regenerates one table or figure of the paper and prints the measured
// result next to the published reference.
//
// Scale control:
//   PSC_QUICK=1     cut trace counts ~10x for smoke runs
//   PSC_TRACES=N    override the CPA trace count explicitly
//   PSC_SEED=N      change the campaign seed
//   PSC_WORKERS=N   threads for the sharded campaign pipeline (default 1)
//   PSC_SHARDS=N    shard count (default: 8 when PSC_WORKERS > 1, else 1;
//                   results are a pure function of seed + shards, so any
//                   worker count reproduces the same numbers for a fixed
//                   shard count, and shards=1 matches the sequential run)
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "util/env.h"

namespace psc::bench {

inline std::size_t scaled(std::size_t paper_scale) {
  const std::size_t traces =
      util::env_size("PSC_TRACES", util::env_flag("PSC_QUICK")
                                       ? paper_scale / 10
                                       : paper_scale);
  return traces == 0 ? 1 : traces;
}

inline std::uint64_t bench_seed() {
  return util::env_size("PSC_SEED", 42);
}

inline std::size_t bench_workers() {
  const std::size_t workers = util::env_size("PSC_WORKERS", 1);
  return workers == 0 ? 1 : workers;
}

inline std::size_t bench_shards() {
  return util::env_size("PSC_SHARDS", bench_workers() > 1 ? 8 : 1);
}

// Sets a campaign's `workers` / `shards` pair (a core::LiveCampaignConfig
// or scenario::ScenarioRunConfig) from PSC_WORKERS / PSC_SHARDS.
// Announces any non-sequential plan: a shard count > 1 replaces the
// sequential RNG stream with the per-shard partition, so the numbers
// differ from (while statistically matching) a sequential run.
inline void apply_parallel_env(std::size_t& workers, std::size_t& shards) {
  workers = bench_workers();
  shards = bench_shards();
  if (workers > 1 || shards > 1) {
    std::cout << "parallel plan: " << workers << " worker(s), " << shards
              << " shard(s) — results reproduce for this "
              << "(seed, shards) pair under any worker count\n";
  }
}

inline void banner(const std::string& experiment_id,
                   const std::string& description) {
  std::cout << "================================================================\n"
            << experiment_id << ": " << description << "\n"
            << "================================================================\n";
}

inline void note(const std::string& text) {
  std::cout << "note: " << text << "\n";
}

}  // namespace psc::bench
