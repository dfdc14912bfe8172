// Executes a registered scenario through the generic sink campaign
// (core::run_sink_campaign): TVLA over every channel, plus CPA/GE when
// the scenario's analysis spec binds the AES leakage models over its
// cpa_keys. Results are a pure function of (scenario, params,
// traces_per_set, seed, shards) — any worker count is bit-identical at a
// given shard count — which is what lets the bus daemon serve scenario
// jobs that psc_busctl can re-verify locally.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/campaigns.h"
#include "scenario/scenario.h"

namespace psc::scenario {

struct ScenarioRunConfig {
  // Traces per (class, collection); 0 = the scenario's analysis default.
  std::size_t traces_per_set = 0;
  // GE checkpoints over the CPA stream (ignored for TVLA-only scenarios).
  std::vector<std::size_t> checkpoints{};
  std::uint64_t seed = 1;
  // Execution only: `workers` shard units run at a time, unless
  // exec.shard_budget is set (a served job's fair cap, re-read before
  // each unit).
  std::size_t workers = 1;
  // Result-determining; 0 = one per worker, sized to the workload
  // (core::ShardPlan::resolved_shards_for), so an unset count ties the
  // result to `workers`. Served jobs and scenario_runner resolve 0 with
  // bus::resolved_scenario_shards instead, which reads the trace budget
  // alone.
  std::size_t shards = 0;
  core::ShardExecution exec{};
  core::CampaignProgressFn progress{};
  // Tee the acquisition to a PSTR trace store (store::RecordingSink).
  // Recording requires shards == 1 and workers == 1: one writer, one
  // deterministic stream. Empty = no recording.
  std::string record_path{};
};

struct ScenarioRunResult {
  std::string scenario;
  aes::Block secret{};
  std::size_t traces_per_set = 0;
  std::size_t cpa_trace_count = 0;
  std::vector<util::FourCc> channels;
  // Cross-class leakage channels the scenario expects to light up.
  std::vector<util::FourCc> leakage_channels;
  std::vector<core::TvlaChannelResult> tvla;  // one per channel
  std::vector<core::CpaKeyResult> cpa;        // empty for TVLA-only

  // Largest cross-class |t| over `channels` restricted to
  // leakage_channels — the scalar the scenario bench gates on.
  double max_cross_class_t() const noexcept;
};

ScenarioRunResult run_scenario(const Scenario& scenario,
                               const ParamSet& params,
                               const ScenarioRunConfig& config);

// Convenience: resolve `name` in the built-in registry and parse
// `params` against its specs. Throws std::invalid_argument for an
// unknown scenario or malformed params (the bus daemon's typed-error
// path).
ScenarioRunResult run_scenario(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& params,
    const ScenarioRunConfig& config);

}  // namespace psc::scenario
