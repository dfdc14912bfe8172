// Scenario jobs: live-acquisition campaigns the bus daemon serves by
// registry name (protocol v3's SUBMIT_SCENARIO).
//
// run_scenario_job is the single compute path, exactly as run_cpa_job
// is for dataset replays (bus/jobs.h): the daemon's job closure calls it
// under its fair shard budget, and in-process verification calls it
// directly. The result is a pure function of (scenario, params,
// traces_per_set, seed, shards) — the budget only changes how fast it
// arrives (tests/scenario asserts worker invariance), and shards = 0
// auto-sizes from the trace budget alone (resolved_job_shards clamped
// to the per-set size) — so a served job and a sequential local rerun
// match bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bus/jobs.h"
#include "scenario/runner.h"

namespace psc::bus {

// A scenario campaign request, addressable by registry name. Everything
// here is result-determining.
struct ScenarioJobSpec {
  std::string scenario;  // ScenarioRegistry::built_in() name
  // key=value overrides, validated against the scenario's ParamSpecs
  // (unknown keys and malformed values are rejected before the job is
  // accepted).
  std::vector<std::pair<std::string, std::string>> params;
  std::uint64_t traces_per_set = 0;  // 0 = the scenario's default
  std::uint64_t seed = 1;
  // 0 auto-sizes (see resolved_job_shards), clamped to traces_per_set.
  std::uint32_t shards = 0;
};

// The full runner result crosses the wire (TVLA matrices, CPA rankings
// and GE curves), so --verify-local can compare every double.
using ScenarioJobResult = scenario::ScenarioRunResult;

// Shard count `spec` resolves to: explicit wins verbatim, 0 auto-sizes
// over the 6 * traces_per_set acquisition budget and is clamped to the
// per-set size (shards slice per-set rows). Pure function of the spec,
// identical wherever the job runs.
std::uint32_t resolved_scenario_shards(const ScenarioJobSpec& spec,
                                       std::uint64_t traces_per_set) noexcept;

// Resolves the scenario in the built-in registry, parses params and runs
// the campaign loop. Throws std::invalid_argument for an unknown scenario
// name, malformed/out-of-range params, or an unsatisfiable shard count —
// the daemon's typed-error path. `exec` is execution only, exactly as
// for the dataset jobs (the chunk cache is unused: scenarios acquire
// live); it never shows in the result.
ScenarioJobResult run_scenario_job(const ScenarioJobSpec& spec,
                                   const JobProgressFn& progress = {},
                                   const JobExecOptions& exec = {});
// The same job on a constant budget of `workers` shard units.
ScenarioJobResult run_scenario_job(const ScenarioJobSpec& spec,
                                   const JobProgressFn& progress,
                                   std::size_t workers);

}  // namespace psc::bus
