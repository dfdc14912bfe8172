// Campaign jobs the bus daemon executes over shared mmap'd datasets.
//
// run_cpa_job / run_tvla_job are the single compute path for a campaign
// over a recorded PSTR dataset: a served job is a closure that calls one
// of them and encodes the result frame, and in-process verification
// (`psc_busctl submit --verify-local`, the ctest bit-identity suite)
// calls the same functions directly. Each one validates its spec and runs the campaign
// loop, core::run_sink_campaign, with a replay source factory: shard s
// replays its rows through a store::FileTraceSource of its own. A job
// result is a pure function of (dataset bytes, spec): shards accumulate
// self-contained sink state that merges strictly in shard order, so the
// identical spec yields bit-identical doubles wherever — and on however
// many threads — it runs. Shards determine the RESULT; JobExecOptions
// determine only the EXECUTION:
//
//   - Without a shard budget (the default, and the --verify-local path)
//     shards run sequentially on the calling thread.
//   - With one, up to budget() shard units run concurrently on the
//     worker pool and merge incrementally, so at most ~budget shard
//     engines are alive. The budget is re-read before each unit is
//     issued, which is how the daemon's fair scheduler shrinks a running
//     job's window when new jobs arrive.
//
// CPA replay reads rows [0, trace_count) as one random-plaintext stream
// (the campaign loop's random_stream protocol), shard s taking its
// contiguous core::shard_size slice.
//
// TVLA replay labeling: a PSTR file carries no (class, collection)
// labels, so TVLA-over-file assumes the dataset was recorded in TVLA
// protocol order — six equal consecutive sets, unprimed collections of
// (all-0s, all-1s, random) then the primed three, exactly the order the
// campaign loop's tvla_sets protocol acquires (scenario_runner --record
// writes it). Set k of N/6 rows is labeled
// (class k % 3, primed = k >= 3), and shard s replays its slice of the
// first traces_per_set rows of every set.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aes/aes128.h"
#include "core/campaigns.h"
#include "core/cpa.h"
#include "core/tvla.h"
#include "power/hypothetical.h"
#include "store/shared_mapping.h"

namespace psc::store {
class ChunkCache;  // store/chunk_cache.h
}

namespace psc::bus {

// Progress hook: (traces consumed so far, traces total). `consumed` is
// aggregated across shard units, so under a shard budget the hook may be
// invoked concurrently from pool threads and values may arrive out of
// order; the largest value seen is the true watermark.
using JobProgressFn =
    std::function<void(std::uint64_t consumed, std::uint64_t total)>;

// Auto-sizing cap for spec.shards == 0. The resolved shard count is
// result-determining, so the policy must be a pure function of the trace
// count — never of worker availability, or the daemon and an in-process
// verification run could resolve different counts and mismatch. A job
// therefore auto-sizes to core::min_traces_per_shard-sized shards capped
// at this fixed constant.
inline constexpr std::uint32_t auto_shard_cap = 16;

// Shard count a spec value of `spec_shards` resolves to over
// `total_traces` traces: an explicit count wins verbatim; 0 auto-sizes
// as documented on auto_shard_cap. Identical wherever the job runs.
std::uint32_t resolved_job_shards(std::uint32_t spec_shards,
                                  std::uint64_t total_traces) noexcept;

// Execution knobs — how a job runs, never what it computes: the campaign
// loop's shard hooks (core::ShardExecution — a null shard_budget runs
// every unit sequentially on the calling thread, touching no pool state)
// plus the decoded-chunk cache the shard readers share (null = every
// reader decodes privately).
struct JobExecOptions : core::ShardExecution {
  std::shared_ptr<store::ChunkCache> chunk_cache;
};

struct CpaJobSpec {
  std::uint32_t channel = 0;  // FourCC code of the attacked column
  aes::Block known_key{};     // victim key, for ranking/GE
  std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};
  std::uint64_t trace_count = 0;  // 0 = every recorded trace
  // Result-determining; 0 auto-sizes (see resolved_job_shards).
  std::uint32_t shards = 0;
};

struct CpaJobResult {
  std::uint64_t traces = 0;
  // One entry per spec model, in spec order.
  std::vector<core::ModelResult> models;
};

struct TvlaJobSpec {
  std::uint64_t traces_per_set = 0;  // 0 = trace_count / 6
  // Result-determining; 0 auto-sizes (see resolved_job_shards), further
  // clamped to traces_per_set.
  std::uint32_t shards = 0;
};

struct TvlaJobResult {
  std::uint64_t traces_per_set = 0;
  // One entry per dataset channel, in column order.
  std::vector<core::TvlaChannelResult> channels;
};

// Runs CPA over the dataset: feeds the spec's trace budget (sharded,
// merged in shard order) into one CpaEngine and analyzes every spec
// model against the known key. Throws std::invalid_argument on a spec
// the dataset cannot satisfy (unknown channel, trace_count or shards
// beyond the data).
CpaJobResult run_cpa_job(std::shared_ptr<const store::SharedMapping> dataset,
                         const CpaJobSpec& spec,
                         const JobProgressFn& progress = {},
                         const JobExecOptions& exec = {});

// Runs TVLA over the dataset under the positional labeling rule above,
// producing one matrix per channel. Throws std::invalid_argument when
// the dataset holds fewer than 6 traces or the spec oversubscribes it.
TvlaJobResult run_tvla_job(std::shared_ptr<const store::SharedMapping> dataset,
                           const TvlaJobSpec& spec,
                           const JobProgressFn& progress = {},
                           const JobExecOptions& exec = {});

}  // namespace psc::bus
