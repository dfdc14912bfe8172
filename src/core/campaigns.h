// End-to-end experiment runners. Each campaign reproduces one of the
// paper's measurement pipelines against the simulated platform and
// returns the data its table/figure reports. The bench binaries are thin
// wrappers over these.
//
// Every campaign runs on one sharded columnar loop, run_sink_campaign at
// the end of this file: the trace budget splits into shards
// (core/parallel.h), each with its own RNG stream and trace source
// (core/trace_source.h); shards acquire pooled TraceBatches and feed them
// to AnalysisSinks (core/analysis_sink.h), whose partial state merges in
// shard order. Guessing-entropy checkpoints are per-shard engine
// snapshots — no mid-campaign merge barriers. Results are a pure
// function of (seed, shards): any worker count gives bit-identical
// output, and shards = 1 reproduces the original sequential loop
// bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis_sink.h"
#include "core/cpa.h"
#include "core/parallel.h"
#include "core/trace_source.h"
#include "core/tvla.h"
#include "smc/key_database.h"
#include "soc/device_profile.h"
#include "victim/fast_trace.h"

namespace psc::core {

// Optional job-level progress hook: invoked after every consumed
// acquisition batch with (traces_consumed_so_far, traces_total),
// cumulative across all shards of the campaign. Worker threads call it
// concurrently, so the callee must be thread-safe; each call carries a
// unique cumulative count, but calls from different shards may arrive
// out of order (a callee tracking a high-water mark should max(), not
// assign). The hook observes — it must not mutate campaign state, and
// it runs on the acquisition path, so keep it cheap.
using CampaignProgressFn =
    std::function<void(std::size_t consumed, std::size_t total)>;

// ---------- TVLA campaigns (Tables 3 and 5; Table 6 first column) ----------

struct TvlaCampaignConfig {
  soc::DeviceProfile profile;
  victim::VictimModel victim = victim::VictimModel::user_space();
  // Traces per (class, collection): two collections per class, so the
  // paper's 10k per class corresponds to 5000 here.
  std::size_t traces_per_set = 5000;
  // Also assess the IOReport "PCPU" channel (Table 6, first column).
  bool include_pcpu = false;
  // Firmware countermeasure applied to the SMC channel (section 5).
  smc::MitigationPolicy mitigation = smc::MitigationPolicy::none();
  std::uint64_t seed = 1;
  // Sharded execution (see core/parallel.h): workers = thread count,
  // shards = partial-state count (0 = one per worker; 1 = sequential).
  std::size_t workers = 1;
  std::size_t shards = 0;
  CampaignProgressFn progress{};  // see CampaignProgressFn above
};

struct TvlaChannelResult {
  std::string channel;  // SMC key name or "PCPU"
  TvlaMatrix matrix;
};

struct TvlaCampaignResult {
  aes::Block victim_key{};
  std::size_t traces_per_set = 0;
  std::vector<TvlaChannelResult> channels;

  const TvlaChannelResult* find(const std::string& channel) const noexcept;
};

TvlaCampaignResult run_tvla_campaign(const TvlaCampaignConfig& config);

// ---------- CPA campaigns (Table 4; Figures 1a and 1b) ----------

struct CpaCampaignConfig {
  soc::DeviceProfile profile;
  victim::VictimModel victim = victim::VictimModel::user_space();
  std::size_t trace_count = 1'000'000;
  std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};
  // SMC keys to attack; empty = every workload-dependent key except PHPS
  // (the estimate channel carries no signal, as Table 3 establishes).
  std::vector<smc::FourCc> keys;
  // Trace counts at which to snapshot GE (ascending; the final count is
  // always evaluated).
  std::vector<std::size_t> checkpoints;
  // Firmware countermeasure applied to the SMC channel (section 5).
  smc::MitigationPolicy mitigation = smc::MitigationPolicy::none();
  std::uint64_t seed = 1;
  // Sharded execution (see core/parallel.h): workers = thread count,
  // shards = partial-state count (0 = one per worker; 1 = sequential).
  std::size_t workers = 1;
  std::size_t shards = 0;
  CampaignProgressFn progress{};  // see CampaignProgressFn above
};

struct GeCurvePoint {
  std::size_t traces = 0;
  double ge_bits = 0.0;
  double mean_rank = 0.0;
  int recovered_bytes = 0;
};

struct CpaKeyResult {
  smc::FourCc key;
  // Final analysis per model, aligned with CpaCampaignConfig::models.
  std::vector<ModelResult> final_results;
  // GE trajectory per model, aligned the same way.
  std::vector<std::vector<GeCurvePoint>> curves;
};

struct CpaCampaignResult {
  aes::Block victim_key{};
  std::array<aes::Block, aes::num_rounds + 1> round_keys{};
  std::size_t trace_count = 0;
  std::vector<CpaKeyResult> keys;

  const CpaKeyResult* find(smc::FourCc key) const noexcept;
};

CpaCampaignResult run_cpa_campaign(const CpaCampaignConfig& config);

// ---------- combined campaign (one acquisition, every analysis) ----------
//
// Runs the TVLA collection protocol once — six labeled (class, collection)
// sets — and fans every batch out to TVLA, CPA and guessing-entropy sinks
// at the same time. The two random-plaintext collections double as the
// CPA trace stream, so one trace budget yields Table 3's matrices and
// Table 4's rankings together. At equal (seed, shards, victim, device,
// mitigation, traces_per_set, include_pcpu), the TVLA half is
// bit-identical to run_tvla_campaign.

struct CombinedCampaignConfig {
  soc::DeviceProfile profile;
  victim::VictimModel victim = victim::VictimModel::user_space();
  // Traces per (class, collection); the CPA stream sees 2x this.
  std::size_t traces_per_set = 5000;
  bool include_pcpu = false;
  std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};
  // SMC keys to attack with CPA; empty = every workload-dependent key
  // except PHPS (and PCPU when included).
  std::vector<smc::FourCc> keys;
  // CPA trace counts at which to snapshot GE (ascending, over the random
  // stream of 2 * traces_per_set; the final count is always evaluated).
  std::vector<std::size_t> checkpoints;
  smc::MitigationPolicy mitigation = smc::MitigationPolicy::none();
  std::uint64_t seed = 1;
  std::size_t workers = 1;
  std::size_t shards = 0;
  CampaignProgressFn progress{};  // see CampaignProgressFn above
};

struct CombinedCampaignResult {
  aes::Block victim_key{};
  std::array<aes::Block, aes::num_rounds + 1> round_keys{};
  std::size_t traces_per_set = 0;
  std::size_t cpa_trace_count = 0;  // 2 * traces_per_set
  std::vector<TvlaChannelResult> tvla;
  std::vector<CpaKeyResult> cpa;

  const TvlaChannelResult* find_tvla(const std::string& channel) const noexcept;
  const CpaKeyResult* find_cpa(smc::FourCc key) const noexcept;
};

CombinedCampaignResult run_combined_campaign(
    const CombinedCampaignConfig& config);

// ---------- the campaign loop ----------
//
// Every campaign in the repo — live, scenario-registry and dataset
// replay — is one call to run_sink_campaign, built from three parts:
//
//   protocol  what is acquired: the six labeled TVLA sets, or one
//             unlabeled random-plaintext stream with GE checkpoints;
//   source    where traces come from: a per-shard factory (a live device,
//             a scenario victim, or a recorded PSTR file);
//   execution how shard units run (ShardExecution) — never what they
//             compute.
//
// The budget splits into `shards` shards. Shard s acquires its
// shard_size slice of every protocol segment, in protocol order, from its
// own source and RNG stream, feeding a TvlaSink on every channel (TVLA
// sets only) plus one GeCheckpointSink per attacked column. Shard units
// run on core::run_ordered_window and their sinks merge strictly in shard
// order as each unit drains, so results are a pure function of (seed,
// shards, source) and shards = 1 reproduces the sequential loop. The GE
// post-pass then runs on a second window under the same budget, one
// analyze unit per (attacked column, checkpoint, model). The wrappers
// above — and the scenario runner and bus jobs — fill in a source
// factory and call this loop.

enum class CampaignProtocol {
  // Six labeled (class, collection) sets of traces_per_set traces:
  // unprimed (all-0s, all-1s, random), then primed. CPA sinks see the two
  // random collections, 2 * traces_per_set traces.
  tvla_sets,
  // One unlabeled random-plaintext stream of trace_count traces.
  random_stream,
};

// What one shard's source must deliver. Every protocol segment (TVLA set
// k, or the one random stream) has the same length, and the shard
// acquires rows `slice` of each, segment after segment. Live sources
// synthesize traces from (secret, seed) and ignore the slice; replay
// sources map it to recorded rows.
struct ShardSource {
  aes::Block secret{};
  std::uint64_t seed = 0;  // the shard's RNG stream
  RowRange slice;
};

using SinkSourceFactory =
    std::function<std::unique_ptr<TraceSource>(const ShardSource& shard)>;

// How shard units execute. Neither hook ever changes a result.
struct ShardExecution {
  // Max units in flight — shard units, then GE analysis units — re-read
  // before each unit is issued (values < 1 count as 1, which runs the
  // unit inline). Null: every unit runs inline on the calling thread,
  // touching no pool state.
  std::function<std::size_t()> shard_budget;
  // Observer of (shard count, units running): called once with
  // running = 0 as the campaign starts, then as each shard unit starts
  // and finishes — concurrently from pool threads under a budget.
  // Analysis units are not reported.
  std::function<void(std::size_t shards, std::size_t running)>
      on_shard_activity;
};

struct SinkCampaignConfig {
  // Channel columns the source reports, in column order.
  std::vector<util::FourCc> channels;
  SinkSourceFactory make_source;
  CampaignProtocol protocol = CampaignProtocol::tvla_sets;
  // tvla_sets: traces per (class, collection).
  std::size_t traces_per_set = 5000;
  // random_stream: the stream length.
  std::size_t trace_count = 0;
  // Channel columns to attack with CPA/GE; empty = TVLA only. The secret
  // is interpreted as an AES-128 key for ranking (the CpaEngine's model).
  std::vector<std::size_t> cpa_columns;
  std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};
  // GE snapshot trace counts over the CPA stream (the final count is
  // always evaluated).
  std::vector<std::size_t> checkpoints;
  std::uint64_t seed = 1;
  // The key CPA ranks against; unset = drawn from the seed (the victim
  // key of a live campaign). Replay campaigns pass the recorded key.
  std::optional<aes::Block> secret;
  // Result-determining; at least 1.
  std::size_t shards = 1;
  ShardExecution exec;
  CampaignProgressFn progress{};  // see CampaignProgressFn above
  // Optional extra per-shard sink (e.g. a store::RecordingSink teeing the
  // acquisition to disk); non-owning, appended to the shard's MultiSink.
  // Adding or removing it never changes the campaign's RNG stream.
  std::function<AnalysisSink*(std::size_t shard)> extra_sink{};
};

struct SinkCampaignResult {
  aes::Block secret{};
  std::array<aes::Block, aes::num_rounds + 1> round_keys{};
  std::size_t traces_per_set = 0;   // 0 for a random stream
  std::size_t cpa_trace_count = 0;  // traces the CPA sinks saw
  std::vector<TvlaChannelResult> tvla;  // TVLA sets: one per channel
  std::vector<CpaKeyResult> cpa;        // one per cpa_columns entry

  const TvlaChannelResult* find_tvla(const std::string& channel) const noexcept;
};

SinkCampaignResult run_sink_campaign(const SinkCampaignConfig& config);

// Log-spaced checkpoint schedule from `first` to `last` (inclusive).
std::vector<std::size_t> log_spaced_checkpoints(std::size_t first,
                                                std::size_t last,
                                                std::size_t count);

}  // namespace psc::core
