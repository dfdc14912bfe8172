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

struct TvlaChannelResult {
  std::string channel;  // SMC key name or "PCPU"
  TvlaMatrix matrix;
};

struct GeCurvePoint {
  std::size_t traces = 0;
  double ge_bits = 0.0;
  double mean_rank = 0.0;
  int recovered_bytes = 0;
};

struct CpaKeyResult {
  smc::FourCc key;
  // Final analysis per model, aligned with the campaign's models.
  std::vector<ModelResult> final_results;
  // GE trajectory per model, aligned the same way.
  std::vector<std::vector<GeCurvePoint>> curves;
};

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
// sets only) plus one GeCheckpointSink per attacked key. Shard units
// run on core::run_ordered_window and their sinks merge strictly in shard
// order as each unit drains, so results are a pure function of (seed,
// shards, source) and shards = 1 reproduces the sequential loop. The GE
// post-pass then runs on a second window under the same budget, one
// analyze unit per (attacked key, checkpoint, model). The live campaign
// below — and the scenario runner and bus jobs — fill in a source
// factory and call this loop.

enum class CampaignProtocol {
  // Six labeled (class, collection) sets of `traces` traces each:
  // unprimed (all-0s, all-1s, random), then primed. CPA sinks see the two
  // random collections, 2 * traces traces.
  tvla_sets,
  // One unlabeled random-plaintext stream of `traces` traces.
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
  std::function<std::size_t()> shard_budget{};
  // Observer of (shard count, units running): called once with
  // running = 0 as the campaign starts, then as each shard unit starts
  // and finishes — concurrently from pool threads under a budget.
  // Analysis units are not reported.
  std::function<void(std::size_t shards, std::size_t running)>
      on_shard_activity{};
};

struct SinkCampaignConfig {
  // Channel columns the source reports, in column order.
  std::vector<util::FourCc> channels;
  SinkSourceFactory make_source;
  CampaignProtocol protocol = CampaignProtocol::tvla_sets;
  // tvla_sets: traces per (class, collection); random_stream: the stream
  // length.
  std::size_t traces = 5000;
  // Channels to attack with CPA/GE; empty = TVLA only. Each must be one
  // of `channels` (the campaign throws std::invalid_argument naming any
  // that is not). The secret is interpreted as an AES-128 key for
  // ranking (the CpaEngine's model).
  std::vector<util::FourCc> cpa_keys;
  std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};
  // GE snapshot trace counts over the CPA stream (the final count is
  // always evaluated).
  std::vector<std::size_t> checkpoints;
  std::uint64_t seed = 1;
  // The key CPA ranks against; unset = drawn from the seed (the victim
  // key of a live campaign). Replay campaigns pass the recorded key.
  std::optional<aes::Block> secret{};
  // Result-determining; at least 1.
  std::size_t shards = 1;
  ShardExecution exec;
  CampaignProgressFn progress{};  // see CampaignProgressFn above
  // Optional extra per-shard sink (e.g. a store::RecordingSink teeing the
  // acquisition to disk); non-owning, appended to the shard's MultiSink.
  // Adding or removing it never changes the campaign's RNG stream.
  std::function<AnalysisSink*(std::size_t shard)> extra_sink{};
};

// What every campaign returns.
struct SinkCampaignResult {
  aes::Block secret{};  // the victim key CPA ranked against
  std::array<aes::Block, aes::num_rounds + 1> round_keys{};
  std::size_t traces_per_set = 0;   // 0 for a random stream
  std::size_t cpa_trace_count = 0;  // traces the CPA sinks saw
  std::vector<TvlaChannelResult> tvla;  // TVLA sets: one per channel
  std::vector<CpaKeyResult> cpa;        // one per attacked key

  // The entry for `channel` / `key`, or null.
  const TvlaChannelResult* find_tvla(const std::string& channel) const noexcept;
  const CpaKeyResult* find_cpa(smc::FourCc key) const noexcept;
};

SinkCampaignResult run_sink_campaign(const SinkCampaignConfig& config);

// ---------- live campaigns over the simulated device ----------
//
// The paper's TVLA tables (3, 5, and Table 6's PCPU column) run the
// tvla_sets protocol with no keys; its CPA table and GE figures (Table 4,
// Fig. 1) run random_stream over the attacked keys. tvla_sets with keys
// does both from one acquisition: the two random-plaintext collections
// double as the CPA stream, and the TVLA half is bit-identical to the
// same campaign without keys.
struct LiveCampaignConfig {
  // The simulated device, victim, firmware countermeasure (section 5) and
  // whether the IOReport PCPU channel is reported too.
  LiveSourceConfig source;
  CampaignProtocol protocol = CampaignProtocol::tvla_sets;
  // tvla_sets: traces per (class, collection) — two collections per
  // class, so the paper's 10k per class is 5000 here. random_stream: the
  // stream length.
  std::size_t traces = 5000;
  // SMC keys to attack with CPA/GE; empty = TVLA only, which random_stream
  // rejects.
  std::vector<smc::FourCc> keys{};
  std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};
  // Trace counts at which to snapshot GE over the CPA stream (the final
  // count is always evaluated).
  std::vector<std::size_t> checkpoints{};
  std::uint64_t seed = 1;
  // Sharded execution (see core/parallel.h): `workers` units run at a
  // time; shards = 0 sizes the shard count to the traces acquired
  // (ShardPlan::resolved_shards_for), 1 is sequential.
  std::size_t workers = 1;
  std::size_t shards = 0;
  CampaignProgressFn progress{};  // see CampaignProgressFn above
};

// Each shard calibrates its own LiveTraceSource. Returns one `tvla`
// matrix per channel for tvla_sets and one `cpa` entry per key.
SinkCampaignResult run_live_campaign(const LiveCampaignConfig& config);

// Log-spaced checkpoint schedule from `first` to `last` (inclusive).
std::vector<std::size_t> log_spaced_checkpoints(std::size_t first,
                                                std::size_t last,
                                                std::size_t count);

}  // namespace psc::core
