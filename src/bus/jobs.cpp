#include "bus/jobs.h"

#include <algorithm>
#include <stdexcept>

#include "core/parallel.h"
#include "store/chunk_cache.h"
#include "store/file_trace_source.h"
#include "util/fourcc.h"

namespace psc::bus {

namespace {

// The campaign loop over a recorded dataset laid out as `sets` equal sets
// of `stride` rows: shard s replays its slice of every set through a
// reader of its own (readers are single-threaded; the mapping is shared).
core::SinkCampaignConfig replay_campaign(
    const std::shared_ptr<const store::SharedMapping>& dataset,
    const store::TraceFileReader& probe, std::size_t sets, std::size_t stride,
    std::uint32_t shards, const JobProgressFn& progress,
    const JobExecOptions& exec) {
  core::SinkCampaignConfig config;
  config.channels = probe.channels();
  config.make_source = [dataset, cache = exec.chunk_cache, sets,
                        stride](const core::ShardSource& shard) {
    auto reader = std::make_unique<store::TraceFileReader>(dataset);
    if (cache != nullptr) {
      reader->set_chunk_cache(cache);
    }
    std::vector<core::RowRange> ranges;
    for (std::size_t k = 0; k < sets; ++k) {
      ranges.push_back({k * stride + shard.slice.begin, shard.slice.count});
    }
    return std::make_unique<store::FileTraceSource>(std::move(reader),
                                                    std::move(ranges));
  };
  config.shards = shards;
  config.exec = exec;
  if (progress) {
    config.progress = progress;
  }
  return config;
}

}  // namespace

std::uint32_t resolved_job_shards(std::uint32_t spec_shards,
                                  std::uint64_t total_traces) noexcept {
  if (spec_shards != 0) {
    return spec_shards;
  }
  const std::uint64_t by_size = total_traces / core::min_traces_per_shard;
  return static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(by_size, 1, auto_shard_cap));
}

CpaJobResult run_cpa_job(std::shared_ptr<const store::SharedMapping> dataset,
                         const CpaJobSpec& spec, const JobProgressFn& progress,
                         const JobExecOptions& exec) {
  if (dataset == nullptr) {
    throw std::invalid_argument("run_cpa_job: null dataset");
  }
  if (spec.models.empty()) {
    throw std::invalid_argument("run_cpa_job: no power models");
  }
  // A throwaway reader resolves the dataset's shape; each shard builds
  // its own reader over the same shared bytes.
  store::TraceFileReader probe(dataset);
  const auto& channels = probe.channels();
  const util::FourCc wanted(spec.channel);
  const auto it = std::find(channels.begin(), channels.end(), wanted);
  if (it == channels.end()) {
    throw std::invalid_argument("run_cpa_job: dataset has no channel " +
                                wanted.str());
  }
  if (spec.trace_count > probe.trace_count()) {
    throw std::invalid_argument(
        "run_cpa_job: trace_count exceeds the recorded traces");
  }
  const std::uint64_t total =
      spec.trace_count == 0 ? probe.trace_count() : spec.trace_count;
  if (total == 0) {
    throw std::invalid_argument("run_cpa_job: dataset holds no traces");
  }
  const std::uint32_t shards = resolved_job_shards(spec.shards, total);
  if (shards > total) {
    throw std::invalid_argument("run_cpa_job: more shards than traces");
  }

  core::SinkCampaignConfig config =
      replay_campaign(dataset, probe, 1, 0, shards, progress, exec);
  config.protocol = core::CampaignProtocol::random_stream;
  config.trace_count = total;
  config.cpa_columns = {static_cast<std::size_t>(it - channels.begin())};
  config.models = spec.models;
  config.secret = spec.known_key;
  core::SinkCampaignResult campaign = core::run_sink_campaign(config);

  CpaJobResult result;
  result.traces = total;
  result.models = std::move(campaign.cpa.at(0).final_results);
  return result;
}

TvlaJobResult run_tvla_job(std::shared_ptr<const store::SharedMapping> dataset,
                           const TvlaJobSpec& spec,
                           const JobProgressFn& progress,
                           const JobExecOptions& exec) {
  if (dataset == nullptr) {
    throw std::invalid_argument("run_tvla_job: null dataset");
  }
  store::TraceFileReader probe(dataset);
  const std::uint64_t block = probe.trace_count() / 6;
  if (block == 0) {
    throw std::invalid_argument(
        "run_tvla_job: dataset holds fewer than 6 traces");
  }
  const std::uint64_t per_set =
      spec.traces_per_set == 0 ? block : spec.traces_per_set;
  if (per_set > block) {
    throw std::invalid_argument(
        "run_tvla_job: traces_per_set exceeds the dataset's set size");
  }
  std::uint32_t shards = resolved_job_shards(spec.shards, 6 * per_set);
  if (spec.shards == 0) {
    // Auto-sizing must stay satisfiable: shards slice per-set rows.
    shards = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(shards, per_set));
  }
  if (shards > per_set) {
    throw std::invalid_argument("run_tvla_job: more shards than traces");
  }

  // Positional labels (see jobs.h): set k starts at row k * block.
  core::SinkCampaignConfig config =
      replay_campaign(dataset, probe, 6, block, shards, progress, exec);
  config.traces_per_set = per_set;
  core::SinkCampaignResult campaign = core::run_sink_campaign(config);

  TvlaJobResult result;
  result.traces_per_set = per_set;
  result.channels = std::move(campaign.tvla);
  return result;
}

}  // namespace psc::bus
