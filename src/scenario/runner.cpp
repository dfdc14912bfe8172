#include "scenario/runner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "scenario/registry.h"
#include "store/trace_file_writer.h"

namespace psc::scenario {

double ScenarioRunResult::max_cross_class_t() const noexcept {
  double max_t = 0.0;
  for (const auto& channel_result : tvla) {
    bool gated = leakage_channels.empty();
    for (const util::FourCc key : leakage_channels) {
      if (key.str() == channel_result.channel) {
        gated = true;
        break;
      }
    }
    if (!gated) {
      continue;
    }
    for (const core::PlaintextClass primed : core::all_plaintext_classes) {
      for (const core::PlaintextClass unprimed :
           core::all_plaintext_classes) {
        if (primed == unprimed) {
          continue;
        }
        const double t =
            std::fabs(channel_result.matrix.score(primed, unprimed));
        if (std::isfinite(t)) {
          max_t = std::max(max_t, t);
        }
      }
    }
  }
  return max_t;
}

ScenarioRunResult run_scenario(const Scenario& scenario,
                               const ParamSet& params,
                               const ScenarioRunConfig& config) {
  const std::vector<util::FourCc> channels = scenario.channels(params);
  const AnalysisSpec analysis = scenario.analysis(params);

  core::SinkCampaignConfig generic;
  generic.channels = channels;
  generic.make_source = [&scenario, &params](const core::ShardSource& shard) {
    return scenario.make_source(params, shard.secret, shard.seed);
  };
  generic.traces = config.traces_per_set != 0
                       ? config.traces_per_set
                       : analysis.default_traces_per_set;
  if (analysis.cpa) {
    generic.cpa_keys = analysis.cpa_keys;
    generic.models = analysis.models;
    generic.checkpoints = config.checkpoints;
  }
  generic.seed = config.seed;
  generic.shards =
      core::ShardPlan{.workers = config.workers, .shards = config.shards}
          .resolved_shards_for(6 * generic.traces);
  generic.exec = config.exec;
  if (!generic.exec.shard_budget) {
    generic.exec.shard_budget = [workers = config.workers] { return workers; };
  }
  generic.progress = config.progress;

  // Optional PSTR tee: a single recording sink on the one shard of a
  // sequential run (a sharded pass would interleave several writers).
  std::unique_ptr<store::TraceFileWriter> writer;
  std::optional<store::RecordingSink> recording;
  if (!config.record_path.empty()) {
    if (config.shards != 1 || config.workers > 1) {
      throw std::invalid_argument(
          "run_scenario: recording requires shards == 1 and workers == 1");
    }
    store::TraceFileWriterConfig writer_config;
    writer_config.channels = channels;
    writer_config.metadata = {{"scenario", scenario.name()}};
    writer = std::make_unique<store::TraceFileWriter>(config.record_path,
                                                      writer_config);
    recording.emplace(*writer);
    generic.extra_sink = [&recording](std::size_t) {
      return &*recording;
    };
  }

  core::SinkCampaignResult sink_result = core::run_sink_campaign(generic);
  if (writer) {
    writer->finalize();
  }

  ScenarioRunResult result;
  result.scenario = scenario.name();
  result.secret = sink_result.secret;
  result.traces_per_set = sink_result.traces_per_set;
  result.cpa_trace_count = sink_result.cpa_trace_count;
  result.channels = channels;
  result.leakage_channels = analysis.leakage_channels;
  result.tvla = std::move(sink_result.tvla);
  result.cpa = std::move(sink_result.cpa);
  return result;
}

ScenarioRunResult run_scenario(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& params,
    const ScenarioRunConfig& config) {
  const std::shared_ptr<const Scenario> scenario =
      ScenarioRegistry::built_in().find(name);
  if (!scenario) {
    throw std::invalid_argument("unknown scenario '" + name + "'");
  }
  return run_scenario(*scenario, scenario->parse_params(params), config);
}

}  // namespace psc::scenario
