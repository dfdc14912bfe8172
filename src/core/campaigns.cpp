#include "core/campaigns.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>

namespace psc::core {

namespace {

// Per-shard acquisition batch size: traces are staged in a columnar
// TraceBatch and handed to the sinks whole, keeping the acquire and
// accumulate halves of the loop separable; the cap bounds the pooled
// batches' memory.
constexpr std::size_t acquisition_batch = 1024;

// Ascending unique checkpoint schedule within (0, total], with `total`
// always included as the final entry.
std::vector<std::size_t> normalize_checkpoints(std::vector<std::size_t> cps,
                                               std::size_t total) {
  std::sort(cps.begin(), cps.end());
  cps.erase(std::unique(cps.begin(), cps.end()), cps.end());
  cps.erase(std::remove_if(cps.begin(), cps.end(),
                           [&](std::size_t c) { return c == 0 || c > total; }),
            cps.end());
  if (cps.empty() || cps.back() != total) {
    cps.push_back(total);
  }
  return cps;
}

// Cumulative cross-shard progress counter feeding a CampaignProgressFn;
// null hook = no-op, so the acquisition loop calls add() unconditionally.
// Lives on the campaign's stack and is captured by reference in shard
// units — safe because run_ordered_window joins every unit before
// returning.
class ProgressMeter {
 public:
  ProgressMeter(const CampaignProgressFn& fn, std::size_t total)
      : fn_(fn), total_(total) {}

  void add(std::size_t n) {
    if (fn_) {
      fn_(consumed_.fetch_add(n, std::memory_order_relaxed) + n, total_);
    }
  }

 private:
  const CampaignProgressFn& fn_;
  std::size_t total_;
  std::atomic<std::size_t> consumed_{0};
};

// The entry of `entries` whose `field` equals `value`, or null.
template <typename T, typename V>
const T* find_by(const std::vector<T>& entries, V T::*field, const V& value) {
  const auto it = std::find_if(entries.begin(), entries.end(),
                               [&](const T& e) { return e.*field == value; });
  return it == entries.end() ? nullptr : &*it;
}

}  // namespace

SinkCampaignResult run_live_campaign(const LiveCampaignConfig& config) {
  if (config.protocol == CampaignProtocol::random_stream &&
      config.keys.empty()) {
    throw std::invalid_argument(
        "run_live_campaign: a random stream needs keys to attack");
  }
  const LiveSourceConfig& source = config.source;
  const std::size_t total =
      config.protocol == CampaignProtocol::tvla_sets ? 6 * config.traces
                                                     : config.traces;
  return run_sink_campaign({
      .channels = LiveTraceSource::channel_names(source),
      .make_source =
          [source](const ShardSource& shard) {
            return std::make_unique<LiveTraceSource>(source, shard.secret,
                                                     shard.seed);
          },
      .protocol = config.protocol,
      .traces = config.traces,
      .cpa_keys = config.keys,
      .models = config.models,
      .checkpoints = config.checkpoints,
      .seed = config.seed,
      .shards = ShardPlan{.workers = config.workers, .shards = config.shards}
                    .resolved_shards_for(total),
      .exec = {.shard_budget = [workers = config.workers] { return workers; }},
      .progress = config.progress,
  });
}

const TvlaChannelResult* SinkCampaignResult::find_tvla(
    const std::string& channel) const noexcept {
  return find_by(tvla, &TvlaChannelResult::channel, channel);
}

const CpaKeyResult* SinkCampaignResult::find_cpa(
    smc::FourCc key) const noexcept {
  return find_by(cpa, &CpaKeyResult::key, key);
}

SinkCampaignResult run_sink_campaign(const SinkCampaignConfig& config) {
  if (config.channels.empty()) {
    throw std::invalid_argument("run_sink_campaign: no channels");
  }
  if (!config.make_source) {
    throw std::invalid_argument("run_sink_campaign: no source factory");
  }
  if (config.shards == 0) {
    throw std::invalid_argument("run_sink_campaign: zero shards");
  }
  // The column of each attacked key, resolved once per campaign.
  std::vector<std::size_t> key_columns;
  key_columns.reserve(config.cpa_keys.size());
  for (const util::FourCc key : config.cpa_keys) {
    const auto it =
        std::find(config.channels.begin(), config.channels.end(), key);
    if (it == config.channels.end()) {
      throw std::invalid_argument("run_sink_campaign: no channel " +
                                  key.str() + " to attack");
    }
    key_columns.push_back(
        static_cast<std::size_t>(it - config.channels.begin()));
  }

  util::Xoshiro256 rng(config.seed);
  aes::Block secret;
  rng.fill_bytes(secret);
  secret = config.secret.value_or(secret);

  const std::vector<util::FourCc>& channels = config.channels;
  const std::size_t shards = config.shards;
  const bool tvla = config.protocol == CampaignProtocol::tvla_sets;

  // The protocol's equal-length segments, in acquisition order.
  std::vector<BatchLabel> segments;
  if (tvla) {
    for (const bool primed : {false, true}) {
      for (const PlaintextClass cls : all_plaintext_classes) {
        segments.push_back(BatchLabel::tvla(cls, primed));
      }
    }
  } else {
    segments.push_back(BatchLabel::unlabeled());
  }
  const std::size_t per_segment = config.traces;

  SinkCampaignResult result;
  result.secret = secret;
  result.round_keys = aes::Aes128::expand_key(secret);
  result.traces_per_set = tvla ? per_segment : 0;
  result.cpa_trace_count = tvla ? 2 * per_segment : per_segment;
  result.cpa.resize(config.cpa_keys.size());
  for (std::size_t k = 0; k < config.cpa_keys.size(); ++k) {
    result.cpa[k].key = config.cpa_keys[k];
  }

  const std::vector<std::size_t> checkpoints =
      normalize_checkpoints(config.checkpoints, result.cpa_trace_count);

  TraceBatchPool pool(channels.size(), acquisition_batch);
  ProgressMeter meter(config.progress, segments.size() * per_segment);

  struct ShardSinks {
    std::optional<TvlaSink> tvla;
    std::vector<GeCheckpointSink> cpa;
  };
  std::vector<std::optional<ShardSinks>> slots(shards);

  const auto run_shard = [&](std::size_t s) {
    // A single-shard run continues the campaign stream so the sharded
    // pipeline reproduces the sequential implementation bit-for-bit;
    // multi-shard runs give each shard its own split stream.
    util::Xoshiro256 shard_rng = shards == 1 ? rng : rng.split(s);
    const ShardSource request{
        .secret = secret,
        .seed = shard_rng(),
        .slice = {shard_begin(per_segment, shards, s),
                  shard_size(per_segment, shards, s)},
    };
    const std::unique_ptr<TraceSource> source = config.make_source(request);
    if (!source || source->keys() != channels) {
      throw std::invalid_argument(
          "run_sink_campaign: source channels disagree with config");
    }

    // The CPA stream is the shard's share of the random-plaintext
    // segments, in acquisition order. A global checkpoint cp splits into
    // whole segments plus a remainder; partitioning each part with
    // shard_size keeps the per-shard targets summing to exactly cp.
    std::vector<std::size_t> targets;
    targets.reserve(checkpoints.size());
    for (const std::size_t cp : checkpoints) {
      std::size_t target = 0;
      for (std::size_t left = cp; left > 0;) {
        const std::size_t part = std::min(left, per_segment);
        target += shard_size(part, shards, s);
        left -= part;
      }
      targets.push_back(target);
    }

    ShardSinks& out = slots[s].emplace();
    MultiSink multi;
    if (tvla) {
      multi.add(&out.tvla.emplace(channels.size()));
    }
    out.cpa.reserve(key_columns.size());
    for (const std::size_t column : key_columns) {
      multi.add(&out.cpa.emplace_back(config.models, column, targets));
    }
    if (config.extra_sink) {
      if (AnalysisSink* extra = config.extra_sink(s)) {
        multi.add(extra);
      }
    }

    // Recorded (finite) sources overwrite the plaintext column with their
    // own (TraceSource::collect_batch), so only live sources get chosen
    // plaintexts staged.
    const bool stage = !source->remaining().has_value();
    auto batch = pool.acquire();
    for (const BatchLabel& label : segments) {
      const PlaintextClass cls =
          label.cls.value_or(PlaintextClass::random_pt);
      for (std::size_t left = request.slice.count; left > 0;) {
        const std::size_t chunk = std::min(acquisition_batch, left);
        batch->clear();
        batch->resize(chunk);
        if (stage) {
          for (auto& pt : batch->plaintexts()) {
            pt = class_plaintext(cls, shard_rng);
          }
        }
        source->collect_batch(*batch);
        multi.consume(*batch, label);
        meter.add(chunk);
        left -= chunk;
      }
    }
  };

  // Shard-order merge as each unit drains: the same sequence of merges a
  // post-pass over every shard would make, with at most a window of
  // shards alive. merged_cpa[k * n_checkpoints + ci] folds the ci-th GE
  // snapshot of attacked key k.
  const std::size_t n_checkpoints = checkpoints.size();
  TvlaSink merged_tvla(tvla ? channels.size() : 0);
  std::vector<std::optional<CpaEngine>> merged_cpa(
      key_columns.size() * n_checkpoints);
  const auto merge_shard = [&](std::size_t s) {
    ShardSinks& shard = *slots[s];
    if (tvla) {
      merged_tvla.merge(*shard.tvla);
    }
    for (std::size_t k = 0; k < shard.cpa.size(); ++k) {
      for (std::size_t ci = 0; ci < n_checkpoints; ++ci) {
        CpaEngine snapshot = shard.cpa[k].release_snapshot(ci);
        std::optional<CpaEngine>& merged = merged_cpa[k * n_checkpoints + ci];
        if (merged) {
          merged->merge(snapshot);
        } else {
          merged.emplace(std::move(snapshot));
        }
      }
    }
    slots[s].reset();
  };

  const auto report = [&](std::size_t running) {
    if (config.exec.on_shard_activity) {
      config.exec.on_shard_activity(shards, running);
    }
  };
  const auto budget = [&]() -> std::size_t {
    return config.exec.shard_budget ? config.exec.shard_budget() : 1;
  };
  report(0);
  std::atomic<std::size_t> running{0};
  run_ordered_window(
      shards, budget,
      [&](std::size_t s) {
        report(running.fetch_add(1) + 1);
        try {
          run_shard(s);
        } catch (...) {
          report(running.fetch_sub(1) - 1);
          throw;
        }
        report(running.fetch_sub(1) - 1);
      },
      merge_shard);

  for (std::size_t c = 0; c < merged_tvla.channels(); ++c) {
    result.tvla.push_back(
        {channels[c].str(), merged_tvla.accumulator(c).matrix()});
  }

  // The GE post-pass runs on the same window and budget as the shards:
  // unit u analyzes model u % n_models on merged engine u / n_models into
  // its own curve slot. Only the final checkpoint keeps full
  // ModelResults, and each engine is freed once its last model drains.
  const std::size_t n_models = config.models.size();
  for (CpaKeyResult& out : result.cpa) {
    out.curves.assign(n_models, std::vector<GeCurvePoint>(n_checkpoints));
    out.final_results.resize(n_models);
  }
  run_ordered_window(
      merged_cpa.size() * n_models, budget,
      [&](std::size_t u) {
        const std::size_t m = u % n_models;
        const std::size_t ci = u / n_models % n_checkpoints;
        CpaKeyResult& out = result.cpa[u / n_models / n_checkpoints];
        ModelResult res = merged_cpa[u / n_models]->analyze(
            config.models[m], result.round_keys);
        out.curves[m][ci] = {checkpoints[ci], res.ge_bits, res.mean_rank,
                             res.recovered_bytes};
        if (ci + 1 == n_checkpoints) {
          out.final_results[m] = std::move(res);
        }
      },
      [&](std::size_t u) {
        if (u % n_models + 1 == n_models) {
          merged_cpa[u / n_models].reset();
        }
      });
  return result;
}

std::vector<std::size_t> log_spaced_checkpoints(std::size_t first,
                                                std::size_t last,
                                                std::size_t count) {
  std::vector<std::size_t> out;
  if (count == 0 || first == 0 || last < first) {
    return out;
  }
  const double lo = std::log(static_cast<double>(first));
  const double hi = std::log(static_cast<double>(last));
  for (std::size_t i = 0; i < count; ++i) {
    const double f = count == 1 ? 1.0
                                : static_cast<double>(i) /
                                      static_cast<double>(count - 1);
    out.push_back(static_cast<std::size_t>(
        std::llround(std::exp(lo + f * (hi - lo)))));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace psc::core
