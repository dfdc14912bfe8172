// Layer probes: the traced run times each layer's public class directly on
// the workload's own inputs, so one traced run reproduces every row of the
// ROADMAP baseline table without a hand-written timing program.
#include <algorithm>
#include <iostream>

#include "bench.h"
#include "core/analysis_sink.h"
#include "core/campaigns.h"
#include "core/key_rank.h"
#include "core/trace_source.h"
#include "power/leakage_model.h"
#include "scenario/registry.h"
#include "store/file_trace_source.h"
#include "store/trace_file_reader.h"
#include "store/trace_file_writer.h"
#include "util/crc32.h"

namespace perfbench {

using namespace psc;

namespace {

constexpr std::size_t probe_batch = 1024;
// Span job id of the live campaign probe, apart from any workload job.
constexpr std::uint64_t live_probe_job = std::uint64_t{1} << 40;

// Keeps probe results observable so no timed call is dead code.
volatile std::uint64_t g_sink = 0;

template <typename Fn>
double time_s(Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  fn();
  return seconds_between(t0, now_ns());
}

// `rows` split into probe_batch-row batches, copied before any timing.
std::vector<core::TraceBatch> slice(const core::TraceBatch& rows) {
  std::vector<core::TraceBatch> out;
  for (std::size_t begin = 0; begin < rows.size(); begin += probe_batch) {
    core::TraceBatch b(rows.channels());
    b.append(rows, begin, std::min(probe_batch, rows.size() - begin));
    out.push_back(std::move(b));
  }
  return out;
}

}  // namespace

MetricValues run_layer_probes(const ProbeInputs& in, Tracer& tracer) {
  MetricValues out;
  ScopedSpan all(tracer, "probe.layers");

  // store: v1 chunk decode (first access verifies the CRC) and the CRC
  // itself over the same payload bytes.
  store::TraceFileReader v1(in.v1_path);
  const std::size_t channels = v1.channels().size();
  const std::size_t chunks = std::max<std::size_t>(
      1, v1.chunk_containing(std::min(in.max_rows, v1.trace_count()) - 1) + 1);
  core::TraceBatch rows(channels);
  double chunk_s = 0.0;
  double crc_s = 0.0;
  double crc_bytes = 0.0;
  {
    ScopedSpan span(tracer, "probe.store_v1");
    for (std::size_t i = 0; i < chunks; ++i) {
      store::ChunkView view;
      chunk_s += time_s([&] { view = v1.chunk(i); });
      const std::size_t bytes = view.rows() * (32 + 8 * channels);
      crc_s += time_s(
          [&] { g_sink = g_sink + util::crc32(view.plaintexts().data(), bytes); });
      crc_bytes += static_cast<double>(bytes);
      view.append_to(rows);
    }
  }
  out["store.chunk_v1_us"] = chunk_s * 1e6 / static_cast<double>(chunks);
  out["util.crc32_mb_per_s"] = crc_bytes / crc_s * 1e-6;
  const std::vector<core::TraceBatch> batches = slice(rows);

  // store: v2 encode (append) and decode of the same rows.
  {
    ScopedSpan span(tracer, "probe.store_v2");
    store::TraceFileWriter writer(
        in.scratch_v2_path,
        {.channels = v1.channels(),
         .chunk_capacity = v1.chunk_capacity(),
         .metadata = v1.metadata(),
         .channel_codecs = store::uniform_channel_codecs(
             channels, store::ColumnCodec::delta_bitpack)});
    double append_s = 0.0;
    for (const core::TraceBatch& b : batches) {
      append_s += time_s([&] { writer.append(b); });
    }
    append_s += time_s([&] { writer.finalize(); });
    out["store.append_ns_per_trace"] =
        append_s * 1e9 / static_cast<double>(rows.size());
    store::TraceFileReader v2(in.scratch_v2_path);
    double v2_s = 0.0;
    for (std::size_t i = 0; i < v2.chunk_count(); ++i) {
      v2_s += time_s([&] { g_sink = g_sink + v2.chunk(i).rows(); });
    }
    out["store.chunk_v2_us"] = v2_s * 1e6 / static_cast<double>(v2.chunk_count());
  }

  // store: FileTraceSource replay (v1 decode per trace) and the prefetch
  // overlap ratio on the v2 copy.
  {
    ScopedSpan span(tracer, "probe.file_source");
    const auto replay = [&](const std::string& path, double& seconds) {
      store::FileTraceSource source(
          path, 0, rows.size(),
          store::FileSourceOptions{.prefetch = store::PrefetchMode::on});
      core::TraceBatch batch(channels);
      seconds = time_s([&] {
        while (source.remaining().value() > 0) {
          batch.clear();
          batch.resize(std::min(probe_batch, source.remaining().value()));
          source.collect_batch(batch);
        }
      });
      return source.async_completions();
    };
    double v1_s = 0.0;
    double v2_s = 0.0;
    replay(in.v1_path, v1_s);
    const std::size_t async = replay(in.scratch_v2_path, v2_s);
    out["store.collect_ns_per_trace"] =
        v1_s * 1e9 / static_cast<double>(rows.size());
    out["store.prefetch_async_ratio"] =
        static_cast<double>(async) / static_cast<double>(chunks);
    out["store.prefetch_chunks"] = static_cast<double>(chunks);
  }

  // victim / aes / power on the workload's plaintexts.
  const std::size_t device_rows = std::min<std::size_t>(rows.size(), 16384);
  {
    ScopedSpan span(tracer, "probe.device");
    core::LiveTraceSource live(
        {.profile = soc::DeviceProfile::macbook_air_m2(),
         .victim = victim::VictimModel::user_space()},
        in.secret, in.seed);
    double live_s = 0.0;
    for (std::size_t b = 0; b * probe_batch < device_rows; ++b) {
      core::TraceBatch batch = batches[b];
      live_s += time_s([&] { live.collect_batch(batch); });
    }
    out["victim.collect_ns_per_trace"] =
        live_s * 1e9 / static_cast<double>(device_rows);

    const aes::Aes128 cipher(in.secret);
    std::vector<aes::RoundTrace> traces(device_rows);
    const auto pts = rows.plaintexts();
    const double aes_s = time_s([&] {
      for (std::size_t i = 0; i < device_rows; ++i) {
        cipher.encrypt_trace(pts[i], traces[i]);
      }
    });
    out["aes.encrypt_trace_ns"] = aes_s * 1e9 / static_cast<double>(device_rows);

    const power::LeakageEvaluator evaluator(
        power::LeakageConfig::apple_silicon_default());
    double energy = 0.0;
    const double power_s = time_s([&] {
      for (std::size_t i = 0; i < device_rows; ++i) {
        energy += evaluator.energy_deviation(pts[i], traces[i]);
      }
    });
    g_sink = g_sink + static_cast<std::uint64_t>(energy != 0.0);
    out["power.energy_deviation_ns"] =
        power_s * 1e9 / static_cast<double>(device_rows);
  }

  // scenario: source instantiation and per-scenario acquisition cost.
  {
    ScopedSpan span(tracer, "probe.scenarios");
    const auto& registry = scenario::ScenarioRegistry::built_in();
    for (const std::string& name : registry.list()) {
      const auto sc = registry.find(name);
      const scenario::ParamSet params = sc->parse_params({});
      std::unique_ptr<core::TraceSource> source;
      const double make_s =
          time_s([&] { source = sc->make_source(params, in.secret, in.seed); });
      if (name == "aes-power-user") {
        out["scenario.make_source_ms"] = make_s * 1e3;
        continue;
      }
      double s = 0.0;
      std::size_t traces = 0;
      for (std::size_t b = 0; b < std::min<std::size_t>(2, batches.size());
           ++b) {
        core::TraceBatch batch(source->keys().size());
        batch.resize(batches[b].size());
        std::copy(batches[b].plaintexts().begin(),
                  batches[b].plaintexts().end(), batch.plaintexts().begin());
        s += time_s([&] { source->collect_batch(batch); });
        traces += batch.size();
      }
      out["scenario." + name + ".collect_ns_per_trace"] =
          s * 1e9 / static_cast<double>(traces);
    }
  }

  // core: sink ingest, shard merge and analysis.
  {
    ScopedSpan span(tracer, "probe.sinks");
    const std::size_t phpc = column_of(v1.channels(), "PHPC");
    const double n = static_cast<double>(rows.size());
    const auto label = core::BatchLabel::tvla(core::PlaintextClass::random_pt,
                                              false);
    core::TvlaSink tvla(channels);
    double s = time_s([&] {
      for (const auto& b : batches) tvla.consume(b, label);
    });
    out["core.tvla_consume_ns_per_trace"] = s * 1e9 / n;

    core::CpaSink cpa({power::PowerModel::rd0_hw, power::PowerModel::rd10_hw,
                       power::PowerModel::rd10_hd},
                      {phpc});
    s = time_s([&] {
      for (const auto& b : batches) cpa.consume(b, core::BatchLabel::unlabeled());
    });
    out["core.cpa_consume_ns_per_trace"] = s * 1e9 / n;

    core::GeCheckpointSink ge(
        {power::PowerModel::rd0_hw}, phpc,
        core::log_spaced_checkpoints(std::min<std::size_t>(1000, rows.size()),
                                     rows.size(), 8));
    s = time_s([&] {
      for (const auto& b : batches) ge.consume(b, core::BatchLabel::unlabeled());
    });
    out["core.ge_consume_ns_per_trace"] = s * 1e9 / n;

    // Merge: eight shard partials (TVLA over every channel, CPA rd0_hw
    // over the four attacked channels) folded in shard order.
    std::vector<std::size_t> attacked;
    for (const char* key : {"PHPC", "PDTR", "PMVC", "PSTR"}) {
      attacked.push_back(column_of(v1.channels(), key));
    }
    constexpr std::size_t shards = 8;
    std::vector<core::TvlaSink> tvla_parts(shards, core::TvlaSink(channels));
    std::vector<core::CpaSink> cpa_parts(
        shards, core::CpaSink({power::PowerModel::rd0_hw}, attacked));
    for (std::size_t b = 0; b < batches.size(); ++b) {
      tvla_parts[b % shards].consume(batches[b], label);
      cpa_parts[b % shards].consume(batches[b], core::BatchLabel::unlabeled());
    }
    core::TvlaSink tvla_merged(channels);
    core::CpaSink cpa_merged({power::PowerModel::rd0_hw}, attacked);
    s = time_s([&] {
      for (std::size_t p = 0; p < shards; ++p) {
        tvla_merged.merge(tvla_parts[p]);
        cpa_merged.merge(cpa_parts[p]);
      }
    });
    out["core.merge_ms"] = s * 1e3;

    // Analyze: one checkpoint = CpaEngine::analyze + estimate_key_rank.
    const auto round_keys = aes::Aes128::expand_key(in.secret);
    std::vector<double> analyze_ms;
    for (const core::CpaEngine& engine : ge.snapshots()) {
      analyze_ms.push_back(time_s([&] {
        const core::ModelResult r =
            engine.analyze(power::PowerModel::rd0_hw, round_keys);
        g_sink = g_sink + static_cast<std::uint64_t>(
                              core::estimate_key_rank(r).log2_rank);
      }) * 1e3);
    }
    out["core.analyze_ms"] = median(analyze_ms);
  }
  return out;
}

MetricValues run_live_probe(const Options& opts, Tracer& tracer) {
  const auto sc = scenario::ScenarioRegistry::built_in().find("aes-power-user");
  const scenario::ParamSet params = sc->parse_params({});
  scenario::ScenarioRunConfig config;
  config.traces_per_set = scaled(opts, 16384, 1024);
  config.seed = opts.seed;
  config.workers = default_workers();
  config.shards = 8;
  {
    ScopedSpan campaign(tracer, "scenario.campaign", live_probe_job);
    const auto timed = timed_scenario(*sc, tracer, live_probe_job,
                                      campaign.id());
    scenario::run_scenario(*timed, params, config);
  }
  std::vector<Span> spans;
  for (const Span& s : tracer.spans()) {
    if (s.job == live_probe_job) {
      spans.push_back(s);
    }
  }
  return live_span_metrics(spans, config.workers);
}

}  // namespace perfbench
