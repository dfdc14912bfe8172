// live-aes: repeated aes-power-user campaigns through run_scenario — TVLA
// on all five SMC channels plus CPA/GE (rd0_hw) on PHPC/PDTR/PMVC/PSTR at
// log-spaced checkpoints, 8 shards on min(4, nproc) workers. The simulated
// device dominates; neither the store nor the bus is touched.
#include <cmath>
#include <sstream>

#include "bench.h"
#include "core/campaigns.h"
#include "scenario/registry.h"
#include "util/rng.h"

namespace perfbench {

using namespace psc;

namespace {

constexpr std::size_t live_shards = 8;

double phpc_ge(const scenario::ScenarioRunResult& result) {
  for (const core::CpaKeyResult& key : result.cpa) {
    if (key.key == util::FourCc("PHPC") && !key.final_results.empty()) {
      return key.final_results.front().ge_bits;
    }
  }
  throw std::runtime_error("live-aes: campaign has no PHPC CPA result");
}

}  // namespace

WorkloadResult run_live_aes(const Options& opts, Tracer& tracer,
                            Tally& tally) {
  const auto sc = scenario::ScenarioRegistry::built_in().find("aes-power-user");
  const scenario::ParamSet params = sc->parse_params({});
  const std::size_t workers = default_workers();
  const std::size_t per_set = scaled(opts, 50000, 2048);
  // GE is averaged over the first campaigns of the run, whose count is
  // fixed, so ge_bits repeats exactly at a fixed seed while varying less
  // across seeds than one campaign's GE does. The traced run reports no
  // GE and needs no minimum.
  const std::size_t ge_campaigns = opts.trace ? 1 : opts.scale < 1.0 ? 2 : 24;

  scenario::ScenarioRunConfig config;
  config.traces_per_set = per_set;
  config.checkpoints = core::log_spaced_checkpoints(
      std::min<std::size_t>(1000, 2 * per_set), 2 * per_set, 8);
  config.workers = workers;
  config.shards = live_shards;

  // Campaign k runs at seeds[k]; every rep seed comes from --seed.
  util::SplitMix64 seed_stream(opts.seed);
  std::vector<std::uint64_t> seeds;
  const auto seed_at = [&](std::size_t k) {
    while (seeds.size() <= k) {
      seeds.push_back(seed_stream());
    }
    return seeds[k];
  };

  // Set-up: what a campaign pays per shard before its first trace —
  // source instantiation and device calibration. Two instantiations are
  // timed before every campaign, so the median samples the whole run
  // rather than its first moments.
  std::vector<double> setup_s;
  const auto time_setup = [&](std::size_t k) {
    util::Xoshiro256 rng(seed_at(k));
    aes::Block secret;
    rng.fill_bytes(secret);
    for (int i = 0; i < 2; ++i) {
      const std::uint64_t t0 = now_ns();
      const auto source = sc->make_source(params, secret, rng());
      setup_s.push_back(seconds_between(t0, now_ns()));
      tally.op(source != nullptr && source->keys().size() == 5,
               "live-aes: make_source");
    }
  };

  const auto run_campaign = [&](std::size_t k, bool traced,
                                Tracer& span_sink) {
    scenario::ScenarioRunConfig c = config;
    c.seed = seed_at(k);
    if (!traced) {
      return scenario::run_scenario(*sc, params, c);
    }
    ScopedSpan campaign(span_sink, "scenario.campaign", k + 1);
    const auto timed = timed_scenario(*sc, span_sink, k + 1, campaign.id());
    return scenario::run_scenario(*timed, params, c);
  };

  std::vector<double> latency_ms;
  std::vector<double> ge;
  std::uint64_t first_digest = 0;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::size_t untraced_reps = 0;
  std::size_t traced_reps = 0;
  const std::uint64_t traces_per_campaign = 6 * per_set;

  PlacementSampler placement(workers);
  const std::uint64_t start = now_ns();
  // Untraced runs measure every campaign plainly. Traced runs pair an
  // untraced and a traced campaign at the same seed, swapping which goes
  // first: their gap is the tracing overhead, and each pair must agree bit
  // for bit.
  const auto run_traced = [&](std::size_t k) {
    const std::uint64_t t0 = now_ns();
    const scenario::ScenarioRunResult result = run_campaign(k, true, tracer);
    traced_s += seconds_between(t0, now_ns());
    return digest(result);
  };
  for (std::size_t k = 0;; ++k) {
    if (k >= ge_campaigns &&
        seconds_between(start, now_ns()) >= opts.seconds) {
      break;
    }
    time_setup(k);
    const bool traced_first = opts.trace && k % 2 == 1;
    std::uint64_t traced_digest = 0;
    if (traced_first) {
      traced_digest = run_traced(k);
    }
    const std::uint64_t t0 = now_ns();
    const scenario::ScenarioRunResult plain = run_campaign(k, false, tracer);
    const double dt = seconds_between(t0, now_ns());
    untraced_s += dt;
    ++untraced_reps;
    latency_ms.push_back(dt * 1e3);
    const std::uint64_t plain_digest = digest(plain);
    if (k == 0) {
      first_digest = plain_digest;
    }
    if (k < ge_campaigns) {
      ge.push_back(phpc_ge(plain));
    }
    tally.op(plain.cpa.size() == 4 && plain.tvla.size() == 5,
             "live-aes: campaign shape");
    if (opts.trace) {
      if (!traced_first) {
        traced_digest = run_traced(k);
      }
      ++traced_reps;
      tally.op(traced_digest == plain_digest,
               "live-aes: traced campaign differs from untraced");
    }
  }
  placement.stop();

  if (!opts.trace) {
    // Correctness gate, outside the timed window: the traced path must
    // reproduce the first campaign bit for bit.
    Tracer scratch(true);
    tally.op(digest(run_campaign(0, true, scratch)) == first_digest,
             "live-aes: traced campaign differs from untraced");
  }

  WorkloadResult out;
  out.end_to_end["setup_s"] = median(setup_s);
  // Rates from the median campaign: a campaign hit by a placement stall
  // shows in the p90 latency, not in the throughput.
  const double median_s = median(latency_ms) * 1e-3;
  out.end_to_end["traces_per_s"] =
      static_cast<double>(traces_per_campaign) / median_s;
  out.end_to_end["jobs_per_s"] = 1.0 / median_s;
  out.end_to_end["job_latency_p50_ms"] = percentile(latency_ms, 0.5);
  out.end_to_end["job_latency_p90_ms"] = percentile(latency_ms, 0.9);
  out.end_to_end["ge_bits"] = mean(ge);
  out.end_to_end["peak_rss_mb"] = peak_rss_mb();

  std::ostringstream note;
  note << "live-aes campaigns=" << untraced_reps << " traces_per_campaign="
       << traces_per_campaign << " shards=" << live_shards
       << " workers=" << workers << " ge_campaigns=" << ge.size()
       << " latency_samples=" << latency_ms.size();
  out.notes.push_back(note.str());
  out.notes.push_back(placement.note());

  if (opts.trace) {
    out.layers = live_span_metrics(tracer.spans(), workers);
    const double plain_tps =
        static_cast<double>(untraced_reps * traces_per_campaign) / untraced_s;
    const double traced_tps =
        static_cast<double>(traced_reps * traces_per_campaign) / traced_s;
    out.layers["bench.tracing_overhead_pct"] =
        100.0 * (plain_tps - traced_tps) / plain_tps;
  }
  return out;
}

}  // namespace perfbench
