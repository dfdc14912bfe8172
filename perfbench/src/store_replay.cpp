// store-replay: no acquisition at all. Four aes-power-user recordings in
// TVLA protocol order, one victim key each, are made outside timing. Each
// timed rep takes the next recording in turn, compacts it v1 -> v2
// (TraceFileReader -> TraceFileWriter, as `trace_convert compact` does)
// and runs run_tvla_job and run_cpa_job (PHPC, known key) in-process over
// both encodings, shard budget min(4, nproc), no chunk cache. CRC, codec
// encode/decode, prefetch and sink ingest do the work. Four keys instead
// of one keep ge_bits, an average over them, steady across seeds.
#include <optional>
#include <sstream>

#include "bench.h"
#include "store/file_trace_source.h"
#include "store/shared_mapping.h"
#include "store/trace_file_reader.h"
#include "util/rng.h"

namespace perfbench {

using namespace psc;

namespace {

constexpr std::size_t recordings = 4;

struct Dataset {
  Fixture fixture;
  std::string v2_path;
  std::shared_ptr<const store::SharedMapping> v1_map;
  bus::CpaJobSpec cpa;
};

// Results of one recording's four jobs in one rep.
struct JobDigests {
  std::uint64_t tvla_v1 = 0;
  std::uint64_t tvla_v2 = 0;
  std::uint64_t cpa_v1 = 0;
  std::uint64_t cpa_v2 = 0;
  double ge_bits = 0.0;

  bool operator==(const JobDigests&) const = default;
};

// The CPA engine of a recording's random-plaintext sets (sets 2 and 5 in
// protocol order), replayed from `path` and analyzed like the live
// campaign's final checkpoint.
core::ModelResult replay_random_sets(const std::string& path,
                                     std::size_t per_set,
                                     const aes::Block& secret) {
  core::CpaEngine engine({power::PowerModel::rd0_hw});
  for (const std::size_t set : {std::size_t{2}, std::size_t{5}}) {
    store::FileTraceSource source(path, set * per_set, per_set);
    const std::size_t column = column_of(source.keys(), "PHPC");
    core::TraceBatch batch(source.keys().size());
    while (source.remaining().value() > 0) {
      batch.clear();
      batch.resize(std::min<std::size_t>(1024, source.remaining().value()));
      source.collect_batch(batch);
      engine.add_batch(batch, column);
    }
  }
  return engine.analyze(power::PowerModel::rd0_hw,
                        aes::Aes128::expand_key(secret));
}

}  // namespace

WorkloadResult run_store_replay(const Options& opts, Tracer& tracer,
                                Tally& tally) {
  const std::size_t workers = default_workers();
  const std::size_t per_set = scaled(opts, 25000, 1024);

  std::vector<Dataset> datasets(recordings);
  util::SplitMix64 seeds(opts.seed);
  for (std::size_t i = 0; i < recordings; ++i) {
    const std::string base =
        opts.work_dir + "/store-replay-" + std::to_string(i);
    Dataset& d = datasets[i];
    d.fixture = record_fixture(base + ".v1.pstr", seeds(), per_set);
    d.v2_path = base + ".v2.pstr";
    d.cpa.channel = util::FourCc("PHPC").code();
    d.cpa.known_key = d.fixture.live.secret;
  }

  // Set-up: dataset open, mmap and structural validation. Each rep
  // reopens its recording three times and replays the last mapping, so
  // the median samples the whole run.
  std::vector<double> setup_s;
  const auto open_dataset = [&](Dataset& d) {
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t t0 = now_ns();
      d.v1_map = store::SharedMapping::open(d.fixture.v1_path);
      const store::TraceFileReader reader(d.v1_map);
      setup_s.push_back(seconds_between(t0, now_ns()));
      tally.op(reader.trace_count() == 6 * per_set, "store-replay: open");
    }
  };

  bus::JobExecOptions exec;
  exec.shard_budget = [workers] { return static_cast<std::uint32_t>(workers); };
  const bus::TvlaJobSpec tvla_spec;

  std::vector<double> latency_ms;
  std::vector<double> rep_rates;  // analysed traces per second, per rep
  double timed_s = 0.0;
  std::uint64_t analysed = 0;
  std::size_t ops = 0;
  double traced_s = 0.0;
  std::uint64_t traced_analysed = 0;
  Tracer off(false);

  // One rep: compaction plus four replay jobs over one recording.
  // `latency` collects each op's wall time; digests are taken outside the
  // op windows.
  const auto rep = [&](std::size_t k, const Dataset& d, bool traced,
                       double& op_s, std::uint64_t& traces,
                       std::vector<double>* latency) {
    Tracer& t = traced ? tracer : off;
    const std::uint64_t job = k + 1;
    const auto timed_op = [&](auto&& fn) {
      const std::uint64_t t0 = now_ns();
      auto result = fn();
      const double dt = seconds_between(t0, now_ns());
      op_s += dt;
      if (latency != nullptr) {
        latency->push_back(dt * 1e3);
      }
      return result;
    };
    const auto v2_map = timed_op([&] {
      compact(d.fixture.v1_path, d.v2_path, t, job);
      return store::SharedMapping::open(d.v2_path);
    });
    const auto tvla = [&](const auto& map, const char* name) {
      return timed_op([&] {
        ScopedSpan span(t, name, job);
        return bus::run_tvla_job(map, tvla_spec, {}, exec);
      });
    };
    const auto cpa = [&](const auto& map, const char* name) {
      return timed_op([&] {
        ScopedSpan span(t, name, job);
        return bus::run_cpa_job(map, d.cpa, {}, exec);
      });
    };
    const bus::TvlaJobResult tvla_v1 = tvla(d.v1_map, "bus.tvla_job_v1");
    const bus::TvlaJobResult tvla_v2 = tvla(v2_map, "bus.tvla_job_v2");
    const bus::CpaJobResult cpa_v1 = cpa(d.v1_map, "bus.cpa_job_v1");
    const bus::CpaJobResult cpa_v2 = cpa(v2_map, "bus.cpa_job_v2");
    traces += 2 * 6 * tvla_v1.traces_per_set + 2 * cpa_v1.traces;
    const JobDigests r{digest(tvla_v1), digest(tvla_v2), digest(cpa_v1),
                       digest(cpa_v2), cpa_v1.models.at(0).ge_bits};
    tally.op(r.tvla_v1 == r.tvla_v2, "store-replay: TVLA v1 != v2");
    tally.op(r.cpa_v1 == r.cpa_v2, "store-replay: CPA v1 != v2");
    return r;
  };

  // Untraced runs measure every rep plainly. Traced runs pair an untraced
  // and a traced rep, swapping which goes first: their gap is the tracing
  // overhead. A recording's bytes never change, so every rep over it must
  // reproduce its first rep bit for bit.
  std::vector<std::optional<JobDigests>> first(recordings);
  const auto check_rep = [&](std::size_t i, const JobDigests& r) {
    if (!first[i]) {
      first[i] = r;
    }
    tally.op(r == *first[i],
             "store-replay: rep results differ from the recording's first");
  };
  PlacementSampler placement(workers);
  for (std::size_t k = 0;
       k < recordings || timed_s + traced_s < opts.seconds; ++k) {
    const std::size_t i = k % recordings;
    open_dataset(datasets[i]);
    const bool traced_first = opts.trace && k % 2 == 1;
    if (traced_first) {
      check_rep(i, rep(k, datasets[i], true, traced_s, traced_analysed,
                       nullptr));
    }
    const double rep_s = timed_s;
    const std::uint64_t rep_traces = analysed;
    check_rep(i, rep(k, datasets[i], false, timed_s, analysed, &latency_ms));
    rep_rates.push_back(static_cast<double>(analysed - rep_traces) /
                        (timed_s - rep_s));
    ops += 5;
    if (opts.trace && !traced_first) {
      check_rep(i, rep(k, datasets[i], true, traced_s, traced_analysed,
                       nullptr));
    }
  }
  placement.stop();

  // Correctness gate, outside timing: per recording, the CPA engine
  // replayed over its random sets equals the live recording run's own
  // engine, from both encodings.
  std::vector<double> random_sets_ge;
  for (const Dataset& d : datasets) {
    std::uint64_t live_digest = 0;
    for (const core::CpaKeyResult& key : d.fixture.live.cpa) {
      if (key.key == util::FourCc("PHPC")) {
        live_digest = digest(key.final_results.at(0));
      }
    }
    for (const std::string& path : {d.fixture.v1_path, d.v2_path}) {
      const core::ModelResult replayed =
          replay_random_sets(path, per_set, d.fixture.live.secret);
      random_sets_ge.push_back(replayed.ge_bits);
      tally.op(digest(replayed) == live_digest,
               "store-replay: replayed CPA engine differs from live "
               "recording (" + path + ")");
    }
  }

  // ge_bits: the CPA jobs' GE over each whole recording, averaged over
  // the recordings. The four fixed-plaintext sets keep it near a random
  // guess, but it repeats exactly at a seed.
  std::vector<double> ge;
  for (const std::optional<JobDigests>& r : first) {
    ge.push_back(r->ge_bits);
  }

  WorkloadResult out;
  out.probe_v1_path = datasets[0].fixture.v1_path;
  out.probe_secret = datasets[0].fixture.live.secret;
  out.end_to_end["setup_s"] = median(setup_s);
  // Rates from the median rep, like live-aes.
  const double rate = median(rep_rates);
  out.end_to_end["traces_per_s"] = rate;
  out.end_to_end["jobs_per_s"] =
      rate * static_cast<double>(ops) / static_cast<double>(analysed);
  out.end_to_end["job_latency_p50_ms"] = percentile(latency_ms, 0.5);
  out.end_to_end["job_latency_p90_ms"] = percentile(latency_ms, 0.9);
  out.end_to_end["ge_bits"] = mean(ge);
  out.end_to_end["peak_rss_mb"] = peak_rss_mb();

  std::ostringstream note;
  note << "store-replay reps=" << rep_rates.size() << " ops=" << ops
       << " recordings=" << recordings << " traces_per_recording="
       << 6 * per_set << " workers=" << workers
       << " latency_samples=" << latency_ms.size()
       << " random_sets_ge_bits=" << mean(random_sets_ge);
  out.notes.push_back(note.str());
  out.notes.push_back(placement.note());

  if (opts.trace) {
    double append_ns = 0.0;
    double appended = 0.0;
    double chunk_us = 0.0;
    double chunks = 0.0;
    for (const Span& s : tracer.spans()) {
      if (s.name == "store.append") {
        append_ns += s.ms() * 1e6;
        appended += static_cast<double>(s.items);
      } else if (s.name == "store.chunk_v1") {
        chunk_us += s.ms() * 1e3;
        chunks += 1.0;
      }
    }
    out.layers["store.append_ns_per_trace"] = append_ns / appended;
    out.layers["store.chunk_v1_us"] = chunk_us / chunks;
    const double plain_tps = static_cast<double>(analysed) / timed_s;
    const double traced_tps = static_cast<double>(traced_analysed) / traced_s;
    out.layers["bench.tracing_overhead_pct"] =
        100.0 * (plain_tps - traced_tps) / plain_tps;
  }
  return out;
}

}  // namespace perfbench
