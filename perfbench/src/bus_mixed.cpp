// bus-mixed: an in-process BusDaemon on a Unix socket with the v2 fixture
// registered and the default chunk cache, driven by closed-loop BusClient
// connections. Each client runs a seeded plan that mixes replay CPA/TVLA
// jobs of varied trace counts with small SUBMIT_SCENARIO jobs across all
// five built-ins: submit -> watch -> fetch result. Framing, queueing, the
// fair-share scheduler and the ChunkCache only matter here.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "bench.h"
#include "bus/client.h"
#include "bus/daemon.h"
#include "bus/scenario_jobs.h"
#include "store/shared_mapping.h"
#include "store/trace_file_reader.h"
#include "util/rng.h"

namespace perfbench {

using namespace psc;

namespace {

constexpr const char* dataset_name = "fixture";
constexpr util::FourCc cpa_channels[] = {
    util::FourCc("PHPC"), util::FourCc("PDTR"), util::FourCc("PMVC"),
    util::FourCc("PSTR")};
constexpr const char* scenario_names[] = {"aes-power-user", "aes-power-kernel",
                                          "cache-timing", "dvfs-frequency",
                                          "sqmul-timing"};
// Jobs per plan cycle: 3 CPA, 2 TVLA, one scenario job per built-in.
constexpr std::size_t cycle_jobs = 10;

// A client's seeded job sequence. Every cycle holds the same ten job
// shapes in a seeded order with seeded channels and scenario seeds, so
// the mix per cycle is fixed while its order and parameters vary by seed.
class JobPlan {
 public:
  JobPlan(const BusSessionConfig& config, std::size_t client,
          std::uint64_t dataset_traces)
      : config_(config),
        client_(client),
        traces_(dataset_traces),
        rng_(util::SplitMix64(config.seed ^ (0x5bd1e995ull * (client + 1)))()) {}

  BusJobRecord next() {
    if (pending_.empty()) {
      refill();
    }
    BusJobRecord job = pending_.front();
    pending_.erase(pending_.begin());
    job.client = client_;
    job.index = issued_++;
    return job;
  }

 private:
  void refill() {
    std::vector<BusJobRecord> cycle(cycle_jobs);
    const auto channel = [&] {
      return cpa_channels[rng_.uniform_u64(4)].code();
    };
    for (std::size_t i = 0; i < 3; ++i) {
      BusJobRecord& j = cycle[i];
      j.kind = JobKind::cpa;
      j.cpa.channel = i == 0 ? util::FourCc("PHPC").code() : channel();
      j.cpa.known_key = config_.known_key;
      j.cpa.trace_count = i == 0 ? 0 : traces_ >> i;
    }
    for (std::size_t i = 0; i < 2; ++i) {
      BusJobRecord& j = cycle[3 + i];
      j.kind = JobKind::tvla;
      j.tvla.traces_per_set = i == 0 ? 0 : traces_ / 12;
    }
    for (std::size_t i = 0; i < 5; ++i) {
      BusJobRecord& j = cycle[5 + i];
      j.kind = JobKind::scenario;
      j.scenario.scenario = scenario_names[i];
      j.scenario.traces_per_set = config_.scenario_per_set;
      j.scenario.seed = rng_();
    }
    for (std::size_t i = cycle.size() - 1; i > 0; --i) {
      std::swap(cycle[i], cycle[rng_.uniform_u64(i + 1)]);
    }
    pending_ = std::move(cycle);
  }

  const BusSessionConfig& config_;
  std::size_t client_;
  std::uint64_t traces_;
  util::Xoshiro256 rng_;
  std::vector<BusJobRecord> pending_;
  std::size_t issued_ = 0;
};

// submit -> watch -> fetch one job on `client`, timestamps into `job`.
void run_job(bus::BusClient& client, BusJobRecord& job, bool traced,
             std::mutex& kinds_mu,
             std::map<std::uint64_t, JobKind>& kinds) {
  if (traced) {
    const std::uint64_t t0 = now_ns();
    client.ping();
    job.ping_ns = now_ns() - t0;
  }
  job.submit_ns = now_ns();
  switch (job.kind) {
    case JobKind::cpa:
      job.id = client.submit_cpa(dataset_name, job.cpa);
      break;
    case JobKind::tvla:
      job.id = client.submit_tvla(dataset_name, job.tvla);
      break;
    case JobKind::scenario:
      job.id = client.submit_scenario(job.scenario);
      break;
  }
  job.accepted_ns = now_ns();
  {
    std::lock_guard<std::mutex> lock(kinds_mu);
    kinds[job.id] = job.kind;
  }
  const bus::JobStatusMsg status =
      client.watch(job.id, [&job](const bus::ProgressMsg& p) {
        if (job.started_ns == 0 && (p.running_shards > 0 || p.consumed > 0)) {
          job.started_ns = now_ns();
        }
      });
  job.done_ns = now_ns();
  if (job.started_ns == 0) {
    job.started_ns = job.done_ns;
  }
  if (status.state != bus::JobState::done) {
    throw std::runtime_error("job " + std::to_string(job.id) +
                             " failed: " + status.error);
  }
  switch (job.kind) {
    case JobKind::cpa: {
      const bus::CpaJobResult r = client.cpa_result(job.id);
      job.traces = r.traces;
      job.digest = digest(r);
      break;
    }
    case JobKind::tvla: {
      const bus::TvlaJobResult r = client.tvla_result(job.id);
      job.traces = 6 * r.traces_per_set;
      job.digest = digest(r);
      break;
    }
    case JobKind::scenario: {
      const bus::ScenarioJobResult r = client.scenario_result(job.id);
      job.traces = 6 * r.traces_per_set;
      job.digest = digest(r);
      for (const core::CpaKeyResult& key : r.cpa) {
        if (key.key == util::FourCc("PHPC")) {
          job.ge_bits = key.final_results.at(0).ge_bits;
        }
      }
      break;
    }
  }
  job.fetched_ns = now_ns();
  job.ok = true;
}

const char* kind_name(JobKind kind) {
  switch (kind) {
    case JobKind::cpa:
      return "cpa";
    case JobKind::tvla:
      return "tvla";
    case JobKind::scenario:
      return "scenario";
  }
  return "?";
}

void record_job_spans(Tracer& tracer, const BusJobRecord& job) {
  const auto add = [&](const char* name, std::uint64_t begin,
                       std::uint64_t end, std::uint64_t parent) {
    Span s;
    s.name = name;
    s.id = tracer.next_id();
    s.parent = parent;
    s.job = job.id;
    s.start_ns = begin;
    s.end_ns = end;
    s.items = job.traces;
    tracer.record(s);
    return s.id;
  };
  const std::uint64_t root =
      add("bus.job", job.ping_ns != 0 ? job.submit_ns - job.ping_ns
                                      : job.submit_ns,
          job.fetched_ns, 0);
  if (job.ping_ns != 0) {
    add("bus.ping", job.submit_ns - job.ping_ns, job.submit_ns, root);
  }
  add("bus.submit", job.submit_ns, job.accepted_ns, root);
  add("bus.queue_wait", job.accepted_ns, job.started_ns, root);
  add("bus.run", job.started_ns, job.done_ns, root);
  add("bus.fetch", job.done_ns, job.fetched_ns, root);
}

}  // namespace

BusSessionResult run_bus_session(const BusSessionConfig& config,
                                 Tracer& tracer, Tally& tally) {
  BusSessionResult out;
  std::error_code ec;
  std::filesystem::remove(config.socket_path, ec);

  bus::BusDaemonConfig daemon_config;
  daemon_config.socket_path = config.socket_path;
  daemon_config.pool_reserve = config.workers;
  daemon_config.datasets = {{dataset_name, config.dataset_path}};

  // Set-up: daemon start, dataset open and registration, socket bind.
  // Timed for start/stop cycles before and after the session and for the
  // serving daemon's own start, so the median samples the whole run.
  std::vector<double> setup_s;
  const auto start_daemon = [&] {
    const std::uint64_t t0 = now_ns();
    auto daemon = std::make_unique<bus::BusDaemon>(daemon_config);
    daemon->start();
    setup_s.push_back(seconds_between(t0, now_ns()));
    return daemon;
  };
  const auto cycle_starts = [&] {
    for (std::size_t i = 0; i < config.daemon_starts / 2; ++i) {
      start_daemon()->stop();
    }
  };
  cycle_starts();
  const std::unique_ptr<bus::BusDaemon> daemon = start_daemon();

  const std::uint64_t dataset_traces =
      store::TraceFileReader(config.dataset_path).trace_count();
  bus::BusClient admin(config.socket_path);
  const bus::StatsMsg before = admin.stats();

  std::mutex kinds_mu;
  std::map<std::uint64_t, JobKind> kinds;
  std::atomic<bool> clients_done{false};
  std::mutex records_mu;
  const std::uint64_t start = now_ns();
  out.start_ns = start;

  std::vector<std::thread> threads;
  // Joins the client threads on every path out of this scope; they stop
  // on their own once the session's time or job budget is spent.
  struct JoinAll {
    std::vector<std::thread>& threads;
    ~JoinAll() {
      for (std::thread& t : threads) {
        if (t.joinable()) {
          t.join();
        }
      }
    }
  } join_clients{threads};
  for (std::size_t c = 0; c < config.clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<BusJobRecord> mine;
      try {
        bus::BusClient client(config.socket_path);
        JobPlan plan(config, c, dataset_traces);
        for (std::size_t i = 0;; ++i) {
          if (config.max_jobs_per_client != 0
                  ? i >= config.max_jobs_per_client
                  : seconds_between(start, now_ns()) >= config.seconds) {
            break;
          }
          BusJobRecord job = plan.next();
          try {
            run_job(client, job, config.traced, kinds_mu, kinds);
          } catch (const std::exception& e) {
            job.ok = false;
            std::cerr << "perfbench: bus job error: " << e.what() << "\n";
          }
          tally.op(job.ok, std::string("bus: served ") + kind_name(job.kind) +
                               " job");
          mine.push_back(std::move(job));
        }
      } catch (const std::exception& e) {
        tally.op(false, std::string("bus client: ") + e.what());
      }
      std::lock_guard<std::mutex> lock(records_mu);
      for (BusJobRecord& job : mine) {
        out.jobs.push_back(std::move(job));
      }
    });
  }

  // Traced sessions sample STATS for peak running shards per job kind.
  std::thread sampler;
  if (config.traced) {
    sampler = std::thread([&] {
      try {
        bus::BusClient client(config.socket_path);
        while (!clients_done.load(std::memory_order_acquire)) {
          const bus::StatsMsg stats = client.stats();
          std::lock_guard<std::mutex> lock(kinds_mu);
          for (const bus::StatsMsg::JobRow& row : stats.jobs) {
            const auto it = kinds.find(row.id);
            if (it == kinds.end()) {
              continue;
            }
            std::uint32_t& peak = it->second == JobKind::scenario
                                      ? out.scenario_peak_shards
                                      : out.dataset_peak_shards;
            peak = std::max(peak, row.peak_shards);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      } catch (const std::exception& e) {
        tally.op(false, std::string("bus stats sampler: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  out.wall_s = seconds_between(start, now_ns());
  clients_done.store(true, std::memory_order_release);
  if (sampler.joinable()) {
    sampler.join();
  }

  const bus::StatsMsg after = admin.stats();
  out.cache_hits = after.cache_hits - before.cache_hits;
  out.cache_misses = after.cache_misses - before.cache_misses;
  daemon->stop();
  cycle_starts();
  out.setup_s = median(setup_s);

  std::sort(out.jobs.begin(), out.jobs.end(), [](const auto& a, const auto& b) {
    return std::tie(a.client, a.index) < std::tie(b.client, b.index);
  });
  if (tracer.enabled()) {
    for (const BusJobRecord& job : out.jobs) {
      if (job.ok) {
        record_job_spans(tracer, job);
      }
    }
  }
  return out;
}

MetricValues bus_layer_metrics(const BusSessionResult& session) {
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::vector<double> fetch_ms;
  std::vector<double> ping_us;
  for (const BusJobRecord& job : session.jobs) {
    if (!job.ok) {
      continue;
    }
    queue_ms.push_back(static_cast<double>(job.started_ns - job.accepted_ns) *
                       1e-6);
    run_ms.push_back(static_cast<double>(job.done_ns - job.started_ns) * 1e-6);
    fetch_ms.push_back(static_cast<double>(job.fetched_ns - job.done_ns) *
                       1e-6);
    if (job.ping_ns != 0) {
      ping_us.push_back(static_cast<double>(job.ping_ns) * 1e-3);
    }
  }
  const double lookups =
      static_cast<double>(session.cache_hits + session.cache_misses);
  MetricValues out;
  out["bus.queue_wait_ms"] = percentile(queue_ms, 0.9);
  out["bus.run_ms"] = median(run_ms);
  out["bus.fetch_ms"] = median(fetch_ms);
  out["bus.ping_us"] = median(ping_us);
  out["bus.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(session.cache_hits) / lookups : 0.0;
  out["bus.cache_lookups"] = lookups;
  out["bus.scenario_peak_shards"] = session.scenario_peak_shards;
  out["bus.dataset_peak_shards"] = session.dataset_peak_shards;
  return out;
}

namespace {

// Reruns a seeded sample of served jobs in-process, one of each kind
// first, and counts each bit-identity comparison in `tally`.
void verify_served_sample(const BusSessionResult& session,
                          const std::string& dataset_path, std::uint64_t seed,
                          std::size_t samples, Tally& tally) {
  std::vector<const BusJobRecord*> ok;
  for (const BusJobRecord& job : session.jobs) {
    if (job.ok) {
      ok.push_back(&job);
    }
  }
  util::Xoshiro256 rng(seed ^ 0x7665726966790000ull);
  for (std::size_t i = ok.size(); i > 1; --i) {
    std::swap(ok[i - 1], ok[rng.uniform_u64(i)]);
  }
  std::set<JobKind> seen;
  std::vector<const BusJobRecord*> sample;
  std::vector<const BusJobRecord*> rest;
  for (const BusJobRecord* job : ok) {
    (seen.insert(job->kind).second ? sample : rest).push_back(job);
  }
  sample.insert(sample.end(), rest.begin(), rest.end());
  const auto mapping = store::SharedMapping::open(dataset_path);
  for (std::size_t i = 0; i < std::min(samples, sample.size()); ++i) {
    const BusJobRecord& job = *sample[i];
    std::uint64_t local = 0;
    switch (job.kind) {
      case JobKind::cpa:
        local = digest(bus::run_cpa_job(mapping, job.cpa));
        break;
      case JobKind::tvla:
        local = digest(bus::run_tvla_job(mapping, job.tvla));
        break;
      case JobKind::scenario:
        local = digest(bus::run_scenario_job(job.scenario, {},
                                             default_workers()));
        break;
    }
    tally.op(local == job.digest,
             std::string("bus: served ") + kind_name(job.kind) + " job " +
                 std::to_string(job.id) + " differs from in-process rerun");
  }
}

// Throughput and latency of a session, each the median over consecutive
// groups of 100 completed jobs (in result-fetch order; a trailing partial
// group is dropped). Group g spans from the previous group's last fetch
// (the session start for the first) to its own last fetch. A burst of host
// load that slows a few groups moves none of the four numbers, where
// totals over the session would absorb it.
struct GroupStats {
  double traces_per_s = 0.0;
  double jobs_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::size_t groups = 0;
};

GroupStats group_stats(const BusSessionResult& session) {
  constexpr std::size_t group_jobs = 100;
  std::vector<const BusJobRecord*> done;
  for (const BusJobRecord& job : session.jobs) {
    if (job.ok) {
      done.push_back(&job);
    }
  }
  std::sort(done.begin(), done.end(), [](const auto* a, const auto* b) {
    return a->fetched_ns < b->fetched_ns;
  });
  const std::size_t size = std::min(group_jobs, done.size());
  std::vector<double> tps, jps, p50, p90;
  std::uint64_t begin_ns = session.start_ns;
  for (std::size_t g = 0; size > 0 && (g + 1) * size <= done.size(); ++g) {
    double traces = 0.0;
    std::vector<double> latency_ms;
    for (std::size_t i = g * size; i < (g + 1) * size; ++i) {
      traces += static_cast<double>(done[i]->traces);
      latency_ms.push_back(
          static_cast<double>(done[i]->fetched_ns - done[i]->submit_ns) * 1e-6);
    }
    const std::uint64_t end_ns = done[(g + 1) * size - 1]->fetched_ns;
    const double span = seconds_between(begin_ns, end_ns);
    begin_ns = end_ns;
    tps.push_back(traces / span);
    jps.push_back(static_cast<double>(size) / span);
    p50.push_back(percentile(latency_ms, 0.5));
    p90.push_back(percentile(latency_ms, 0.9));
  }
  return {median(tps), median(jps), median(p50), median(p90), tps.size()};
}

}  // namespace

WorkloadResult run_bus_mixed(const Options& opts, Tracer& tracer,
                             Tally& tally) {
  const std::size_t workers = default_workers();
  const std::size_t per_set = scaled(opts, 100000, 2048);
  const std::string v1_path = opts.work_dir + "/bus-mixed.v1.pstr";
  const std::string v2_path = opts.work_dir + "/bus-mixed.v2.pstr";
  const Fixture fixture = record_fixture(v1_path, opts.seed, per_set);
  Tracer off(false);
  compact(v1_path, v2_path, off, 0);

  BusSessionConfig config;
  config.socket_path = opts.work_dir + "/bus.sock";
  config.dataset_path = v2_path;
  config.known_key = fixture.live.secret;
  config.clients = 4;
  config.workers = workers;
  config.seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
  config.scenario_per_set = scaled(opts, 1000, 256);
  config.daemon_starts = 15;
  config.seed = opts.seed;

  PlacementSampler placement(workers);
  const BusSessionResult plain = run_bus_session(config, off, tally);
  placement.stop();
  verify_served_sample(plain, v2_path, opts.seed, 6, tally);

  std::vector<double> latency_ms;
  std::uint64_t traces = 0;
  std::size_t ok_jobs = 0;
  std::map<std::string, std::size_t> per_kind;
  // ge_bits: mean PHPC GE of the served aes-power-user jobs among each
  // client's first plan positions — a fixed set of jobs, so the value
  // repeats exactly at a seed, and many keys, so it is steady across seeds.
  constexpr std::size_t ge_positions = 40;
  std::vector<double> ge;
  for (const BusJobRecord& job : plain.jobs) {
    if (!job.ok) {
      continue;
    }
    ++ok_jobs;
    ++per_kind[kind_name(job.kind)];
    traces += job.traces;
    latency_ms.push_back(static_cast<double>(job.fetched_ns - job.submit_ns) *
                         1e-6);
    if (job.index < ge_positions && job.kind == JobKind::scenario &&
        job.scenario.scenario == "aes-power-user") {
      ge.push_back(job.ge_bits);
    }
  }

  WorkloadResult out;
  out.probe_v1_path = v1_path;
  out.probe_secret = fixture.live.secret;
  out.end_to_end["setup_s"] = plain.setup_s;
  const GroupStats groups = group_stats(plain);
  out.end_to_end["traces_per_s"] = groups.traces_per_s;
  out.end_to_end["jobs_per_s"] = groups.jobs_per_s;
  out.end_to_end["job_latency_p50_ms"] = groups.p50_ms;
  out.end_to_end["job_latency_p90_ms"] = groups.p90_ms;
  out.end_to_end["ge_bits"] = mean(ge);
  out.end_to_end["peak_rss_mb"] = peak_rss_mb();

  std::ostringstream note;
  note << "bus-mixed jobs=" << ok_jobs << " groups=" << groups.groups
       << " session_p50_ms=" << percentile(latency_ms, 0.5)
       << " session_p90_ms=" << percentile(latency_ms, 0.9)
       << " session_traces_per_s="
       << static_cast<double>(traces) / plain.wall_s
       << " clients=" << config.clients << " workers=" << workers;
  for (const auto& [kind, n] : per_kind) {
    note << " " << kind << "=" << n;
  }
  note << " cache_hits=" << plain.cache_hits
       << " cache_misses=" << plain.cache_misses;
  out.notes.push_back(note.str());
  out.notes.push_back(placement.note());

  if (opts.trace) {
    config.traced = true;
    const BusSessionResult traced = run_bus_session(config, tracer, tally);
    // Both sessions walk the same seeded plans: every job present in both
    // must have produced the same result.
    std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> expected;
    for (const BusJobRecord& job : plain.jobs) {
      if (job.ok) {
        expected[{job.client, job.index}] = job.digest;
      }
    }
    for (const BusJobRecord& job : traced.jobs) {
      const auto it = expected.find({job.client, job.index});
      if (job.ok && it != expected.end()) {
        tally.op(it->second == job.digest,
                 "bus-mixed: traced session result differs from untraced");
      }
    }
    out.layers = bus_layer_metrics(traced);
    std::uint64_t traced_traces = 0;
    for (const BusJobRecord& job : traced.jobs) {
      traced_traces += job.ok ? job.traces : 0;
    }
    const double plain_tps = static_cast<double>(traces) / plain.wall_s;
    const double traced_tps =
        static_cast<double>(traced_traces) / traced.wall_s;
    out.layers["bench.tracing_overhead_pct"] =
        100.0 * (plain_tps - traced_tps) / plain_tps;
  }
  return out;
}

}  // namespace perfbench
