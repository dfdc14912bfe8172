// perfbench: the repository benchmark. One binary runs one named workload
// (live-aes, store-replay or bus-mixed) for a fixed number of seconds,
// checks that every result it produced is correct, and prints its metrics
// as one JSON object on the last line of stdout. See perfbench/README.md.
//
// The benchmark drives the library only through public entry points and
// records its spans from its own code, around those calls.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "aes/aes128.h"
#include "bus/jobs.h"
#include "bus/scenario_jobs.h"
#include "core/cpa.h"
#include "scenario/runner.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Multiplier on every input size; the smoke test shrinks it.
  double scale = 1.0;
  // Scratch directory inside the checkout (fixtures, sockets, spans).
  std::string work_dir;
};

// Shard-parallel execution width of every workload: min(4, hardware
// threads).
std::size_t default_workers();

// `base` scaled by opts.scale, never below `floor`.
std::size_t scaled(const Options& opts, std::size_t base, std::size_t floor);

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_between(std::uint64_t start, std::uint64_t end) {
  return static_cast<double>(end - start) * 1e-9;
}

// ---------- spans ----------

struct Span {
  std::string name;  // "<layer>.<what>", e.g. "victim.collect_batch"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t job = 0;     // campaign / job the span belongs to
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t items = 0;  // traces (or chunks) the span processed
  int cpu = -1;             // sched_getcpu() at span start, when sampled

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

// In-memory span store. Disabled tracers record nothing, so the untraced
// run pays only for the branch. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  std::uint64_t next_id() noexcept { return ++ids_; }
  void record(Span span);
  std::vector<Span> spans() const;

  // Self time per layer (span duration minus the part of it covered by
  // child spans), summed by the layer prefix of the span name, in ms.
  std::map<std::string, double> self_ms_by_layer() const;

  // Writes a summary line and one JSON line per span.
  void write_jsonl(const std::string& path, const std::string& header) const;

 private:
  bool enabled_;
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span: starts at construction, recorded at destruction. Spans opened
// on one thread nest through a thread-local parent; spans started on
// another thread name their parent explicitly.
class ScopedSpan {
 public:
  static constexpr std::uint64_t inherit = ~std::uint64_t{0};

  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t job = 0,
             std::uint64_t parent = inherit);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(std::uint64_t items) noexcept { span_.items = items; }
  void sample_cpu() noexcept;
  std::uint64_t id() const noexcept { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
  std::uint64_t saved_parent_ = 0;
};

// ---------- results ----------

using MetricValues = std::map<std::string, double>;

// Operations attempted and failed in one run. Failed ops are failed jobs,
// typed errors and correctness mismatches; each is also logged to stderr.
class Tally {
 public:
  void op(bool ok, const std::string& what);
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct WorkloadResult {
  MetricValues end_to_end;
  MetricValues layers;
  // "key=value" diagnostics printed before the JSON line (sample counts,
  // ratio bases, placement verdict).
  std::vector<std::string> notes;
  // The workload's recording, for the traced run's layer probes; empty
  // when the workload records none (the probes then record their own).
  std::string probe_v1_path;
  psc::aes::Block probe_secret{};
};

// ---------- digests ----------

// FNV-1a over the bit patterns of every result value: two results digest
// equal only if every double is bit-identical.
std::uint64_t digest(const psc::core::ModelResult& result);
std::uint64_t digest(const psc::scenario::ScenarioRunResult& result);
std::uint64_t digest(const psc::bus::CpaJobResult& result);
std::uint64_t digest(const psc::bus::TvlaJobResult& result);

// ---------- statistics ----------

double median(std::vector<double> values);
// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
double peak_rss_mb();

// Samples /proc/self/task/*/stat while alive: which CPUs the busy threads
// ran on, per sampling interval. Stopped and joined by stop() or the
// destructor.
class PlacementSampler {
 public:
  explicit PlacementSampler(std::size_t workers);
  ~PlacementSampler();
  PlacementSampler(const PlacementSampler&) = delete;
  PlacementSampler& operator=(const PlacementSampler&) = delete;

  void stop();
  // "placement cpus_seen=... utilization=... placement_stalled=..."
  std::string note() const;

 private:
  void loop();
  // Median, over intervals in which at least two threads ran, of the
  // distinct CPUs those threads ran on.
  double cpus_seen() const;
  // Process CPU time over (wall time x workers) while sampling.
  double utilization() const;

  std::size_t workers_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t stop_ns_ = 0;
  double cpu_start_s_ = 0.0;
  double cpu_stop_s_ = 0.0;
  std::vector<double> per_interval_;
  std::mutex mu_;  // guards stopping_ and per_interval_
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;  // last: it uses every member above
};

// ---------- fixtures and layers shared by the workloads ----------

// One aes-power-user recording in TVLA protocol order (six equal sets),
// made with run_scenario's --record path (shards = 1, workers = 1).
struct Fixture {
  std::string v1_path;
  psc::scenario::ScenarioRunResult live;  // the recording run's own result
};

Fixture record_fixture(const std::string& path, std::uint64_t seed,
                       std::size_t per_set);

// v1 -> v2 (delta_bitpack on every channel), exactly what
// `trace_convert compact` does. Spans: store.chunk_v1 per read chunk and
// store.append per appended chunk, under one store.compact span.
void compact(const std::string& v1_path, const std::string& v2_path,
             Tracer& tracer, std::uint64_t job);

// Channel column index of `key` in a dataset / scenario channel list.
std::size_t column_of(const std::vector<psc::util::FourCc>& channels,
                      const char* key);

// A wrapping Scenario whose make_source returns a timing TraceSource:
// spans scenario.make_source, victim.collect_batch (CPU-sampled) and one
// core.shard span per source lifetime, all tagged with `job` and parented
// to `campaign_span`.
std::unique_ptr<psc::scenario::Scenario> timed_scenario(
    const psc::scenario::Scenario& inner, Tracer& tracer, std::uint64_t job,
    std::uint64_t campaign_span);

// Per-layer numbers of live campaigns from their spans: victim.*,
// scenario.make_source_ms, core.pool_utilization, core.shard_skew and
// core.cpus_seen. `workers` is the campaigns' worker count.
MetricValues live_span_metrics(const std::vector<Span>& spans,
                               std::size_t workers);

// Layer probes: times the public store, victim, AES, leakage, CRC, sink,
// merge and analyze classes directly on the workload's own inputs (the
// rows and plaintexts of `v1_path`). Reproduces every row of the ROADMAP
// baseline table.
struct ProbeInputs {
  std::string v1_path;
  std::string scratch_v2_path;  // written by the append probe
  psc::aes::Block secret{};
  std::uint64_t seed = 1;
  std::size_t max_rows = 0;
};
MetricValues run_layer_probes(const ProbeInputs& in, Tracer& tracer);

// A live campaign probe through timed_scenario: fills the live_span_metrics
// for workloads that run no live shards themselves.
MetricValues run_live_probe(const Options& opts, Tracer& tracer);

// ---------- bus sessions ----------

struct BusSessionConfig {
  std::string socket_path;
  std::string dataset_path;  // v2 fixture, registered as "fixture"
  psc::aes::Block known_key{};
  std::size_t clients = 4;
  std::size_t workers = 4;
  double seconds = 10.0;
  std::size_t max_jobs_per_client = 0;  // 0 = run until `seconds` pass
  std::size_t scenario_per_set = 1000;
  // Timed daemon starts (setup_s is their median): the serving daemon's
  // plus start/stop cycles, half before and half after the session.
  std::size_t daemon_starts = 5;
  std::uint64_t seed = 1;
  bool traced = false;  // adds per-job pings and a STATS sampler
};

enum class JobKind { cpa, tvla, scenario };

struct BusJobRecord {
  std::size_t client = 0;
  std::size_t index = 0;  // position in the client's seeded plan
  JobKind kind = JobKind::cpa;
  psc::bus::CpaJobSpec cpa;
  psc::bus::TvlaJobSpec tvla;
  psc::bus::ScenarioJobSpec scenario;
  std::uint64_t id = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t accepted_ns = 0;
  std::uint64_t started_ns = 0;  // first PROGRESS showing work
  std::uint64_t done_ns = 0;     // JOB_DONE
  std::uint64_t fetched_ns = 0;  // result decoded
  std::uint64_t ping_ns = 0;     // traced sessions only
  std::uint64_t traces = 0;
  std::uint64_t digest = 0;
  double ge_bits = 0.0;  // scenario jobs with CPA: rd0_hw GE on PHPC
  bool ok = false;
};

struct BusSessionResult {
  std::vector<BusJobRecord> jobs;
  double setup_s = 0.0;
  std::uint64_t start_ns = 0;  // clients started
  double wall_s = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint32_t scenario_peak_shards = 0;
  std::uint32_t dataset_peak_shards = 0;
};

BusSessionResult run_bus_session(const BusSessionConfig& config,
                                 Tracer& tracer, Tally& tally);

// bus.* per-layer metrics of a (traced) session.
MetricValues bus_layer_metrics(const BusSessionResult& session);

// ---------- workloads ----------

WorkloadResult run_live_aes(const Options& opts, Tracer& tracer, Tally& tally);
WorkloadResult run_store_replay(const Options& opts, Tracer& tracer,
                                Tally& tally);
WorkloadResult run_bus_mixed(const Options& opts, Tracer& tracer,
                             Tally& tally);

}  // namespace perfbench
