#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "bench.h"
#include "core/trace_source.h"
#include "scenario/registry.h"
#include "store/trace_file_reader.h"
#include "store/trace_file_writer.h"

namespace perfbench {

using namespace psc;

std::size_t default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

std::size_t scaled(const Options& opts, std::size_t base, std::size_t floor) {
  const auto n = static_cast<std::size_t>(
      std::llround(static_cast<double>(base) * opts.scale));
  return std::max(n, floor);
}

// ---------- spans ----------

namespace {
thread_local std::uint64_t t_current_span = 0;
}  // namespace

void Tracer::record(Span span) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const Span& s : all) {
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (const Span& s : all) {
    std::uint64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur_begin = 0;
      std::uint64_t cur_end = 0;
      bool open = false;
      for (auto [b, e] : iv) {
        b = std::clamp(b, s.start_ns, s.end_ns);
        e = std::clamp(e, s.start_ns, s.end_ns);
        if (open && b <= cur_end) {
          cur_end = std::max(cur_end, e);
          continue;
        }
        if (open) {
          covered += cur_end - cur_begin;
        }
        cur_begin = b;
        cur_end = e;
        open = true;
      }
      if (open) {
        covered += cur_end - cur_begin;
      }
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-6;
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path,
                         const std::string& header) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write span file " + path);
  }
  out << header << "\n";
  for (const Span& s : spans()) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"job\":" << s.job
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"items\":" << s.items << ",\"cpu\":" << s.cpu << "}\n";
  }
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, std::uint64_t job,
                       std::uint64_t parent)
    : tracer_(tracer) {
  if (!tracer_.enabled()) {
    return;
  }
  span_.name = name;
  span_.id = tracer_.next_id();
  span_.job = job;
  span_.parent = parent == inherit ? t_current_span : parent;
  saved_parent_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!tracer_.enabled()) {
    return;
  }
  span_.end_ns = now_ns();
  t_current_span = saved_parent_;
  tracer_.record(std::move(span_));
}

void ScopedSpan::sample_cpu() noexcept {
  if (tracer_.enabled()) {
    span_.cpu = sched_getcpu();
  }
}

// ---------- results ----------

void Tally::op(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: FAILED: " << what << "\n";
  }
}

namespace {

class Digest {
 public:
  void bytes(const void* data, std::size_t size) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) noexcept { bytes(&v, sizeof v); }
  void f64(double v) noexcept { bytes(&v, sizeof v); }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void add_model(Digest& d, const core::ModelResult& r) {
  d.u64(static_cast<std::uint64_t>(r.model));
  for (const core::ByteRanking& byte : r.bytes) {
    d.bytes(byte.correlation.data(), sizeof(double) * byte.correlation.size());
  }
  d.bytes(r.true_ranks.data(), sizeof(int) * r.true_ranks.size());
  d.bytes(r.scored_key.data(), r.scored_key.size());
  d.f64(r.ge_bits);
  d.f64(r.mean_rank);
  d.bytes(r.best_round_key.data(), r.best_round_key.size());
  d.bytes(r.implied_master_key.data(), r.implied_master_key.size());
  d.u64(static_cast<std::uint64_t>(r.recovered_bytes));
  d.u64(static_cast<std::uint64_t>(r.near_recovered_bytes));
}

void add_tvla(Digest& d, const std::vector<core::TvlaChannelResult>& tvla) {
  for (const core::TvlaChannelResult& c : tvla) {
    d.bytes(c.channel.data(), c.channel.size());
    for (const auto& row : c.matrix.t) {
      d.bytes(row.data(), sizeof(double) * row.size());
    }
  }
}

}  // namespace

std::uint64_t digest(const core::ModelResult& result) {
  Digest d;
  add_model(d, result);
  return d.value();
}

std::uint64_t digest(const scenario::ScenarioRunResult& result) {
  Digest d;
  d.bytes(result.scenario.data(), result.scenario.size());
  d.bytes(result.secret.data(), result.secret.size());
  d.u64(result.traces_per_set);
  d.u64(result.cpa_trace_count);
  for (const util::FourCc key : result.channels) {
    d.bytes(key.str().data(), 4);
  }
  add_tvla(d, result.tvla);
  for (const core::CpaKeyResult& key : result.cpa) {
    d.bytes(key.key.str().data(), 4);
    for (const core::ModelResult& m : key.final_results) {
      add_model(d, m);
    }
    for (const auto& curve : key.curves) {
      for (const core::GeCurvePoint& p : curve) {
        d.u64(p.traces);
        d.f64(p.ge_bits);
        d.f64(p.mean_rank);
        d.u64(static_cast<std::uint64_t>(p.recovered_bytes));
      }
    }
  }
  return d.value();
}

std::uint64_t digest(const bus::CpaJobResult& result) {
  Digest d;
  d.u64(result.traces);
  for (const core::ModelResult& m : result.models) {
    add_model(d, m);
  }
  return d.value();
}

std::uint64_t digest(const bus::TvlaJobResult& result) {
  Digest d;
  d.u64(result.traces_per_set);
  add_tvla(d, result.channels);
  return d.value();
}

// ---------- statistics ----------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

// (tid -> (utime + stime ticks, last CPU)) for every thread of the process.
std::map<long, std::pair<long, int>> read_tasks() {
  std::map<long, std::pair<long, int>> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream in(entry.path() / "stat");
    std::string line;
    if (!std::getline(in, line)) {
      continue;
    }
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) {
      continue;
    }
    std::istringstream fields(line.substr(close + 2));
    std::vector<std::string> f;
    for (std::string tok; fields >> tok;) {
      f.push_back(tok);
    }
    // Fields after "(comm)": state is index 0, utime 11, stime 12,
    // processor 36 (proc(5) numbering 3, 14, 15 and 39).
    if (f.size() <= 36) {
      continue;
    }
    const long tid = std::stol(entry.path().filename().string());
    out[tid] = {std::stol(f[11]) + std::stol(f[12]), std::stoi(f[36])};
  }
  return out;
}

}  // namespace

PlacementSampler::PlacementSampler(std::size_t workers)
    : workers_(workers),
      start_ns_(now_ns()),
      cpu_start_s_(process_cpu_s()),
      thread_([this] { loop(); }) {}

PlacementSampler::~PlacementSampler() { stop(); }

void PlacementSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  stop_ns_ = now_ns();
  cpu_stop_s_ = process_cpu_s();
}

void PlacementSampler::loop() try {
  const long self = static_cast<long>(syscall(SYS_gettid));
  auto previous = read_tasks();
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, std::chrono::milliseconds(50),
                       [this] { return stopping_; })) {
    lock.unlock();
    auto current = read_tasks();
    std::set<int> cpus;
    std::size_t busy = 0;
    for (const auto& [tid, state] : current) {
      const auto it = previous.find(tid);
      if (tid != self && it != previous.end() &&
          state.first > it->second.first) {
        cpus.insert(state.second);
        ++busy;
      }
    }
    previous = std::move(current);
    lock.lock();
    // Only intervals where several threads ran can show whether they
    // spread over CPUs; single-threaded phases (merge, analysis) cannot.
    if (busy >= 2) {
      per_interval_.push_back(static_cast<double>(cpus.size()));
    }
  }
} catch (const std::exception& e) {
  // An unreadable /proc ends sampling; the note reports what was seen.
  std::cerr << "perfbench: placement sampling stopped: " << e.what() << "\n";
}

double PlacementSampler::cpus_seen() const { return median(per_interval_); }

double PlacementSampler::utilization() const {
  const double wall = seconds_between(start_ns_, stop_ns_);
  return wall > 0 ? (cpu_stop_s_ - cpu_start_s_) /
                        (wall * static_cast<double>(workers_))
                  : 0.0;
}

std::string PlacementSampler::note() const {
  const bool stalled =
      workers_ > 1 && !per_interval_.empty() && cpus_seen() <= 1.0;
  std::ostringstream out;
  out << "placement cpus_seen=" << cpus_seen()
      << " intervals=" << per_interval_.size()
      << " utilization=" << utilization() << " workers=" << workers_
      << " placement_stalled=" << (stalled ? "true" : "false");
  return out.str();
}

// ---------- fixtures ----------

Fixture record_fixture(const std::string& path, std::uint64_t seed,
                       std::size_t per_set) {
  scenario::ScenarioRunConfig config;
  config.traces_per_set = per_set;
  config.seed = seed;
  config.workers = 1;
  config.shards = 1;
  config.record_path = path;
  Fixture fixture;
  fixture.v1_path = path;
  fixture.live = scenario::run_scenario("aes-power-user", {}, config);
  return fixture;
}

void compact(const std::string& v1_path, const std::string& v2_path,
             Tracer& tracer, std::uint64_t job) {
  ScopedSpan op(tracer, "store.compact", job);
  store::TraceFileReader reader(v1_path);
  store::TraceFileWriter writer(
      v2_path,
      {.channels = reader.channels(),
       .chunk_capacity = reader.chunk_capacity(),
       .metadata = reader.metadata(),
       .channel_codecs = store::uniform_channel_codecs(
           reader.channels().size(), store::ColumnCodec::delta_bitpack)});
  core::TraceBatch batch(reader.channels().size());
  for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
    batch.clear();
    {
      ScopedSpan read(tracer, "store.chunk_v1", job);
      const store::ChunkView view = reader.chunk(i);
      read.set_items(view.rows());
      view.append_to(batch);
    }
    ScopedSpan append(tracer, "store.append", job);
    append.set_items(batch.size());
    writer.append(batch);
  }
  {
    ScopedSpan finalize(tracer, "store.finalize", job);
    writer.finalize();
  }
  op.set_items(reader.trace_count());
}

std::size_t column_of(const std::vector<util::FourCc>& channels,
                      const char* key) {
  const auto it = std::find(channels.begin(), channels.end(),
                            util::FourCc::parse(key).value());
  if (it == channels.end()) {
    throw std::invalid_argument(std::string("no channel ") + key);
  }
  return static_cast<std::size_t>(it - channels.begin());
}

// ---------- timing decorators ----------

namespace {

class TimedSource final : public core::TraceSource {
 public:
  TimedSource(std::unique_ptr<core::TraceSource> inner, Tracer& tracer,
              std::uint64_t job, std::uint64_t shard_span,
              std::uint64_t campaign_span, std::uint64_t start_ns)
      : inner_(std::move(inner)),
        tracer_(tracer),
        job_(job),
        shard_span_(shard_span),
        campaign_span_(campaign_span),
        start_ns_(start_ns) {}

  ~TimedSource() override {
    Span shard;
    shard.name = "core.shard";
    shard.id = shard_span_;
    shard.parent = campaign_span_;
    shard.job = job_;
    shard.start_ns = start_ns_;
    shard.end_ns = now_ns();
    shard.items = traces_;
    tracer_.record(std::move(shard));
  }

  const std::vector<util::FourCc>& keys() const noexcept override {
    return inner_->keys();
  }
  core::TraceRecord collect(const aes::Block& plaintext) override {
    return inner_->collect(plaintext);
  }
  void collect_batch(core::TraceBatch& batch) override {
    ScopedSpan span(tracer_, "victim.collect_batch", job_, shard_span_);
    span.set_items(batch.size());
    span.sample_cpu();
    inner_->collect_batch(batch);
    traces_ += batch.size();
  }
  double window_s() const noexcept override { return inner_->window_s(); }
  std::optional<std::size_t> remaining() const noexcept override {
    return inner_->remaining();
  }

 private:
  std::unique_ptr<core::TraceSource> inner_;
  Tracer& tracer_;
  std::uint64_t job_;
  std::uint64_t shard_span_;
  std::uint64_t campaign_span_;
  std::uint64_t start_ns_;
  std::uint64_t traces_ = 0;
};

class TimedScenario final : public scenario::Scenario {
 public:
  TimedScenario(const scenario::Scenario& inner, Tracer& tracer,
                std::uint64_t job, std::uint64_t campaign_span)
      : inner_(inner),
        tracer_(tracer),
        job_(job),
        campaign_span_(campaign_span) {}

  std::string name() const override { return inner_.name(); }
  std::string description() const override { return inner_.description(); }
  std::string victim() const override { return inner_.victim(); }
  std::string channel() const override { return inner_.channel(); }
  std::vector<scenario::ParamSpec> params() const override {
    return inner_.params();
  }
  std::vector<util::FourCc> channels(
      const scenario::ParamSet& params) const override {
    return inner_.channels(params);
  }
  scenario::AnalysisSpec analysis(
      const scenario::ParamSet& params) const override {
    return inner_.analysis(params);
  }

  std::unique_ptr<core::TraceSource> make_source(
      const scenario::ParamSet& params, const aes::Block& secret,
      std::uint64_t seed) const override {
    const std::uint64_t shard_span = tracer_.next_id();
    const std::uint64_t start = now_ns();
    std::unique_ptr<core::TraceSource> source;
    {
      ScopedSpan span(tracer_, "scenario.make_source", job_, shard_span);
      source = inner_.make_source(params, secret, seed);
    }
    return std::make_unique<TimedSource>(std::move(source), tracer_, job_,
                                         shard_span, campaign_span_, start);
  }

 private:
  const scenario::Scenario& inner_;
  Tracer& tracer_;
  std::uint64_t job_;
  std::uint64_t campaign_span_;
};

}  // namespace

std::unique_ptr<scenario::Scenario> timed_scenario(
    const scenario::Scenario& inner, Tracer& tracer, std::uint64_t job,
    std::uint64_t campaign_span) {
  return std::make_unique<TimedScenario>(inner, tracer, job, campaign_span);
}

MetricValues live_span_metrics(const std::vector<Span>& spans,
                               std::size_t workers) {
  struct Campaign {
    double wall_ms = 0.0;
    std::vector<double> shard_ms;
    std::set<int> cpus;
  };
  std::map<std::uint64_t, Campaign> campaigns;
  double collect_ns = 0.0;
  double collect_traces = 0.0;
  double collect_ms = 0.0;
  double shard_ms = 0.0;
  std::vector<double> make_source_ms;
  for (const Span& s : spans) {
    if (s.name == "scenario.campaign") {
      campaigns[s.job].wall_ms = s.ms();
    } else if (s.name == "core.shard") {
      campaigns[s.job].shard_ms.push_back(s.ms());
      shard_ms += s.ms();
    } else if (s.name == "victim.collect_batch") {
      collect_ns += s.ms() * 1e6;
      collect_ms += s.ms();
      collect_traces += static_cast<double>(s.items);
      if (s.cpu >= 0) {
        campaigns[s.job].cpus.insert(s.cpu);
      }
    } else if (s.name == "scenario.make_source") {
      make_source_ms.push_back(s.ms());
    }
  }
  double capacity_ms = 0.0;
  std::vector<double> skew;
  std::vector<double> cpus;
  for (const auto& [job, c] : campaigns) {
    if (c.shard_ms.empty() || c.wall_ms <= 0.0) {
      continue;
    }
    capacity_ms += c.wall_ms * static_cast<double>(std::min(
                                   workers, c.shard_ms.size()));
    skew.push_back(*std::max_element(c.shard_ms.begin(), c.shard_ms.end()) /
                   median(c.shard_ms));
    cpus.push_back(static_cast<double>(c.cpus.size()));
  }
  MetricValues out;
  out["victim.collect_ns_per_trace"] =
      collect_traces > 0 ? collect_ns / collect_traces : 0.0;
  out["victim.busy_share"] = shard_ms > 0 ? collect_ms / shard_ms : 0.0;
  out["scenario.make_source_ms"] = median(make_source_ms);
  out["core.pool_utilization"] =
      capacity_ms > 0 ? shard_ms / capacity_ms : 0.0;
  out["core.shard_skew"] = median(skew);
  out["core.cpus_seen"] = median(cpus);
  return out;
}

}  // namespace perfbench
