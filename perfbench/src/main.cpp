// perfbench entry point:
//
//   perfbench --workload <live-aes|store-replay|bus-mixed> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir> [--scale <f>]
//
// Prints diagnostics as "# key=value" lines, then one JSON object as the
// last stdout line: {"correct", "attempted", "failed", "metrics"}. The
// untraced run (--trace 0) reports the end-to-end metrics, the traced run
// (--trace 1) the per-layer ones; both check every result they produce.
// Exits 1 on any failed operation or correctness mismatch, 2 on bad usage.
#include <signal.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "bench.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly the metrics of BENCHMARK.json.
constexpr MetricSpec end_to_end_metrics[] = {
    {"setup_s", "s"},
    {"traces_per_s", "1/s"},
    {"jobs_per_s", "1/s"},
    {"job_latency_p50_ms", "ms"},
    {"job_latency_p90_ms", "ms"},
    {"ge_bits", "bits"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec per_layer_metrics[] = {
    {"victim.collect_ns_per_trace", "ns"},
    {"victim.busy_share", "ratio"},
    {"aes.encrypt_trace_ns", "ns"},
    {"power.energy_deviation_ns", "ns"},
    {"scenario.make_source_ms", "ms"},
    {"scenario.aes-power-kernel.collect_ns_per_trace", "ns"},
    {"scenario.cache-timing.collect_ns_per_trace", "ns"},
    {"scenario.dvfs-frequency.collect_ns_per_trace", "ns"},
    {"scenario.sqmul-timing.collect_ns_per_trace", "ns"},
    {"store.chunk_v1_us", "us"},
    {"store.chunk_v2_us", "us"},
    {"store.collect_ns_per_trace", "ns"},
    {"store.prefetch_async_ratio", "ratio"},
    {"store.prefetch_chunks", "count"},
    {"store.append_ns_per_trace", "ns"},
    {"util.crc32_mb_per_s", "MB/s"},
    {"core.tvla_consume_ns_per_trace", "ns"},
    {"core.cpa_consume_ns_per_trace", "ns"},
    {"core.ge_consume_ns_per_trace", "ns"},
    {"core.merge_ms", "ms"},
    {"core.analyze_ms", "ms"},
    {"core.pool_utilization", "ratio"},
    {"core.shard_skew", "ratio"},
    {"core.cpus_seen", "count"},
    {"bus.queue_wait_ms", "ms"},
    {"bus.run_ms", "ms"},
    {"bus.fetch_ms", "ms"},
    {"bus.ping_us", "us"},
    {"bus.cache_hit_ratio", "ratio"},
    {"bus.cache_lookups", "count"},
    {"bus.scenario_peak_shards", "count"},
    {"bus.dataset_peak_shards", "count"},
    {"bench.tracing_overhead_pct", "%"},
    {"error_rate", "ratio"},
};

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <live-aes|store-replay|"
               "bus-mixed> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir> [--scale <f>]\n";
  return 2;
}

// Layers the workload's own spans did not cover come from the probes:
// the layer probes on the workload's fixture (a small recording for
// live-aes), a live campaign probe and a one-client bus session.
void complete_layers(const Options& opts, const std::string& probe_v1,
                     Tracer& tracer, Tally& tally, WorkloadResult& result) {
  ProbeInputs in;
  in.seed = opts.seed;
  in.scratch_v2_path = opts.work_dir + "/probe.v2.pstr";
  in.max_rows = scaled(opts, 262144, 8192);
  in.v1_path = probe_v1;
  if (in.v1_path.empty()) {
    in.v1_path = opts.work_dir + "/probe.v1.pstr";
    in.secret =
        record_fixture(in.v1_path, opts.seed, scaled(opts, 16384, 1024))
            .live.secret;
  } else {
    in.secret = result.probe_secret;
  }
  MetricValues probes = run_layer_probes(in, tracer);
  if (result.layers.count("core.pool_utilization") == 0) {
    for (const auto& [k, v] : run_live_probe(opts, tracer)) {
      probes[k] = v;
    }
  }
  if (result.layers.count("bus.run_ms") == 0) {
    BusSessionConfig bus;
    bus.socket_path = opts.work_dir + "/probe.sock";
    bus.dataset_path = in.scratch_v2_path;
    bus.known_key = in.secret;
    bus.clients = 1;
    bus.workers = default_workers();
    bus.max_jobs_per_client = 10;
    bus.scenario_per_set = scaled(opts, 500, 128);
    bus.daemon_starts = 1;
    bus.seed = opts.seed;
    bus.traced = true;
    for (const auto& [k, v] :
         bus_layer_metrics(run_bus_session(bus, tracer, tally))) {
      probes[k] = v;
    }
  }
  for (const auto& [k, v] : probes) {
    result.layers.emplace(k, v);  // the workload's own spans win
  }
}

void print_metric(std::ostringstream& out, bool& first, const char* name,
                  double value, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << unit << "\"}";
  first = false;
}

int run(int argc, char** argv) {
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return usage("flag " + flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--scale") {
      opts.scale = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  using WorkloadFn = WorkloadResult (*)(const Options&, Tracer&, Tally&);
  WorkloadFn workload = nullptr;
  if (opts.workload == "live-aes") {
    workload = run_live_aes;
  } else if (opts.workload == "store-replay") {
    workload = run_store_replay;
  } else if (opts.workload == "bus-mixed") {
    workload = run_bus_mixed;
  }
  if (!have_workload || workload == nullptr || opts.work_dir.empty() ||
      !(opts.seconds > 0) || !(opts.scale > 0)) {
    return usage("missing or invalid arguments");
  }

  // Each run works in its own directory, removed at exit; span files are
  // kept next to it. Directories of runs that died without cleaning up
  // (their process is gone) are removed first.
  const std::string base_dir = opts.work_dir;
  std::filesystem::create_directories(base_dir);
  for (const auto& entry : std::filesystem::directory_iterator(base_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("run-", 0) == 0 &&
        kill(static_cast<pid_t>(std::stol(name.substr(4))), 0) != 0) {
      std::filesystem::remove_all(entry.path());
    }
  }
  opts.work_dir = base_dir + "/run-" + std::to_string(getpid());
  std::filesystem::create_directories(opts.work_dir);
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } cleanup{opts.work_dir};

  Tracer tracer(opts.trace);
  Tally tally;
  WorkloadResult result = workload(opts, tracer, tally);
  if (opts.trace) {
    complete_layers(opts, result.probe_v1_path, tracer, tally, result);
    result.layers["error_rate"] = static_cast<double>(tally.failed()) /
                                  static_cast<double>(tally.attempted());
    std::ostringstream header;
    header << "{\"workload\": \"" << opts.workload
           << "\", \"seed\": " << opts.seed << ", \"self_ms\": {";
    std::ostringstream self_note;
    self_note << "self_ms";
    bool first = true;
    for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
      header << (first ? "" : ", ") << "\"" << layer << "\": " << ms;
      self_note << " " << layer << "=" << ms;
      first = false;
    }
    header << "}}";
    const std::string span_dir = base_dir + "/spans";
    std::filesystem::create_directories(span_dir);
    const std::string span_path = span_dir + "/" + opts.workload + "-seed" +
                                  std::to_string(opts.seed) + ".jsonl";
    tracer.write_jsonl(span_path, header.str());
    result.notes.push_back(self_note.str());
    result.notes.push_back("spans " + span_path);
  }

  const MetricValues& values = opts.trace ? result.layers : result.end_to_end;
  std::ostringstream metrics;
  bool first = true;
  const auto emit = [&](const MetricSpec& spec, bool must_be_positive) {
    const auto it = values.find(spec.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      throw std::logic_error(std::string("metric not measured: ") + spec.name);
    }
    tally.op(!must_be_positive || it->second > 0.0,
             std::string("metric not positive: ") + spec.name);
    print_metric(metrics, first, spec.name, it->second, spec.unit);
  };
  if (opts.trace) {
    for (const MetricSpec& spec : per_layer_metrics) {
      emit(spec, false);
    }
  } else {
    for (const MetricSpec& spec : end_to_end_metrics) {
      emit(spec, true);
    }
  }

  for (const std::string& note : result.notes) {
    std::cout << "# " << note << "\n";
  }
  const bool correct = tally.failed() == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted()
            << ", \"failed\": " << tally.failed() << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
