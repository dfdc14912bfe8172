// psc_busctl: CLI for the psc::bus campaign daemon — one binary that is
// both the server (`serve`) and every client verb.
//
//   psc_busctl serve    --socket S --dataset name=path [--dataset ...]
//                       [--quota N] [--threads N] [--job-parallel N]
//                       [--cache-mb N]
//   psc_busctl ping      --socket S
//   psc_busctl datasets  --socket S
//   psc_busctl scenarios --socket S
//   psc_busctl open      --socket S <name> <path.pstr>
//   psc_busctl submit    --socket S cpa  <dataset> --channel CCCC --key HEX32
//                        [--model NAME]... [--traces N] [--shards N]
//                        [--watch] [--verify-local]
//   psc_busctl submit    --socket S tvla <dataset> [--per-set N] [--shards N]
//                        [--watch] [--verify-local]
//   psc_busctl submit    --socket S scenario <name> [--param k=v]...
//                        [--per-set N] [--seed N] [--shards N]
//                        [--watch] [--verify-local]
//   psc_busctl watch     --socket S <job-id>
//   psc_busctl result    --socket S <job-id>
//   psc_busctl shutdown  --socket S
//
// `submit --verify-local` is the bit-identity check the CI smoke job
// leans on: after the daemon finishes the job, the same spec is rerun
// in-process (run_*_job over the same file, or run_scenario_job for
// live-acquisition scenario jobs), encoded with the served job id, and
// the resulting frame is compared with the served result frame byte for
// byte. Every result field is on the wire and every double travels as
// its bit pattern, so any drift between daemon-served and local
// analysis exits non-zero. `serve` installs SIGINT/SIGTERM handlers and
// drains running jobs before exiting, so `kill -TERM` is a clean stop.
// `datasets` also prints the daemon's STATS frame: decoded-chunk cache
// counters plus the per-job shard-scheduler rows. A malformed command
// line, including a count or job id that is not a decimal integer in
// range, exits 2 before anything is sent.
#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "aes/aes128.h"
#include "bus/client.h"
#include "bus/daemon.h"
#include "bus/jobs.h"
#include "bus/scenario_jobs.h"
#include "core/report.h"
#include "store/shared_mapping.h"
#include "util/hex.h"
#include "util/table.h"

#include "cli_args.h"

namespace {

using namespace psc;
using cli::parse_u32;
using cli::parse_u64;
using cli::UsageError;

int usage() {
  std::cerr
      << "usage:\n"
         "  psc_busctl serve     --socket S --dataset name=path [...]\n"
         "                       [--quota N] [--threads N]\n"
         "                       [--job-parallel N] [--cache-mb N]\n"
         "  psc_busctl ping      --socket S\n"
         "  psc_busctl datasets  --socket S\n"
         "  psc_busctl scenarios --socket S\n"
         "  psc_busctl open      --socket S <name> <path.pstr>\n"
         "  psc_busctl submit    --socket S cpa  <dataset> --channel CCCC\n"
         "                       --key HEX32 [--model NAME]... [--traces N]\n"
         "                       [--shards N] [--watch] [--verify-local]\n"
         "  psc_busctl submit    --socket S tvla <dataset> [--per-set N]\n"
         "                       [--shards N] [--watch] [--verify-local]\n"
         "  psc_busctl submit    --socket S scenario <name> [--param k=v]...\n"
         "                       [--per-set N] [--seed N] [--shards N]\n"
         "                       [--watch] [--verify-local]\n"
         "  psc_busctl watch     --socket S <job-id>\n"
         "  psc_busctl result    --socket S <job-id>\n"
         "  psc_busctl shutdown  --socket S\n";
  return 2;
}

// argv cursor: flags may appear anywhere after the verb.
struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;  // --name value
  bool watch = false;
  bool verify_local = false;

  std::optional<std::string> flag(const std::string& name) const {
    for (const auto& [key, value] : flags) {
      if (key == name) {
        return value;
      }
    }
    return std::nullopt;
  }
  std::vector<std::string> flag_all(const std::string& name) const {
    std::vector<std::string> out;
    for (const auto& [key, value] : flags) {
      if (key == name) {
        out.push_back(value);
      }
    }
    return out;
  }
};

bool parse_args(int argc, char** argv, int from, Args& args) {
  for (int i = from; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--watch") {
      args.watch = true;
    } else if (arg == "--verify-local") {
      args.verify_local = true;
    } else if (arg.rfind("--", 0) == 0) {
      if (i + 1 >= argc) {
        std::cerr << "flag " << arg << " needs a value\n";
        return false;
      }
      args.flags.emplace_back(arg.substr(2), argv[++i]);
    } else {
      args.positional.push_back(arg);
    }
  }
  return true;
}

std::string require_socket(const Args& args) {
  const auto socket = args.flag("socket");
  if (!socket.has_value()) {
    throw std::invalid_argument("--socket is required");
  }
  return *socket;
}

power::PowerModel parse_model(const std::string& name) {
  for (const power::PowerModel model : power::all_power_models) {
    if (power::power_model_name(model) == name) {
      return model;
    }
  }
  throw std::invalid_argument("unknown power model: " + name);
}

void print_progress(const bus::ProgressMsg& msg) {
  std::cout << "job " << msg.id << ": " << msg.consumed << "/" << msg.total
            << " traces";
  if (msg.running_shards > 0) {
    std::cout << " (" << msg.running_shards << " shard units)";
  }
  std::cout << "\n";
}

void print(const bus::CpaResultMsg& msg) {
  const auto& [id, result] = msg;
  std::cout << "job " << id << ": CPA over " << result.traces << " traces\n";
  std::vector<core::RankColumn> columns;
  for (const core::ModelResult& model : result.models) {
    columns.push_back({std::string(power::power_model_name(model.model)),
                       &model});
  }
  core::cpa_rank_table("CPA key ranks (daemon job " + std::to_string(id) + ")",
                       columns)
      .render(std::cout);
  for (const core::ModelResult& model : result.models) {
    std::cout << power::power_model_name(model.model) << ": GE "
              << model.ge_bits << " bits, " << model.recovered_bytes
              << "/16 recovered, best key "
              << util::to_hex(model.best_round_key) << "\n";
  }
}

void print(const bus::TvlaResultMsg& msg) {
  const auto& [id, result] = msg;
  std::cout << "job " << id << ": TVLA with " << result.traces_per_set
            << " traces per set\n";
  core::tvla_table("TVLA t-scores (daemon job " + std::to_string(id) + ")",
                   result.channels)
      .render(std::cout);
}

void print(const bus::ScenarioResultMsg& msg) {
  const auto& [id, result] = msg;
  std::cout << "job " << id << ": scenario '" << result.scenario << "', "
            << result.traces_per_set << " traces per set\n";
  core::tvla_table("TVLA t-scores (daemon job " + std::to_string(id) + ")",
                   result.tvla)
      .render(std::cout);
  for (const core::CpaKeyResult& key : result.cpa) {
    std::cout << "CPA over " << key.key.str() << " (" << result.cpa_trace_count
              << " traces):\n";
    for (const core::ModelResult& model : key.final_results) {
      std::cout << "  " << power::power_model_name(model.model) << ": GE "
                << model.ge_bits << " bits, " << model.recovered_bytes
                << "/16 recovered\n";
    }
  }
  std::cout << "max cross-class |t| over leakage channels: "
            << result.max_cross_class_t() << "\n";
}

// Prints any of the three result frames fetch_result() accepts.
void print_result(const bus::ResultFrame& frame) {
  bus::PayloadReader r(frame.payload);
  if (frame.type == bus::MsgType::cpa_result) {
    print(bus::CpaResultMsg::decode(r));
  } else if (frame.type == bus::MsgType::tvla_result) {
    print(bus::TvlaResultMsg::decode(r));
  } else {
    print(bus::ScenarioResultMsg::decode(r));
  }
}

// The daemon's stored path for `dataset` (the summary travels with the
// dataset list), so --verify-local can open the same file in-process.
std::string dataset_path(bus::BusClient& client, const std::string& dataset) {
  for (const auto& entry : client.list_datasets()) {
    if (entry.name == dataset) {
      return entry.summary.path;
    }
  }
  throw std::runtime_error("dataset not listed by daemon: " + dataset);
}

// ---------- verbs ----------

int cmd_serve(const Args& args) {
  bus::BusDaemonConfig config;
  config.socket_path = require_socket(args);
  if (const auto quota = args.flag("quota")) {
    config.per_session_quota = parse_u64("--quota", *quota);
  }
  if (const auto threads = args.flag("threads")) {
    config.pool_reserve = parse_u64("--threads", *threads);
  }
  if (const auto parallel = args.flag("job-parallel")) {
    config.shard_parallelism = parse_u64("--job-parallel", *parallel);
  }
  if (const auto cache_mb = args.flag("cache-mb")) {
    config.chunk_cache_mb = parse_u64("--cache-mb", *cache_mb);
  }
  for (const std::string& spec : args.flag_all("dataset")) {
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
      std::cerr << "--dataset wants name=path, got: " << spec << "\n";
      return 2;
    }
    config.datasets.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
  }

  bus::BusDaemon daemon(std::move(config));
  bus::BusDaemon::install_signal_handlers(daemon);
  daemon.start();
  std::cout << "psc_busctl: serving on " << daemon.socket_path() << " ("
            << daemon.registry().size() << " datasets)\n"
            << std::flush;
  daemon.wait();
  std::cout << "psc_busctl: stopped\n";
  return 0;
}

void print_daemon_stats(const bus::StatsMsg& stats) {
  std::cout << "daemon: " << stats.jobs_active << " active / "
            << stats.jobs_submitted << " submitted job(s), "
            << stats.pool_threads << " pool thread(s)\n";
  if (stats.cache_capacity_bytes > 0) {
    std::cout << "chunk cache: " << stats.cache_hits << " hits, "
              << stats.cache_misses << " misses, " << stats.cache_evictions
              << " evictions, " << stats.cache_resident_bytes << "/"
              << stats.cache_capacity_bytes << " bytes ("
              << stats.cache_entries << " chunks)\n";
  } else {
    std::cout << "chunk cache: disabled\n";
  }
  for (const bus::StatsMsg::JobRow& job : stats.jobs) {
    std::cout << "job " << job.id << ": " << bus::job_state_name(job.state)
              << ", "
              << job.running_shards << "/" << job.shards
              << " shard units running (cap " << job.shard_cap << ", peak "
              << job.peak_shards << ")\n";
  }
}

int cmd_datasets(const Args& args) {
  bus::BusClient client(require_socket(args));
  const auto datasets = client.list_datasets();
  std::cout << datasets.size() << " dataset(s)\n";
  for (const auto& entry : datasets) {
    std::cout << entry.name << ":\n";
    store::print_dataset_summary(std::cout, entry.summary, "  ");
  }
  print_daemon_stats(client.stats());
  return 0;
}

int cmd_scenarios(const Args& args) {
  bus::BusClient client(require_socket(args));
  const auto scenarios = client.list_scenarios();
  std::cout << scenarios.size() << " scenario(s)\n";
  for (const auto& entry : scenarios) {
    std::cout << entry.name << ": " << entry.description << "\n"
              << "  victim:   " << entry.victim << "\n"
              << "  channel:  " << entry.channel << "\n"
              << "  analysis: " << (entry.cpa ? "TVLA + CPA/GE" : "TVLA")
              << ", " << entry.default_traces_per_set
              << " traces per set, channels";
    for (const util::FourCc& channel : entry.channels) {
      std::cout << " " << channel.str();
    }
    std::cout << "\n";
    for (const auto& param : entry.params) {
      std::cout << "  --param " << param.name << "=" << param.default_value
                << "  " << param.description << "\n";
    }
  }
  return 0;
}

int cmd_submit(const Args& args) {
  if (args.positional.size() != 2) {
    return usage();
  }
  const std::string& kind = args.positional[0];
  const std::string& dataset = args.positional[1];
  bus::BusClient client(require_socket(args));

  std::uint64_t id = 0;
  // Reruns the submitted spec in-process and encodes the result as the
  // daemon does, served job id included (submit --verify-local).
  std::function<bus::ResultFrame()> run_local;
  const auto local_dataset = [&] {
    return store::SharedMapping::open(dataset_path(client, dataset));
  };
  if (kind == "cpa") {
    bus::CpaJobSpec cpa;
    const auto channel = args.flag("channel");
    const auto key = args.flag("key");
    if (!channel.has_value() || !key.has_value()) {
      std::cerr << "submit cpa needs --channel and --key\n";
      return 2;
    }
    const auto fourcc = util::FourCc::parse(*channel);
    if (!fourcc.has_value()) {
      std::cerr << "--channel wants a 4-character FourCC\n";
      return 2;
    }
    cpa.channel = fourcc->code();
    if (!util::from_hex_exact(*key, cpa.known_key)) {
      std::cerr << "--key wants 32 hex characters\n";
      return 2;
    }
    const std::vector<std::string> models = args.flag_all("model");
    if (!models.empty()) {
      cpa.models.clear();
      for (const std::string& name : models) {
        cpa.models.push_back(parse_model(name));
      }
    }
    if (const auto traces = args.flag("traces")) {
      cpa.trace_count = parse_u64("--traces", *traces);
    }
    if (const auto shards = args.flag("shards")) {
      cpa.shards = parse_u32("--shards", *shards);
    }
    id = client.submit_cpa(dataset, cpa);
    run_local = [&, id, cpa] {
      return bus::result_frame(
          bus::CpaResultMsg{id, bus::run_cpa_job(local_dataset(), cpa)});
    };
  } else if (kind == "tvla") {
    bus::TvlaJobSpec tvla;
    if (const auto per_set = args.flag("per-set")) {
      tvla.traces_per_set = parse_u64("--per-set", *per_set);
    }
    if (const auto shards = args.flag("shards")) {
      tvla.shards = parse_u32("--shards", *shards);
    }
    id = client.submit_tvla(dataset, tvla);
    run_local = [&, id, tvla] {
      return bus::result_frame(
          bus::TvlaResultMsg{id, bus::run_tvla_job(local_dataset(), tvla)});
    };
  } else if (kind == "scenario") {
    bus::ScenarioJobSpec scenario;
    scenario.scenario = dataset;  // second positional is the scenario name
    for (const std::string& spec : args.flag_all("param")) {
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::cerr << "--param wants key=value, got: " << spec << "\n";
        return 2;
      }
      scenario.params.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    }
    if (const auto per_set = args.flag("per-set")) {
      scenario.traces_per_set = parse_u64("--per-set", *per_set);
    }
    if (const auto seed = args.flag("seed")) {
      scenario.seed = parse_u64("--seed", *seed);
    }
    if (const auto shards = args.flag("shards")) {
      scenario.shards = parse_u32("--shards", *shards);
    }
    id = client.submit_scenario(scenario);
    // Scenario results are worker-invariant, so a single-worker rerun
    // of the same spec must match the daemon's parallel run exactly.
    run_local = [id, scenario] {
      return bus::result_frame(
          bus::ScenarioResultMsg{id, bus::run_scenario_job(scenario)});
    };
  } else {
    return usage();
  }
  std::cout << "accepted job " << id << "\n";

  if (!args.watch && !args.verify_local) {
    return 0;
  }
  const bus::JobStatusMsg final_status =
      client.watch(id, args.watch ? print_progress : bus::BusClient::WatchFn{});
  if (final_status.state == bus::JobState::failed) {
    std::cerr << "job " << id << " FAILED: " << final_status.error << "\n";
    return 1;
  }

  const bus::ResultFrame served = client.fetch_result(id);
  print_result(served);
  if (!args.verify_local) {
    return 0;
  }
  const bool same = run_local() == served;
  std::cout << "verify-local: " << (same ? "bit-identical" : "MISMATCH")
            << "\n";
  return same ? 0 : 1;
}

int cmd_watch(const Args& args) {
  if (args.positional.size() != 1) {
    return usage();
  }
  const std::uint64_t id = parse_u64("job id", args.positional[0]);
  bus::BusClient client(require_socket(args));
  const bus::JobStatusMsg status = client.watch(id, print_progress);
  std::cout << "job " << id << ": " << bus::job_state_name(status.state);
  if (status.state == bus::JobState::failed) {
    std::cout << " (" << status.error << ")";
  }
  std::cout << "\n";
  return status.state == bus::JobState::done ? 0 : 1;
}

int cmd_result(const Args& args) {
  if (args.positional.size() != 1) {
    return usage();
  }
  const std::uint64_t id = parse_u64("job id", args.positional[0]);
  bus::BusClient client(require_socket(args));
  print_result(client.fetch_result(id));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string verb = argv[1];
  Args args;
  if (!parse_args(argc, argv, 2, args)) {
    return 2;
  }
  try {
    if (verb == "serve") {
      return cmd_serve(args);
    }
    if (verb == "ping") {
      bus::BusClient(require_socket(args)).ping();
      std::cout << "pong\n";
      return 0;
    }
    if (verb == "datasets") {
      return cmd_datasets(args);
    }
    if (verb == "scenarios") {
      return cmd_scenarios(args);
    }
    if (verb == "open") {
      if (args.positional.size() != 2) {
        return usage();
      }
      bus::BusClient(require_socket(args))
          .open_dataset(args.positional[0], args.positional[1]);
      std::cout << "opened " << args.positional[0] << "\n";
      return 0;
    }
    if (verb == "submit") {
      return cmd_submit(args);
    }
    if (verb == "watch") {
      return cmd_watch(args);
    }
    if (verb == "result") {
      return cmd_result(args);
    }
    if (verb == "shutdown") {
      bus::BusClient(require_socket(args)).shutdown_server();
      std::cout << "daemon draining\n";
      return 0;
    }
  } catch (const UsageError& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
