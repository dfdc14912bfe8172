// scenario_runner: run any registered attack scenario from the command
// line — the direct (daemon-less) face of the scenario registry.
//
//   scenario_runner list
//   scenario_runner describe <name>
//   scenario_runner run <name> [--param key=value]... [--per-set N]
//                   [--seed N] [--workers N] [--shards N]
//                   [--record out.pstr]
//
// `run` executes the scenario through core::run_sink_campaign: TVLA over
// every channel the scenario reports, plus CPA/GE when its analysis spec
// binds the AES leakage models. A run is the served scenario job for the
// same spec (bus::run_scenario_job), so it prints what `psc_busctl submit
// scenario` returns: results are a pure function of (scenario, params,
// per-set, seed, shards), an unset --shards auto-sizes from the per-set
// count alone, and --workers only changes wall-clock. --record tees the
// acquisition to a PSTR store (forces workers=1, shards=1: one writer,
// one deterministic stream) so a live scenario run can later be replayed
// through psc_busctl as a dataset.
// --per-set, --seed, --workers and --shards take decimal integers only;
// anything else (`abc`, `-1`, `12x`) is a usage error (exit 2).
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bus/scenario_jobs.h"
#include "core/report.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "util/hex.h"
#include "util/table.h"

#include "cli_args.h"

namespace {

using namespace psc;

int usage() {
  std::cerr << "usage:\n"
               "  scenario_runner list\n"
               "  scenario_runner describe <name>\n"
               "  scenario_runner run <name> [--param key=value]...\n"
               "                  [--per-set N] [--seed N] [--workers N]\n"
               "                  [--shards N] [--record out.pstr]\n";
  return 2;
}

void print_info(const scenario::ScenarioInfo& info) {
  std::cout << info.name << ": " << info.description << "\n"
            << "  victim:   " << info.victim << "\n"
            << "  channel:  " << info.channel << "\n"
            << "  analysis: " << (info.analysis.cpa ? "TVLA + CPA/GE" : "TVLA")
            << ", " << info.analysis.default_traces_per_set
            << " traces per set\n"
            << "  channels: ";
  for (std::size_t i = 0; i < info.channels.size(); ++i) {
    std::cout << (i > 0 ? " " : "") << info.channels[i].str();
  }
  std::cout << "\n  leakage:  ";
  for (std::size_t i = 0; i < info.analysis.leakage_channels.size(); ++i) {
    std::cout << (i > 0 ? " " : "")
              << info.analysis.leakage_channels[i].str();
  }
  std::cout << "\n";
  for (const scenario::ParamSpec& param : info.params) {
    std::cout << "  --param " << param.name << "=" << param.default_value
              << "  " << param.description << "\n";
  }
}

int cmd_list() {
  for (const auto& info : scenario::ScenarioRegistry::built_in()
                              .describe_all()) {
    std::cout << info.name << "  (" << (info.analysis.cpa ? "TVLA+CPA" : "TVLA")
              << ")  " << info.description << "\n";
  }
  return 0;
}

int cmd_describe(const std::string& name) {
  const auto sc = scenario::ScenarioRegistry::built_in().find(name);
  if (!sc) {
    std::cerr << "unknown scenario: " << name << "\n";
    return 1;
  }
  print_info(scenario::describe(*sc));
  return 0;
}

int cmd_run(const std::string& name, int argc, char** argv, int from) {
  bus::ScenarioJobSpec spec;
  spec.scenario = name;
  std::size_t workers = 1;
  std::string record_path;
  for (int i = from; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "flag " << arg << " needs a value\n";
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--param") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::cerr << "--param wants key=value, got: " << value << "\n";
        return 2;
      }
      spec.params.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else if (arg == "--per-set") {
      spec.traces_per_set = cli::parse_u64(arg, value);
    } else if (arg == "--seed") {
      spec.seed = cli::parse_u64(arg, value);
    } else if (arg == "--workers") {
      workers = cli::parse_u64(arg, value);
    } else if (arg == "--shards") {
      spec.shards = cli::parse_u32(arg, value);
    } else if (arg == "--record") {
      record_path = value;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }

  scenario::ScenarioRunResult result;
  if (record_path.empty()) {
    result = bus::run_scenario_job(spec, {}, workers);
  } else {
    scenario::ScenarioRunConfig config;
    config.traces_per_set = spec.traces_per_set;
    config.seed = spec.seed;
    config.shards = 1;
    config.record_path = record_path;
    result = scenario::run_scenario(name, spec.params, config);
  }
  std::cout << "scenario '" << result.scenario << "': "
            << result.traces_per_set << " traces per set, secret "
            << util::to_hex(result.secret) << "\n";
  core::tvla_table("TVLA t-scores (" + result.scenario + ")", result.tvla)
      .render(std::cout);
  for (const core::CpaKeyResult& key : result.cpa) {
    std::cout << "CPA over " << key.key.str() << " ("
              << result.cpa_trace_count << " traces):\n";
    std::vector<core::RankColumn> columns;
    for (const core::ModelResult& model : key.final_results) {
      columns.push_back({std::string(power::power_model_name(model.model)),
                         &model});
    }
    core::cpa_rank_table("CPA key ranks (" + key.key.str() + ")", columns)
        .render(std::cout);
    for (const core::ModelResult& model : key.final_results) {
      std::cout << "  " << power::power_model_name(model.model) << ": GE "
                << model.ge_bits << " bits, " << model.recovered_bytes
                << "/16 recovered, best key "
                << util::to_hex(model.best_round_key) << "\n";
    }
  }
  std::cout << "max cross-class |t| over leakage channels: "
            << result.max_cross_class_t() << "\n";
  if (!record_path.empty()) {
    std::cout << "recorded acquisition to " << record_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string verb = argv[1];
  try {
    if (verb == "list") {
      return cmd_list();
    }
    if (verb == "describe" && argc == 3) {
      return cmd_describe(argv[2]);
    }
    if (verb == "run" && argc >= 3) {
      return cmd_run(argv[2], argc, argv, 3);
    }
  } catch (const cli::UsageError& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
