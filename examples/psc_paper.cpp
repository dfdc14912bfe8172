// Reproduces the paper: every table, figure and ablation of
// src/paper/ behind one CLI.
//
//   psc_paper list
//   psc_paper run <id>|all [--seed N] [--quick] [--workers N]
//
// --seed (default 42) and --quick (paper-scale trace counts / 10) decide
// every printed number; --workers (default 1) only changes wall-clock.
// A malformed flag or value is a usage error (exit 2). A failed gate
// (section4, scenario_sweep) exits 1; `run all` runs every experiment
// and exits 1 if any gate failed.
#include <iostream>
#include <string>
#include <vector>

#include "cli_args.h"
#include "paper/paper.h"

namespace {

using namespace psc;

int usage() {
  std::cerr << "usage:\n"
               "  psc_paper list\n"
               "  psc_paper run <id>|all [--seed N] [--quick] [--workers N]\n";
  return 2;
}

int cmd_list() {
  for (const paper::Experiment& experiment : paper::experiments()) {
    std::cout << experiment.id << "  " << experiment.title << ": "
              << experiment.description << "\n";
  }
  return 0;
}

int cmd_run(const std::string& id, int argc, char** argv) {
  paper::PaperConfig config;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      config.quick = true;
      continue;
    }
    if (arg != "--seed" && arg != "--workers") {
      throw cli::UsageError("unknown flag: " + arg);
    }
    if (i + 1 >= argc) {
      throw cli::UsageError("flag " + arg + " needs a value");
    }
    const std::uint64_t value = cli::parse_u64(arg, argv[++i]);
    if (arg == "--seed") {
      config.seed = value;
    } else {
      config.workers = value;
    }
  }

  std::vector<const paper::Experiment*> selected;
  if (id == "all") {
    for (const paper::Experiment& experiment : paper::experiments()) {
      selected.push_back(&experiment);
    }
  } else if (const paper::Experiment* experiment = paper::find_experiment(id)) {
    selected.push_back(experiment);
  } else {
    throw cli::UsageError("unknown experiment: " + id +
                          " (see `psc_paper list`)");
  }
  bool ok = true;
  for (const paper::Experiment* experiment : selected) {
    ok = paper::run_experiment(*experiment, config, std::cout) && ok;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string verb = argv[1];
  try {
    if (verb == "list" && argc == 2) {
      return cmd_list();
    }
    if (verb == "run" && argc >= 3) {
      return cmd_run(argv[2], argc, argv);
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
