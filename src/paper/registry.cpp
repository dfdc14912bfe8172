// PaperConfig helpers and the experiment registry behind `psc_paper`.
#include <fstream>
#include <iostream>

#include "paper/paper.h"

namespace psc::paper {

std::size_t PaperConfig::scaled(std::size_t paper_scale) const noexcept {
  const std::size_t traces = quick ? paper_scale / 10 : paper_scale;
  return traces == 0 ? 1 : traces;
}

core::SinkCampaignResult run_campaign(const PaperConfig& config,
                                      core::LiveCampaignConfig campaign) {
  campaign.workers = config.workers;
  campaign.shards = kShards;
  return core::run_live_campaign(campaign);
}

namespace {

template <auto run, auto print>
bool report(const PaperConfig& config, std::ostream& out) {
  print(out, run(config));
  return true;
}

// A gated experiment: also writes its JSON line to `path`.
template <auto run, auto print, auto json>
bool report_gated(const PaperConfig& config, std::ostream& out,
                  const char* path) {
  const auto result = run(config);
  print(out, result);
  if (std::ofstream file(path); file) {
    file << json(result) << "\n";
  } else {
    std::cerr << "warning: could not write " << path << "\n";
  }
  return result.ok();
}

bool report_section4(const PaperConfig& config, std::ostream& out) {
  return report_gated<run_section4, print_section4, section4_json>(
      config, out, "BENCH_section4_throttling.json");
}

bool report_scenario_sweep(const PaperConfig& config, std::ostream& out) {
  return report_gated<run_scenario_sweep, print_scenario_sweep,
                      scenario_sweep_json>(config, out,
                                           "BENCH_scenario_sweep.json");
}

constexpr Experiment kExperiments[] = {
    {"table1", "Table 1", "specifications of the tested devices",
     report<run_table1, print_table1>},
    {"table2", "Table 2",
     "workload-dependent SMC keys (idle vs stress-ng matrix triage)",
     report<run_table2, print_table2>},
    {"table3", "Table 3",
     "TVLA between plaintext classes, user-space AES victim, M2",
     report<run_table3, print_table3>},
    {"table4", "Table 4", "CPA key-byte ranks, Rd0-HW power model",
     report<run_table4, print_table4>},
    {"table5", "Table 5",
     "TVLA between plaintext classes, kernel-module victim, M2",
     report<run_table5, print_table5>},
    {"table6", "Table 6",
     "null channels: IOReport PCPU energy and throttled timing",
     report<run_table6, print_table6>},
    {"fig1a", "Figure 1(a)",
     "GE vs collected PHPC traces, user-space victim, M1 + M2",
     report<run_fig1a, print_fig1a>},
    {"fig1b", "Figure 1(b)",
     "GE vs collected PHPC traces, kernel-module victim, M2",
     report<run_fig1b, print_fig1b>},
    {"section4", "Section 4", "lowpowermode power limit and throttling, M2",
     report_section4},
    {"mitigations", "Section 5", "countermeasures vs the SMC side channel",
     report<run_mitigations, print_mitigations>},
    {"ablation_leakage_models", "Ablation A2",
     "leakage-shape knobs vs attack models",
     report<run_ablation_leakage_models, print_ablation_leakage_models>},
    {"ablation_amplification", "Ablation A1",
     "victim replica amplification (1 vs 2 vs 3 P-core copies)",
     report<run_ablation_amplification, print_ablation_amplification>},
    {"scenario_sweep", "Scenario sweep",
     "TVLA leakage gate over every registered scenario",
     report_scenario_sweep},
};

}  // namespace

std::span<const Experiment> experiments() { return kExperiments; }

const Experiment* find_experiment(std::string_view id) {
  for (const Experiment& experiment : kExperiments) {
    if (experiment.id == id) {
      return &experiment;
    }
  }
  return nullptr;
}

bool run_experiment(const Experiment& experiment, const PaperConfig& config,
                    std::ostream& out) {
  const std::string rule(64, '=');
  out << rule << "\n"
      << experiment.title << ": " << experiment.description << "\n"
      << rule << "\n";
  return experiment.run(config, out);
}

}  // namespace psc::paper
