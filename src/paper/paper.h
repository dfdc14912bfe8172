// The paper's experiments as a library: one run_<id> per table, figure
// and ablation, returning its result as a value, and one print_<id> per
// result writing the human-readable report next to the published
// reference values. The `psc_paper` CLI runs them through the
// registry at the bottom of this header.
//
// Every printed number is a pure function of PaperConfig::seed and
// PaperConfig::quick: the campaigns always run kShards shards, so
// `workers` only changes wall-clock.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaigns.h"
#include "core/throttle.h"
#include "scenario/runner.h"
#include "smc/types.h"
#include "soc/device_profile.h"

namespace psc::paper {

// Shard count of every sharded campaign (result-determining).
inline constexpr std::size_t kShards = 8;

struct PaperConfig {
  std::uint64_t seed = 42;
  bool quick = false;       // paper-scale trace counts / 10
  std::size_t workers = 1;  // execution only

  // `paper_scale` traces, or a tenth of it (at least 1) when quick.
  std::size_t scaled(std::size_t paper_scale) const noexcept;
};

// run_live_campaign(`campaign`) on the config's workers and kShards shards.
core::SinkCampaignResult run_campaign(const PaperConfig& config,
                                      core::LiveCampaignConfig campaign);

// ---------- Tables 1-6 ----------

std::vector<soc::DeviceProfile> run_table1(const PaperConfig& config);
void print_table1(std::ostream& out,
                  const std::vector<soc::DeviceProfile>& profiles);

// Idle-vs-stress SMC key triage (section 3.2) of one device.
struct KeyTriage {
  std::string device;
  std::size_t scanned = 0;  // readable 'P' keys
  std::vector<smc::FourCc> workload_dependent;
};
std::vector<KeyTriage> run_table2(const PaperConfig& config);
void print_table2(std::ostream& out, const std::vector<KeyTriage>& rows);

core::SinkCampaignResult run_table3(const PaperConfig& config);
void print_table3(std::ostream& out, const core::SinkCampaignResult& result);

// Table 4 and Fig. 1(a): one M2 and one M1 random-stream campaign.
struct M2M1Campaigns {
  core::SinkCampaignResult m2;
  core::SinkCampaignResult m1;
};
M2M1Campaigns run_table4(const PaperConfig& config);
void print_table4(std::ostream& out, const M2M1Campaigns& result);

core::SinkCampaignResult run_table5(const PaperConfig& config);
void print_table5(std::ostream& out, const core::SinkCampaignResult& result);

struct Table6Result {
  core::SinkCampaignResult pcpu;  // user-space TVLA with PCPU reported
  core::ThrottleCampaignResult throttle;
  std::size_t throttle_traces_per_set = 0;
};
Table6Result run_table6(const PaperConfig& config);
void print_table6(std::ostream& out, const Table6Result& result);

// ---------- Figure 1 ----------

M2M1Campaigns run_fig1a(const PaperConfig& config);
void print_fig1a(std::ostream& out, const M2M1Campaigns& result);

struct KernelUserCampaigns {
  core::SinkCampaignResult kernel;  // Rd0-HW, Rd10-HW, Rd10-HD
  core::SinkCampaignResult user;    // Rd0-HW baseline
};
KernelUserCampaigns run_fig1b(const PaperConfig& config);
void print_fig1b(std::ostream& out, const KernelUserCampaigns& result);

// ---------- Sections 4 and 5 ----------

struct Section4Result {
  std::uint64_t seed = 0;
  std::vector<core::SweepPoint> sweep;
  std::size_t throttle_traces_per_set = 0;
  core::ThrottleCampaignResult throttle;
  std::size_t scenario_traces_per_set = 0;
  double scenario_max_t = 0.0;  // dvfs-frequency cross-class |t|
  // Gates: what section 4 asserts about the simulated M2.
  bool sweep_ok = false;     // 4 AES threads stay unthrottled under 4 W
  bool throttle_ok = false;  // AES + fmul power-throttles, not thermally
  bool timing_ok = false;    // timing TVLA shows no data dependence
  bool scenario_ok = false;  // dvfs-frequency max |t| >= 4.5
  bool ok() const noexcept {
    return sweep_ok && throttle_ok && timing_ok && scenario_ok;
  }
};
Section4Result run_section4(const PaperConfig& config);
void print_section4(std::ostream& out, const Section4Result& result);
std::string section4_json(const Section4Result& result);

struct MitigationRow {
  std::string name;
  double tvla_t = 0.0;  // PHPC |t|, all 0s vs all 1s
  core::ModelResult cpa;
  double window_s = 0.0;  // seconds per trace
};
struct MitigationsResult {
  std::size_t cpa_traces = 0;
  std::vector<MitigationRow> rows;
  smc::SmcStatus access_control_read{};  // unprivileged PHPC read
};
MitigationsResult run_mitigations(const PaperConfig& config);
void print_mitigations(std::ostream& out, const MitigationsResult& result);

// ---------- ablations (ours) ----------

// Final PHPC GE bits under Rd0-HW, Rd10-HW, Rd10-HD per leakage shape.
struct LeakageAblationResult {
  std::size_t traces = 0;
  std::array<std::array<double, 3>, 3> ge_bits{};
};
LeakageAblationResult run_ablation_leakage_models(const PaperConfig& config);
void print_ablation_leakage_models(std::ostream& out,
                                   const LeakageAblationResult& result);

struct AmplificationRow {
  std::size_t threads = 0;
  double tvla_t = 0.0;
  core::ModelResult cpa;
};
struct AmplificationResult {
  std::size_t cpa_traces = 0;
  std::vector<AmplificationRow> rows;
};
AmplificationResult run_ablation_amplification(const PaperConfig& config);
void print_ablation_amplification(std::ostream& out,
                                  const AmplificationResult& result);

// Every registered scenario, gated on cross-class TVLA |t| >= threshold
// with defaults and < threshold with its `leak` knob off.
struct ScenarioSweepRow {
  std::string name;
  bool cpa = false;
  std::size_t channels = 0;
  double leak_on_t = 0.0;
  bool has_leak_knob = false;
  double leak_off_t = 0.0;
  double ge_bits = 0.0;
  bool ok = false;
};
struct ScenarioSweepResult {
  std::size_t traces_per_set = 0;
  std::uint64_t seed = 0;
  static constexpr double threshold = 4.5;
  std::vector<ScenarioSweepRow> rows;
  bool ok() const noexcept;
};
ScenarioSweepResult run_scenario_sweep(const PaperConfig& config);
void print_scenario_sweep(std::ostream& out,
                          const ScenarioSweepResult& result);
std::string scenario_sweep_json(const ScenarioSweepResult& result);

// ---------- registry ----------

struct Experiment {
  std::string_view id;     // psc_paper run <id>
  std::string_view title;  // "Table 3"
  std::string_view description;
  // Runs the experiment and prints its report to `out`. Returns false
  // when its gate failed (naming each failure on stderr); gated
  // experiments also write their BENCH_<name>.json to the working
  // directory.
  bool (*run)(const PaperConfig& config, std::ostream& out);
};

// Tables 1-6, Fig. 1, sections 4-5, the ablations and the scenario sweep.
std::span<const Experiment> experiments();
// The experiment named `id`, or null.
const Experiment* find_experiment(std::string_view id);

// Prints the experiment's banner, then runs it (see Experiment::run).
bool run_experiment(const Experiment& experiment, const PaperConfig& config,
                    std::ostream& out);

}  // namespace psc::paper
