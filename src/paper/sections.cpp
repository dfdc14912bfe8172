// Sections 4 and 5 of the paper, our two ablations and the scenario
// registry sweep.
#include <cmath>
#include <iostream>

#include "core/guessing_entropy.h"
#include "core/report.h"
#include "paper/paper.h"
#include "scenario/registry.h"
#include "util/csv.h"
#include "util/table.h"
#include "victim/fast_trace.h"
#include "victim/platform.h"

namespace psc::paper {

namespace {

const char* json_bool(bool value) { return value ? "true" : "false"; }

// The TVLA campaign and the PHPC Rd0-HW CPA campaign that section 5 and
// the amplification ablation run per row: PHPC |t| between the all-zeros
// and all-ones classes, and the final CPA result.
std::pair<double, core::ModelResult> tvla_and_cpa(
    const PaperConfig& config, const core::LiveSourceConfig& source,
    std::uint64_t seed) {
  const core::SinkCampaignResult tvla = run_campaign(
      config, {.source = source, .traces = config.scaled(5000), .seed = seed});
  const double t = std::abs(tvla.find_tvla("PHPC")->matrix.score(
      core::PlaintextClass::all_zeros, core::PlaintextClass::all_ones));
  const core::SinkCampaignResult cpa = run_campaign(
      config, {.source = source,
               .protocol = core::CampaignProtocol::random_stream,
               .traces = config.scaled(300'000),
               .keys = {smc::FourCc("PHPC")},
               .seed = seed});
  return {t, cpa.cpa[0].final_results[0]};
}

void print_cpa_footer(std::ostream& out, std::size_t cpa_traces) {
  out << "\n(" << cpa_traces << " CPA traces per row; random GE = "
      << util::fixed(core::random_guess_ge_bits(), 1) << " bits)\n";
}

}  // namespace

// ---------- Section 4: lowpowermode power limit and throttling ----------
//
// AES threads added one by one stay under the 4 W budget (2.8 W at 4
// threads) with the P-cores pinned at 1.968 GHz. Adding constant-operand
// fmul stressors on the E-cores exceeds the budget: the P-cluster
// throttles, the E-cores hold 2.424 GHz. The dvfs-frequency scenario's
// cross-class leakage is the registry-side counterpart of the same
// physics: distinguishable workloads, data-independent timing.

Section4Result run_section4(const PaperConfig& config) {
  const auto profile = soc::DeviceProfile::macbook_air_m2();
  Section4Result result;
  result.seed = config.seed;
  result.sweep = core::lowpower_aes_sweep(profile, 4, config.seed);
  result.throttle_traces_per_set = config.scaled(400) / 10;
  result.throttle = core::run_throttle_campaign({
      .profile = profile,
      .aes_threads = 4,
      .stressor_threads = 4,
      .traces_per_set = result.throttle_traces_per_set,
      .window_s = 1.0,
      .seed = config.seed,
  });

  scenario::ScenarioRunConfig scenario_config;
  scenario_config.traces_per_set = config.scaled(400) / 2;
  scenario_config.seed = config.seed;
  scenario_config.workers = config.workers;
  scenario_config.shards = kShards;
  const scenario::ScenarioRunResult scenario =
      scenario::run_scenario("dvfs-frequency", {}, scenario_config);
  result.scenario_traces_per_set = scenario.traces_per_set;
  result.scenario_max_t = scenario.max_cross_class_t();

  const core::ThrottleObservation& obs = result.throttle.observation;
  result.sweep_ok = !result.sweep.empty() && !result.sweep.back().throttled &&
                    result.sweep.back().package_power_w < 4.0;
  result.throttle_ok = obs.power_throttled && !obs.thermal_throttled &&
                       !obs.aes_only_throttled;
  result.timing_ok = result.throttle.timing_matrix.no_data_dependence();
  result.scenario_ok = result.scenario_max_t >= 4.5;
  return result;
}

void print_section4(std::ostream& out, const Section4Result& result) {
  out << "AES thread sweep (lowpowermode, no stressors):\n";
  util::TextTable sweep_table;
  sweep_table.header({"AES threads", "package power (W)", "P-core freq (GHz)",
                      "throttled"});
  for (const core::SweepPoint& point : result.sweep) {
    sweep_table.add_row({std::to_string(point.aes_threads),
                         util::fixed(point.package_power_w, 2),
                         util::fixed(point.p_freq_hz / 1e9, 3),
                         point.throttled ? "yes" : "no"});
  }
  sweep_table.render(out);
  out << "paper reference: 4 AES threads draw only 2.8 W — "
         "insufficient to throttle; P-cores hold 1.968 GHz\n\n";

  core::throttle_observation_table(result.throttle.observation).render(out);
  out << "\nmean execution time per 1000 blocks under throttling: "
      << util::fixed(result.throttle.mean_time_per_kblock_s * 1e6, 3)
      << " us\n"
      << "timing TVLA shows data dependence: "
      << (result.timing_ok ? "no (as in the paper)" : "YES (mismatch)")
      << "\n"
      << "dvfs-frequency scenario (" << result.scenario_traces_per_set
      << " traces per set): max cross-class |t| = "
      << util::fixed(result.scenario_max_t, 2) << "\n";

  out << "\npaper reference: power cap 4 W in lowpowermode; AES+fmul exceeds "
         "it and throttles the P-cores while E-cores stay at 2.424 GHz; the "
         "CPU stays cool, ruling out thermal effects; timing traces show no "
         "data dependence (Table 6, right column).\n";

  if (!result.sweep_ok) {
    std::cerr << "FAIL: AES-only sweep throttled or exceeded the 4 W budget\n";
  }
  if (!result.throttle_ok) {
    std::cerr << "FAIL: stressed run did not power-throttle cleanly\n";
  }
  if (!result.timing_ok) {
    std::cerr << "FAIL: timing TVLA shows data dependence\n";
  }
  if (!result.scenario_ok) {
    std::cerr << "FAIL: dvfs-frequency scenario max |t| "
              << result.scenario_max_t << " below 4.5\n";
  }
  out << section4_json(result) << "\n";
}

std::string section4_json(const Section4Result& result) {
  std::string sweep_rows;
  for (const core::SweepPoint& point : result.sweep) {
    if (!sweep_rows.empty()) {
      sweep_rows += ",";
    }
    sweep_rows += "{\"aes_threads\":" + std::to_string(point.aes_threads) +
                  ",\"package_power_w\":" +
                  util::format_double(point.package_power_w) +
                  ",\"p_freq_ghz\":" +
                  util::format_double(point.p_freq_hz / 1e9) +
                  ",\"throttled\":" + json_bool(point.throttled) + "}";
  }
  double timing_max_t = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) {
        timing_max_t = std::max(
            timing_max_t, std::abs(result.throttle.timing_matrix.t[i][j]));
      }
    }
  }
  const core::ThrottleObservation& obs = result.throttle.observation;
  return "{\"bench\":\"section4_throttling\",\"device\":\"macbook_air_m2\""
         ",\"traces_per_set\":" +
         std::to_string(result.throttle_traces_per_set) +
         ",\"seed\":" + std::to_string(result.seed) + ",\"sweep\":[" +
         sweep_rows + "],\"observation\":{\"aes_only_power_w\":" +
         util::format_double(obs.aes_only_power_w) +
         ",\"aes_only_p_freq_ghz\":" +
         util::format_double(obs.aes_only_p_freq_hz / 1e9) +
         ",\"aes_only_throttled\":" + json_bool(obs.aes_only_throttled) +
         ",\"stressed_estimated_power_w\":" +
         util::format_double(obs.stressed_estimated_power_w) +
         ",\"stressed_p_freq_ghz\":" +
         util::format_double(obs.stressed_p_freq_hz / 1e9) +
         ",\"stressed_e_freq_ghz\":" +
         util::format_double(obs.stressed_e_freq_hz / 1e9) +
         ",\"power_throttled\":" + json_bool(obs.power_throttled) +
         ",\"thermal_throttled\":" + json_bool(obs.thermal_throttled) +
         "},\"timing\":{\"mean_time_per_kblock_us\":" +
         util::format_double(result.throttle.mean_time_per_kblock_s * 1e6) +
         ",\"max_cross_class_t\":" + util::format_double(timing_max_t) +
         ",\"no_data_dependence\":" + json_bool(result.timing_ok) +
         "},\"scenario\":{\"name\":\"dvfs-frequency\",\"traces_per_set\":" +
         std::to_string(result.scenario_traces_per_set) +
         ",\"max_cross_class_t\":" +
         util::format_double(result.scenario_max_t) +
         ",\"threshold\":4.5,\"ok\":" + json_bool(result.scenario_ok) +
         "},\"gate\":\"enforced\",\"ok\":" + json_bool(result.ok()) + "}";
}

// ---------- Section 5: countermeasures vs the SMC side channel ----------
//
// The open channel against RAPL-style filtering (noise blending + coarser
// resolution + slower updates, the INTEL-SA-00389 playbook) and against
// access control (power keys become root-only, the Linux RAPL response).

MitigationsResult run_mitigations(const PaperConfig& config) {
  const auto profile = soc::DeviceProfile::macbook_air_m2();
  MitigationsResult result;
  result.cpa_traces = config.scaled(300'000);
  for (const auto& [name, policy] :
       {std::pair{"none (shipping state)", smc::MitigationPolicy::none()},
        std::pair{"RAPL-style filtering",
                  smc::MitigationPolicy::rapl_style_filtering()}}) {
    const auto [t, cpa] = tvla_and_cpa(
        config,
        {.profile = profile,
         .victim = victim::VictimModel::user_space(),
         .mitigation = policy},
        config.seed);
    util::Xoshiro256 key_rng(1);
    aes::Block key;
    key_rng.fill_bytes(key);
    const victim::FastTraceSource source(
        profile, key, victim::VictimModel::user_space(), 2, policy);
    result.rows.push_back({name, t, cpa, source.window_s()});
  }

  // Access control cannot be phrased as SNR: the attack never starts.
  victim::Platform platform(profile, config.seed,
                            smc::MitigationPolicy::access_control());
  auto conn = platform.open_smc(smc::Privilege::user);
  platform.run_for(1.1);
  smc::SmcValue value;
  result.access_control_read = conn.read_key(smc::FourCc("PHPC"), value);
  return result;
}

void print_mitigations(std::ostream& out, const MitigationsResult& result) {
  util::TextTable table;
  table.header({"mitigation", "PHPC TVLA |t| (0s vs 1s)", "PHPC GE bits",
                "rank-1 bytes", "trace cost", "1M traces take"});
  table.set_align(0, util::Align::left);
  for (const MitigationRow& row : result.rows) {
    table.add_row({row.name, util::fixed(row.tvla_t, 2),
                   util::fixed(row.cpa.ge_bits, 1),
                   std::to_string(row.cpa.recovered_bytes) + "/16",
                   util::fixed(row.window_s, 0) + " s/trace",
                   util::fixed(1e6 * row.window_s / 86400.0, 1) + " days"});
  }
  table.add_row({"access control (root-only)",
                 "read: " + std::string(smc::status_name(
                                result.access_control_read)),
                 "-", "-", "-", "attack not mountable"});
  table.render(out);

  print_cpa_footer(out, result.cpa_traces);
  out << "\npaper reference (section 5): restricting user-space access and "
         "blending noise into the power readings are proposed as analogues "
         "of the Intel/AMD PLATYPUS responses; as of the paper's publication "
         "Apple had not shipped either.\n";
}

// ---------- Ablation A2: which leakage shape explains Fig. 1? ----------
//
// The default calibration assumes the observable channel carries value
// (HW) leakage dominated by the round-0 state and no register-overwrite
// (HD) leakage. This flips those knobs:
//  A. default profile        -> Rd0-HW best, Rd10-HW slower, Rd10-HD flat
//  B. HD leakage added       -> Rd10-HD starts converging
//  C. round-0 weight removed -> Rd0-HW collapses to random guessing

LeakageAblationResult run_ablation_leakage_models(const PaperConfig& config) {
  const auto m2 = soc::DeviceProfile::macbook_air_m2();
  auto with_hd = m2;
  with_hd.leakage.last_round_hd_weight = 1.0;
  auto without_round0 = m2;
  without_round0.leakage.ark_hw_weight[0] = 0.0;
  without_round0.leakage.plaintext_load_weight = 0.0;

  LeakageAblationResult result;
  result.traces = config.scaled(400'000);
  std::size_t row = 0;
  for (const soc::DeviceProfile& profile : {m2, with_hd, without_round0}) {
    const core::SinkCampaignResult campaign = run_campaign(
        config, {.source = {.profile = profile,
                            .victim = victim::VictimModel::user_space()},
                 .protocol = core::CampaignProtocol::random_stream,
                 .traces = result.traces,
                 .keys = {smc::FourCc("PHPC")},
                 .models = {power::PowerModel::rd0_hw,
                            power::PowerModel::rd10_hw,
                            power::PowerModel::rd10_hd},
                 .seed = config.seed});
    for (std::size_t m = 0; m < 3; ++m) {
      result.ge_bits[row][m] = campaign.cpa[0].final_results[m].ge_bits;
    }
    ++row;
  }
  return result;
}

void print_ablation_leakage_models(std::ostream& out,
                                   const LeakageAblationResult& result) {
  out << result.traces << " traces per configuration; random GE = "
      << util::fixed(core::random_guess_ge_bits(), 1) << " bits\n\n";
  const char* labels[] = {
      "A. calibrated default (value leakage, w0 > w9, no HD)",
      "B. + register-overwrite HD leakage (weight 1.0)",
      "C. - round-0 value leakage (w0 = 0, no pt load)"};
  util::TextTable table;
  table.header({"chip leakage configuration", "Rd0-HW GE", "Rd10-HW GE",
                "Rd10-HD GE"});
  table.set_align(0, util::Align::left);
  for (std::size_t row = 0; row < 3; ++row) {
    const auto& ge = result.ge_bits[row];
    table.add_row({labels[row], util::fixed(ge[0], 1), util::fixed(ge[1], 1),
                   util::fixed(ge[2], 1)});
  }
  table.render(out);

  out << "\nreading: configuration A reproduces the paper's Fig. 1 hierarchy; "
         "B shows the Rd10-HD model is sound and would converge if the "
         "silicon leaked transitions (it evidently does not); C shows Rd0-HW "
         "owes its performance entirely to the round-0 value leakage.\n";
}

// ---------- Ablation A1: victim replica amplification ----------
//
// The paper runs three copies of the AES workload on three P-cores "so
// the data-dependent power consumption is amplified". This quantifies
// that choice: TVLA t-scores and CPA convergence for 1, 2 and 3 victim
// threads.

AmplificationResult run_ablation_amplification(const PaperConfig& config) {
  AmplificationResult result;
  result.cpa_traces = config.scaled(300'000);
  for (const std::size_t threads : {1u, 2u, 3u}) {
    victim::VictimModel model = victim::VictimModel::user_space();
    model.threads = threads;
    const auto [t, cpa] = tvla_and_cpa(
        config,
        {.profile = soc::DeviceProfile::macbook_air_m2(), .victim = model},
        config.seed + threads);
    result.rows.push_back({threads, t, cpa});
  }
  return result;
}

void print_ablation_amplification(std::ostream& out,
                                  const AmplificationResult& result) {
  util::TextTable table;
  table.header({"victim threads", "TVLA |t| (0s vs 1s, PHPC)",
                "CPA GE bits (PHPC)", "CPA bytes rank<10"});
  for (const AmplificationRow& row : result.rows) {
    table.add_row({std::to_string(row.threads), util::fixed(row.tvla_t, 2),
                   util::fixed(row.cpa.ge_bits, 1),
                   std::to_string(row.cpa.near_recovered_bytes)});
  }
  table.render(out);

  print_cpa_footer(out, result.cpa_traces);
  out << "expected: more replicas -> proportionally larger signal -> larger "
         "t and faster GE convergence, which is why the paper replicated the "
         "workload on three P-cores.\n";
}

// ---------- Scenario sweep: the leakage gate of every scenario ----------
//
// With default params every scenario's leakage channels must show
// cross-class TVLA |t| above the 4.5 detection threshold, and scenarios
// with a `leak` knob must drop below it when the secret-dependent
// behaviour is disabled (leak=0): the channel, not an artifact of the
// harness, carries the signal.

bool ScenarioSweepResult::ok() const noexcept {
  for (const ScenarioSweepRow& row : rows) {
    if (!row.ok) {
      return false;
    }
  }
  return true;
}

ScenarioSweepResult run_scenario_sweep(const PaperConfig& config) {
  ScenarioSweepResult result;
  result.traces_per_set = config.scaled(800);
  result.seed = config.seed;

  scenario::ScenarioRunConfig run;
  run.traces_per_set = result.traces_per_set;
  run.seed = config.seed;
  run.workers = config.workers;
  run.shards = kShards;
  for (const scenario::ScenarioInfo& info :
       scenario::ScenarioRegistry::built_in().describe_all()) {
    ScenarioSweepRow row;
    row.name = info.name;
    row.cpa = info.analysis.cpa;
    row.channels = info.channels.size();
    for (const scenario::ParamSpec& param : info.params) {
      row.has_leak_knob = row.has_leak_knob || param.name == "leak";
    }

    const scenario::ScenarioRunResult on =
        scenario::run_scenario(info.name, {}, run);
    row.leak_on_t = on.max_cross_class_t();
    if (!on.cpa.empty() && !on.cpa.front().final_results.empty()) {
      row.ge_bits = on.cpa.front().final_results.front().ge_bits;
    }
    row.ok = row.leak_on_t >= result.threshold;
    if (row.has_leak_knob) {
      row.leak_off_t =
          scenario::run_scenario(info.name, {{"leak", "0"}}, run)
              .max_cross_class_t();
      row.ok = row.ok && row.leak_off_t < result.threshold;
    }
    result.rows.push_back(row);
  }
  return result;
}

void print_scenario_sweep(std::ostream& out,
                          const ScenarioSweepResult& result) {
  util::TextTable table;
  table.header({"scenario", "analysis", "leak-on max |t|", "leak-off max |t|",
                "gate"});
  for (const ScenarioSweepRow& row : result.rows) {
    table.add_row({row.name, row.cpa ? "TVLA+CPA" : "TVLA",
                   util::fixed(row.leak_on_t, 2),
                   row.has_leak_knob ? util::fixed(row.leak_off_t, 2) : "-",
                   row.ok ? "PASS" : "FAIL"});
  }
  table.render(out);
  out << "threshold: cross-class |t| >= " << result.threshold
      << " with leakage enabled, < " << result.threshold
      << " with the leak knob off\n";
  for (const ScenarioSweepRow& row : result.rows) {
    if (!row.ok) {
      std::cerr << "FAIL: " << row.name << " leak-on |t| " << row.leak_on_t
                << (row.has_leak_knob ? ", leak-off |t| " +
                                            util::format_double(row.leak_off_t)
                                      : std::string())
                << " (threshold " << result.threshold << ")\n";
    }
  }
  out << scenario_sweep_json(result) << "\n";
}

std::string scenario_sweep_json(const ScenarioSweepResult& result) {
  std::string rows;
  for (const ScenarioSweepRow& row : result.rows) {
    if (!rows.empty()) {
      rows += ",";
    }
    rows += "{\"name\":\"" + row.name + "\",\"cpa\":" + json_bool(row.cpa) +
            ",\"channels\":" + std::to_string(row.channels) +
            ",\"leak_on_max_t\":" + util::format_double(row.leak_on_t) +
            ",\"leak_off_max_t\":" +
            (row.has_leak_knob ? util::format_double(row.leak_off_t)
                               : "null") +
            ",\"ge_bits\":" + util::format_double(row.ge_bits) +
            ",\"ok\":" + json_bool(row.ok) + "}";
  }
  return "{\"bench\":\"scenario_sweep\",\"traces_per_set\":" +
         std::to_string(result.traces_per_set) +
         ",\"seed\":" + std::to_string(result.seed) +
         ",\"shards\":" + std::to_string(kShards) +
         ",\"threshold\":" + util::format_double(result.threshold) +
         ",\"gate\":\"enforced\",\"scenarios\":[" + rows +
         "],\"ok\":" + json_bool(result.ok()) + "}";
}

}  // namespace psc::paper
