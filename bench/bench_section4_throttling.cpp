// Section 4 narrative: finding the reactive power limit and triggering
// frequency throttling on the M2 in lowpowermode.
//  * AES threads added one by one stay under the 4 W budget (2.8 W at 4
//    threads) with the P-cores pinned at 1.968 GHz.
//  * Adding constant-operand fmul stressors on the E-cores exceeds the
//    budget: the P-cluster throttles, the E-cores hold 2.424 GHz.
//
// Emits one machine-readable JSON object (same shape as the other bench
// trajectories) to stdout and BENCH_section4_throttling.json (override
// with PSC_BENCH_JSON): the thread sweep, the throttle observation, the
// timing-TVLA verdict, and the dvfs-frequency scenario's cross-class
// leakage as the registry-side counterpart of the same physics. Exits
// non-zero when an expectation from the paper fails.
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/report.h"
#include "core/throttle.h"
#include "scenario/runner.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/table.h"

int main() {
  using namespace psc;
  bench::banner("Section 4", "lowpowermode power limit and throttling, M2");

  const auto profile = soc::DeviceProfile::macbook_air_m2();

  std::cout << "AES thread sweep (lowpowermode, no stressors):\n";
  const std::vector<core::SweepPoint> sweep =
      core::lowpower_aes_sweep(profile, 4, bench::bench_seed());
  util::TextTable sweep_table;
  sweep_table.header({"AES threads", "package power (W)", "P-core freq (GHz)",
                      "throttled"});
  for (const core::SweepPoint& point : sweep) {
    sweep_table.add_row({std::to_string(point.aes_threads),
                         util::fixed(point.package_power_w, 2),
                         util::fixed(point.p_freq_hz / 1e9, 3),
                         point.throttled ? "yes" : "no"});
  }
  sweep_table.render(std::cout);
  std::cout << "paper reference: 4 AES threads draw only 2.8 W — "
               "insufficient to throttle; P-cores hold 1.968 GHz\n\n";

  core::ThrottleExperimentConfig config{
      .profile = profile,
      .aes_threads = 4,
      .stressor_threads = 4,
      .traces_per_set = bench::scaled(400) / 10,
      .window_s = 1.0,
      .seed = bench::bench_seed(),
  };
  const auto result = run_throttle_campaign(config);
  core::throttle_observation_table(result.observation).render(std::cout);

  std::cout << "\nmean execution time per 1000 blocks under throttling: "
            << util::fixed(result.mean_time_per_kblock_s * 1e6, 3)
            << " us\n";
  std::cout << "timing TVLA shows data dependence: "
            << (result.timing_matrix.no_data_dependence() ? "no (as in the "
                                                            "paper)"
                                                          : "YES (mismatch)")
            << "\n";

  // The registry-side counterpart: the dvfs-frequency scenario leaks
  // workload identity through P-cluster frequency residency under the
  // same governor — distinguishable workloads, data-independent timing.
  scenario::ScenarioRunConfig scenario_config;
  scenario_config.traces_per_set = bench::scaled(400) / 2;
  scenario_config.seed = bench::bench_seed();
  bench::apply_parallel_env(scenario_config.workers, scenario_config.shards);
  const scenario::ScenarioRunResult scenario_result =
      scenario::run_scenario("dvfs-frequency", {}, scenario_config);
  const double scenario_t = scenario_result.max_cross_class_t();
  std::cout << "dvfs-frequency scenario ("
            << scenario_result.traces_per_set
            << " traces per set): max cross-class |t| = "
            << util::fixed(scenario_t, 2) << "\n";

  std::cout <<
      "\npaper reference: power cap 4 W in lowpowermode; AES+fmul exceeds "
      "it and throttles the P-cores while E-cores stay at 2.424 GHz; the "
      "CPU stays cool, ruling out thermal effects; timing traces show no "
      "data dependence (Table 6, right column).\n";

  // Gates: everything section 4 asserts about the simulated M2.
  const core::ThrottleObservation& obs = result.observation;
  const bool sweep_ok = !sweep.empty() && !sweep.back().throttled &&
                        sweep.back().package_power_w < 4.0;
  const bool throttle_ok = obs.power_throttled && !obs.thermal_throttled &&
                           !obs.aes_only_throttled;
  const bool timing_ok = result.timing_matrix.no_data_dependence();
  const bool scenario_ok = scenario_t >= 4.5;
  const bool all_ok = sweep_ok && throttle_ok && timing_ok && scenario_ok;
  if (!sweep_ok) {
    std::cerr << "FAIL: AES-only sweep throttled or exceeded the 4 W budget\n";
  }
  if (!throttle_ok) {
    std::cerr << "FAIL: stressed run did not power-throttle cleanly\n";
  }
  if (!timing_ok) {
    std::cerr << "FAIL: timing TVLA shows data dependence\n";
  }
  if (!scenario_ok) {
    std::cerr << "FAIL: dvfs-frequency scenario max |t| " << scenario_t
              << " below 4.5\n";
  }

  std::string sweep_rows;
  for (const core::SweepPoint& point : sweep) {
    if (!sweep_rows.empty()) {
      sweep_rows += ",";
    }
    sweep_rows += "{\"aes_threads\":" + std::to_string(point.aes_threads) +
                  ",\"package_power_w\":" +
                  util::format_double(point.package_power_w) +
                  ",\"p_freq_ghz\":" +
                  util::format_double(point.p_freq_hz / 1e9) +
                  ",\"throttled\":" + (point.throttled ? "true" : "false") +
                  "}";
  }
  double timing_max_t = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) {
        timing_max_t = std::max(timing_max_t,
                                std::abs(result.timing_matrix.t[i][j]));
      }
    }
  }
  const std::string json =
      "{\"bench\":\"section4_throttling\","
      "\"device\":\"macbook_air_m2\","
      "\"traces_per_set\":" + std::to_string(config.traces_per_set) + ","
      "\"seed\":" + std::to_string(bench::bench_seed()) + ","
      "\"sweep\":[" + sweep_rows + "],"
      "\"observation\":{"
      "\"aes_only_power_w\":" + util::format_double(obs.aes_only_power_w) + ","
      "\"aes_only_p_freq_ghz\":" +
      util::format_double(obs.aes_only_p_freq_hz / 1e9) + ","
      "\"aes_only_throttled\":" +
      (obs.aes_only_throttled ? "true" : "false") + ","
      "\"stressed_estimated_power_w\":" +
      util::format_double(obs.stressed_estimated_power_w) + ","
      "\"stressed_p_freq_ghz\":" +
      util::format_double(obs.stressed_p_freq_hz / 1e9) + ","
      "\"stressed_e_freq_ghz\":" +
      util::format_double(obs.stressed_e_freq_hz / 1e9) + ","
      "\"power_throttled\":" + (obs.power_throttled ? "true" : "false") + ","
      "\"thermal_throttled\":" +
      (obs.thermal_throttled ? "true" : "false") + "},"
      "\"timing\":{"
      "\"mean_time_per_kblock_us\":" +
      util::format_double(result.mean_time_per_kblock_s * 1e6) + ","
      "\"max_cross_class_t\":" + util::format_double(timing_max_t) + ","
      "\"no_data_dependence\":" + (timing_ok ? "true" : "false") + "},"
      "\"scenario\":{"
      "\"name\":\"dvfs-frequency\","
      "\"traces_per_set\":" +
      std::to_string(scenario_result.traces_per_set) + ","
      "\"max_cross_class_t\":" + util::format_double(scenario_t) + ","
      "\"threshold\":4.5,"
      "\"ok\":" + (scenario_ok ? "true" : "false") + "},"
      "\"gate\":\"enforced\","
      "\"ok\":" + (all_ok ? "true" : "false") + "}";
  std::cout << json << "\n";
  const std::string path =
      util::env_string("PSC_BENCH_JSON", "BENCH_section4_throttling.json");
  if (std::ofstream out(path); out) {
    out << json << "\n";
  } else {
    std::cerr << "warning: could not write " << path << "\n";
  }
  return all_ok ? 0 : 1;
}
