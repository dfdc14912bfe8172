// Table 6: the two channels that do NOT leak — the IOReport "Energy
// Model" PCPU channel (mJ-resolution utilization estimate) and execution
// time under lowpowermode throttling (the governor acts on the PHPS
// estimate).
#include <iostream>

#include "bench_common.h"
#include "core/campaigns.h"
#include "core/report.h"
#include "core/throttle.h"

int main() {
  using namespace psc;
  bench::banner("Table 6",
                "null channels: IOReport PCPU energy and throttled timing");

  // Column 1: PCPU channel TVLA (user-space victim).
  core::LiveCampaignConfig pcpu_config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space(),
                 .include_pcpu = true},
      .traces = bench::scaled(5000),
      .seed = bench::bench_seed() + 6,
  };
  bench::apply_parallel_env(pcpu_config.workers, pcpu_config.shards);
  const auto pcpu_result = run_live_campaign(pcpu_config);
  const auto* pcpu = pcpu_result.find_tvla("PCPU");

  // Column 2: execution-time TVLA under lowpowermode throttling.
  core::ThrottleExperimentConfig throttle_config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .aes_threads = 4,
      .stressor_threads = 4,
      .traces_per_set = bench::scaled(600) / 10,
      .window_s = 1.0,
      .seed = bench::bench_seed() + 7,
  };
  std::cout << "throttled-timing traces per set: "
            << throttle_config.traces_per_set << "\n\n";
  const auto throttle = run_throttle_campaign(throttle_config);

  std::vector<core::TvlaChannelResult> channels;
  channels.push_back({"PCPU (IOReport)", pcpu->matrix});
  channels.push_back({"Time (throttling)", throttle.timing_matrix});
  core::tvla_table("measured t-scores", channels).render(std::cout);
  std::cout << "\n";
  core::tvla_classification_table("classification (threshold |t| >= 4.5)",
                                  channels)
      .render(std::cout);

  std::cout << "\nPCPU no-data-dependence: "
            << (pcpu->matrix.no_data_dependence() ? "confirmed"
                                                  : "VIOLATED")
            << "\nthrottled-timing no-data-dependence: "
            << (throttle.timing_matrix.no_data_dependence() ? "confirmed"
                                                            : "VIOLATED")
            << "\n";

  std::cout <<
      "\npaper reference (Table 6): all cross-class pairs are false "
      "negatives for both channels — PCPU because the Energy Model group "
      "reports a utilization-based estimate at mJ resolution, timing "
      "because lowpowermode throttling follows PHPS, which is itself not "
      "data-dependent.\n";
  return 0;
}
