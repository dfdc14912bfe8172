// Figure 1(a): Guessing-Entropy trend against the number of collected
// PHPC traces for the user-space AES victim, M1 Mini and M2 Air, under
// the Rd0-HW / Rd10-HW / Rd10-HD power models.
#include <iostream>

#include "bench_common.h"
#include "core/campaigns.h"
#include "core/report.h"

int main() {
  using namespace psc;
  bench::banner("Figure 1(a)",
                "GE vs collected PHPC traces, user-space victim, M1 + M2");

  const std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw,
                                                 power::PowerModel::rd10_hw,
                                                 power::PowerModel::rd10_hd};

  core::LiveCampaignConfig m2_config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space()},
      .protocol = core::CampaignProtocol::random_stream,
      .traces = bench::scaled(1'000'000),
      .keys = {smc::FourCc("PHPC")},
      .models = models,
      .seed = bench::bench_seed(),
  };
  m2_config.checkpoints =
      core::log_spaced_checkpoints(10000, m2_config.traces, 10);
  bench::apply_parallel_env(m2_config.workers, m2_config.shards);
  std::cout << "M2 campaign: " << m2_config.traces << " traces..."
            << std::flush;
  const auto m2 = run_live_campaign(m2_config);
  std::cout << " done\n";

  core::LiveCampaignConfig m1_config = m2_config;
  m1_config.source.profile = soc::DeviceProfile::mac_mini_m1();
  m1_config.traces = bench::scaled(350'000);
  m1_config.checkpoints =
      core::log_spaced_checkpoints(10000, m1_config.traces, 8);
  m1_config.seed = bench::bench_seed() + 1;
  std::cout << "M1 campaign: " << m1_config.traces << " traces..."
            << std::flush;
  const auto m1 = run_live_campaign(m1_config);
  std::cout << " done\n\n";

  const auto& m2_curves = m2.cpa[0].curves;
  const auto& m1_curves = m1.cpa[0].curves;
  std::vector<core::GeCurveSeries> series;
  for (std::size_t m = 0; m < models.size(); ++m) {
    series.push_back({"M2 " + std::string(power_model_name(models[m])),
                      &m2_curves[m]});
  }
  for (std::size_t m = 0; m < models.size(); ++m) {
    series.push_back({"M1 " + std::string(power_model_name(models[m])),
                      &m1_curves[m]});
  }

  std::cout << "CSV series (plot input):\n";
  core::write_ge_curves_csv(std::cout, series);
  std::cout << "\n";
  core::render_ge_curves(std::cout, series);

  std::cout <<
      "\npaper reference (Fig 1a): Rd0-HW converges fastest; Rd10-HW "
      "converges more slowly; Rd10-HD shows little convergence. M2 Rd0-HW "
      "reaches GE ~31 bits at 1M traces; M1 ends at ~41-51 bits at 350k.\n";
  return 0;
}
