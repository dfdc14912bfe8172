// Figure 1(b): GE trend for the AES *kernel module* victim on the M2 —
// the same attack mounted against a privileged service, converging about
// two times slower than the user-space victim.
#include <iostream>

#include "bench_common.h"
#include "core/campaigns.h"
#include "core/report.h"

int main() {
  using namespace psc;
  bench::banner("Figure 1(b)",
                "GE vs collected PHPC traces, kernel-module victim, M2");

  const std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw,
                                                 power::PowerModel::rd10_hw,
                                                 power::PowerModel::rd10_hd};

  core::LiveCampaignConfig kernel_config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::kernel_module()},
      .protocol = core::CampaignProtocol::random_stream,
      .traces = bench::scaled(1'000'000),
      .keys = {smc::FourCc("PHPC")},
      .models = models,
      .seed = bench::bench_seed(),
  };
  kernel_config.checkpoints =
      core::log_spaced_checkpoints(10000, kernel_config.traces, 10);
  bench::apply_parallel_env(kernel_config.workers, kernel_config.shards);
  std::cout << "kernel campaign: " << kernel_config.traces
            << " traces..." << std::flush;
  const auto kernel = run_live_campaign(kernel_config);
  std::cout << " done\n";

  // User-space Rd0-HW as the comparison baseline for the 2x statement.
  core::LiveCampaignConfig user_config = kernel_config;
  user_config.source.victim = victim::VictimModel::user_space();
  user_config.models = {power::PowerModel::rd0_hw};
  std::cout << "user baseline: " << user_config.traces << " traces..."
            << std::flush;
  const auto user = run_live_campaign(user_config);
  std::cout << " done\n\n";

  std::vector<core::GeCurveSeries> series;
  for (std::size_t m = 0; m < models.size(); ++m) {
    series.push_back(
        {"kernel " + std::string(power_model_name(models[m])),
         &kernel.cpa[0].curves[m]});
  }
  series.push_back({"user Rd0-HW (baseline)", &user.cpa[0].curves[0]});

  std::cout << "CSV series (plot input):\n";
  core::write_ge_curves_csv(std::cout, series);
  std::cout << "\n";
  core::render_ge_curves(std::cout, series);

  const double kernel_final = kernel.cpa[0].curves[0].back().ge_bits;
  const double user_final = user.cpa[0].curves[0].back().ge_bits;
  std::cout << "\nfinal GE: kernel Rd0-HW "
            << util::fixed(kernel_final, 1) << " bits vs user "
            << util::fixed(user_final, 1) << " bits\n";
  std::cout <<
      "paper reference (Fig 1b): converging Rd0-HW trend, no Rd10-HD "
      "convergence, approximately two times slower than the user-space "
      "victim (SNR lost to syscall noise and the duty-cycled service).\n";
  return 0;
}
