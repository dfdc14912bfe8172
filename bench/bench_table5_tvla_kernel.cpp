// Table 5: TVLA on the selected SMC keys when the victim is the AES
// kernel module on the MacBook Air M2.
#include <iostream>

#include "bench_common.h"
#include "core/campaigns.h"
#include "core/report.h"

int main() {
  using namespace psc;
  bench::banner("Table 5",
                "TVLA between plaintext classes, kernel-module victim, M2");

  core::LiveCampaignConfig config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::kernel_module()},
      .traces = bench::scaled(5000),
      .seed = bench::bench_seed() + 5,
  };
  bench::apply_parallel_env(config.workers, config.shards);
  std::cout << "traces per (class, collection): " << config.traces
            << "\n\n";
  const auto result = run_live_campaign(config);

  core::tvla_table("measured t-scores", result.tvla).render(std::cout);
  std::cout << "\n";
  core::tvla_classification_table("classification (threshold |t| >= 4.5)",
                                  result.tvla)
      .render(std::cout);

  std::cout <<
      "\npaper reference (Table 5): data-dependency patterns consistent "
      "with the user-space victim — PHPC strongest (e.g. All0s' vs All1s "
      "= 19.28), PDTR/PMVC/PSTR leak, PHPS stays mostly below threshold.\n";
  return 0;
}
