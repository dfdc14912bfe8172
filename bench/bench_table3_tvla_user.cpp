// Table 3: TVLA on the selected SMC keys for the user-space AES victim on
// the MacBook Air M2 (3 P-core replicas, fixed key, 10k traces/class).
#include <iostream>

#include "bench_common.h"
#include "core/campaigns.h"
#include "core/report.h"

int main() {
  using namespace psc;
  bench::banner("Table 3",
                "TVLA between plaintext classes, user-space AES victim, M2");

  core::LiveCampaignConfig config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space()},
      .traces = bench::scaled(5000),  // 2 sets -> 10k per class
      .seed = bench::bench_seed(),
  };
  bench::apply_parallel_env(config.workers, config.shards);
  std::cout << "traces per (class, collection): " << config.traces
            << "  (paper: 10k per class)\n\n";
  const auto result = run_live_campaign(config);

  core::tvla_table("measured t-scores", result.tvla).render(std::cout);
  std::cout << "\n";
  core::tvla_classification_table("classification (threshold |t| >= 4.5)",
                                  result.tvla)
      .render(std::cout);

  std::cout <<
      "\npaper reference (Table 3, selected cells):\n"
      "  PHPC: perfect TP/TN (e.g. All0s' vs All1s = 20.94); the star "
      "channel\n"
      "  PDTR/PMVC/PSTR: mostly TP with several FP/FN\n"
      "  PHPS: no true positives (not data-dependent)\n";
  return 0;
}
