// Ablation (ours): victim-replica amplification. The paper runs three
// copies of the AES workload on three P-cores "so the data-dependent
// power consumption is amplified". This bench quantifies that choice:
// TVLA t-scores and CPA convergence for 1 vs 2 vs 3 victim threads.
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "core/campaigns.h"
#include "core/guessing_entropy.h"
#include "util/table.h"

int main() {
  using namespace psc;
  bench::banner("Ablation A1",
                "victim replica amplification (1 vs 2 vs 3 P-core copies)");

  const std::size_t tvla_sets = bench::scaled(5000);
  const std::size_t cpa_traces = bench::scaled(300'000);

  util::TextTable table;
  table.header({"victim threads", "TVLA |t| (0s vs 1s, PHPC)",
                "CPA GE bits (PHPC)", "CPA bytes rank<10"});
  for (const std::size_t threads : {1u, 2u, 3u}) {
    victim::VictimModel model = victim::VictimModel::user_space();
    model.threads = threads;

    core::LiveCampaignConfig tvla_config{
        .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                   .victim = model},
        .traces = tvla_sets,
        .seed = bench::bench_seed() + threads,
    };
    bench::apply_parallel_env(tvla_config.workers, tvla_config.shards);
    const auto tvla = run_live_campaign(tvla_config);
    const double t = std::abs(tvla.find_tvla("PHPC")->matrix.score(
        core::PlaintextClass::all_zeros, core::PlaintextClass::all_ones));

    core::LiveCampaignConfig cpa_config{
        .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                   .victim = model},
        .protocol = core::CampaignProtocol::random_stream,
        .traces = cpa_traces,
        .keys = {smc::FourCc("PHPC")},
        .seed = bench::bench_seed() + threads,
    };
    bench::apply_parallel_env(cpa_config.workers, cpa_config.shards);
    const auto cpa = run_live_campaign(cpa_config);
    const auto& final = cpa.cpa[0].final_results[0];

    table.add_row({std::to_string(threads), util::fixed(t, 2),
                   util::fixed(final.ge_bits, 1),
                   std::to_string(final.near_recovered_bytes)});
  }
  table.render(std::cout);

  std::cout << "\n(" << cpa_traces << " CPA traces per row; random GE = "
            << util::fixed(core::random_guess_ge_bits(), 1)
            << " bits)\nexpected: more replicas -> proportionally larger "
               "signal -> larger t and faster GE convergence, which is why "
               "the paper replicated the workload on three P-cores.\n";
  return 0;
}
