// Table 4: rank of each AES key byte after CPA with the Rd0-HW power
// model — PHPC/PDTR/PMVC/PSTR traces on the M2 (1M traces) and PHPC on
// the M1 (350k traces).
#include <iostream>

#include "bench_common.h"
#include "core/campaigns.h"
#include "core/guessing_entropy.h"
#include "core/key_rank.h"
#include "core/report.h"
#include "util/hex.h"

int main() {
  using namespace psc;
  bench::banner("Table 4", "CPA key-byte ranks, Rd0-HW power model");

  const std::size_t m2_traces = bench::scaled(1'000'000);
  const std::size_t m1_traces = bench::scaled(350'000);

  core::LiveCampaignConfig m2_config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space()},
      .protocol = core::CampaignProtocol::random_stream,
      .traces = m2_traces,
      .keys = {smc::FourCc("PHPC"), smc::FourCc("PDTR"), smc::FourCc("PMVC"),
               smc::FourCc("PSTR")},
      .seed = bench::bench_seed(),
  };
  bench::apply_parallel_env(m2_config.workers, m2_config.shards);
  std::cout << "collecting " << m2_traces << " M2 traces..." << std::flush;
  const auto m2 = run_live_campaign(m2_config);
  std::cout << " done\n";

  core::LiveCampaignConfig m1_config{
      .source = {.profile = soc::DeviceProfile::mac_mini_m1(),
                 .victim = victim::VictimModel::user_space()},
      .protocol = core::CampaignProtocol::random_stream,
      .traces = m1_traces,
      .keys = {smc::FourCc("PHPC")},
      .seed = bench::bench_seed() + 1,
  };
  bench::apply_parallel_env(m1_config.workers, m1_config.shards);
  std::cout << "collecting " << m1_traces << " M1 traces..." << std::flush;
  const auto m1 = run_live_campaign(m1_config);
  std::cout << " done\n\n";

  std::vector<core::RankColumn> columns;
  for (const char* key : {"PHPC", "PDTR", "PMVC", "PSTR"}) {
    const auto parsed = smc::FourCc::parse(key);
    columns.push_back({key, &m2.find_cpa(*parsed)->final_results[0]});
  }
  columns.push_back(
      {"PHPC (M1)", &m1.find_cpa(smc::FourCc("PHPC"))->final_results[0]});

  core::cpa_rank_table("measured ranks (* = recovered, + = rank < 10)",
                       columns)
      .render(std::cout);

  const auto& phpc = *m2.find_cpa(smc::FourCc("PHPC"));
  const auto key_rank = core::estimate_key_rank(phpc.final_results[0]);
  std::cout << "\nRd0-HW best-guess key (PHPC): "
            << util::to_hex(phpc.final_results[0].best_round_key)
            << "\nvictim master key          : "
            << util::to_hex(m2.secret)
            << "\noptimal enumeration rank   : 2^"
            << util::fixed(key_rank.log2_rank, 1)
            << " full keys (GE's independence approximation: 2^"
            << util::fixed(phpc.final_results[0].ge_bits, 1) << ")\n";

  std::cout <<
      "\npaper reference (GE row of Table 4):\n"
      "  PHPC 31.0 | PDTR 41.6 | PMVC 42.8 | PSTR 109.3 | PHPC(M1) 40.9\n"
      "  PHPC: 6 bytes rank 1, 6 more rank < 10; PSTR: no recovery\n"
      "  random-guessing reference: "
            << util::fixed(core::random_guess_ge_bits(), 1) << " bits\n";
  return 0;
}
