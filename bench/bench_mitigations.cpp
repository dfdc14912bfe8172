// Section 5 countermeasures, made executable: how each proposed
// mitigation degrades the attack. Compares the open channel against
// RAPL-style filtering (noise blending + coarser resolution + slower
// updates, the INTEL-SA-00389 playbook) and against access control
// (power keys become root-only, the Linux RAPL response).
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "core/campaigns.h"
#include "core/guessing_entropy.h"
#include "util/table.h"
#include "victim/platform.h"

namespace {

struct Row {
  std::string name;
  psc::smc::MitigationPolicy policy;
};

}  // namespace

int main() {
  using namespace psc;
  bench::banner("Section 5", "countermeasures vs the SMC side channel");

  const std::size_t tvla_sets = bench::scaled(5000);
  const std::size_t cpa_traces = bench::scaled(300'000);
  const auto profile = soc::DeviceProfile::macbook_air_m2();

  const std::vector<Row> rows = {
      {"none (shipping state)", smc::MitigationPolicy::none()},
      {"RAPL-style filtering", smc::MitigationPolicy::rapl_style_filtering()},
  };

  util::TextTable table;
  table.header({"mitigation", "PHPC TVLA |t| (0s vs 1s)", "PHPC GE bits",
                "rank-1 bytes", "trace cost", "1M traces take"});
  table.set_align(0, util::Align::left);

  for (const Row& row : rows) {
    core::LiveCampaignConfig tvla_config{
        .source = {.profile = profile,
                   .victim = victim::VictimModel::user_space(),
                   .mitigation = row.policy},
        .traces = tvla_sets,
        .seed = bench::bench_seed(),
    };
    bench::apply_parallel_env(tvla_config.workers, tvla_config.shards);
    const auto tvla = run_live_campaign(tvla_config);
    const double t = std::abs(tvla.find_tvla("PHPC")->matrix.score(
        core::PlaintextClass::all_zeros, core::PlaintextClass::all_ones));

    core::LiveCampaignConfig cpa_config{
        .source = {.profile = profile,
                   .victim = victim::VictimModel::user_space(),
                   .mitigation = row.policy},
        .protocol = core::CampaignProtocol::random_stream,
        .traces = cpa_traces,
        .keys = {smc::FourCc("PHPC")},
        .seed = bench::bench_seed(),
    };
    bench::apply_parallel_env(cpa_config.workers, cpa_config.shards);
    const auto cpa = run_live_campaign(cpa_config);
    const auto& final = cpa.cpa[0].final_results[0];

    util::Xoshiro256 key_rng(1);
    aes::Block key;
    key_rng.fill_bytes(key);
    victim::FastTraceSource source(profile, key,
                                   victim::VictimModel::user_space(), 2,
                                   row.policy);
    const double days = 1e6 * source.window_s() / 86400.0;
    table.add_row({row.name, util::fixed(t, 2), util::fixed(final.ge_bits, 1),
                   std::to_string(final.recovered_bytes) + "/16",
                   util::fixed(source.window_s(), 0) + " s/trace",
                   util::fixed(days, 1) + " days"});
  }

  // Access control cannot be phrased as SNR: the attack never starts.
  {
    victim::Platform platform(profile, bench::bench_seed(),
                              smc::MitigationPolicy::access_control());
    auto conn = platform.open_smc(smc::Privilege::user);
    platform.run_for(1.1);
    smc::SmcValue value;
    const auto status = conn.read_key(smc::FourCc("PHPC"), value);
    table.add_row({"access control (root-only)",
                   std::string("read: ") +
                       std::string(smc::status_name(status)),
                   "-", "-", "-", "attack not mountable"});
  }
  table.render(std::cout);

  std::cout << "\n(" << cpa_traces << " CPA traces per row; random GE = "
            << util::fixed(core::random_guess_ge_bits(), 1) << " bits)\n";
  std::cout <<
      "\npaper reference (section 5): restricting user-space access and "
      "blending noise into the power readings are proposed as analogues "
      "of the Intel/AMD PLATYPUS responses; as of the paper's publication "
      "Apple had not shipped either.\n";
  return 0;
}
