// kernel_attack: crossing the privilege boundary (paper section 3.5).
// The victim is now a kernel crypto driver: its secret never leaves
// kernel space, the attacker merely calls the encryption service and
// reads user-visible SMC keys. Demonstrates that the side channel works
// across the user/kernel boundary, just with lower SNR.
//
//   ./kernel_attack [traces]            (default 300000)
#include <iostream>

#include "core/campaigns.h"
#include "core/guessing_entropy.h"
#include "util/hex.h"
#include "util/table.h"

#include "cli_args.h"

int main(int argc, char** argv) {
  using namespace psc;

  const std::size_t traces =
      cli::positional_u64(argc, argv, 1, "traces", 300'000);

  std::cout
      << "victim : AES-128 kernel module (duty-cycled service threads +\n"
         "         syscall-path noise from the caller), M2\n"
      << "attack : same unprivileged CPA as the user-space case\n\n";

  // Step 1: confirm the channel still leaks for the kernel victim (TVLA).
  core::LiveCampaignConfig config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::kernel_module()},
      .traces = 4000,
      .seed = 99,
  };
  const auto tvla = run_live_campaign(config);
  std::cout << "TVLA (kernel victim): PHPC t(0s' vs 1s) = "
            << util::fixed(tvla.find_tvla("PHPC")->matrix.score(
                               core::PlaintextClass::all_zeros,
                               core::PlaintextClass::all_ones),
                           2)
            << ", PHPS t(0s' vs 1s) = "
            << util::fixed(tvla.find_tvla("PHPS")->matrix.score(
                               core::PlaintextClass::all_zeros,
                               core::PlaintextClass::all_ones),
                           2)
            << "\n\n";

  // Step 2: extract key material, comparing convergence against the
  // user-space victim at the same trace budget.
  config.protocol = core::CampaignProtocol::random_stream;
  config.traces = traces;
  config.keys = {smc::FourCc("PHPC")};
  config.seed = 100;
  const auto kernel = run_live_campaign(config);

  config.source.victim = victim::VictimModel::user_space();
  const auto user = run_live_campaign(config);

  util::TextTable table;
  table.header({"victim", "GE bits", "mean rank", "rank-1 bytes",
                "rank<10 bytes"});
  const auto& kernel_final = kernel.cpa[0].final_results[0];
  const auto& user_final = user.cpa[0].final_results[0];
  table.add_row({"kernel module", util::fixed(kernel_final.ge_bits, 1),
                 util::fixed(kernel_final.mean_rank, 1),
                 std::to_string(kernel_final.recovered_bytes),
                 std::to_string(kernel_final.near_recovered_bytes)});
  table.add_row({"user space", util::fixed(user_final.ge_bits, 1),
                 util::fixed(user_final.mean_rank, 1),
                 std::to_string(user_final.recovered_bytes),
                 std::to_string(user_final.near_recovered_bytes)});
  table.render(std::cout);

  std::cout << "\nkernel secret  : " << util::to_hex(kernel.secret)
            << "\nbest guess     : "
            << util::to_hex(kernel_final.best_round_key) << "\n\n"
            << "the kernel attack needs roughly twice the traces of the "
               "user-space attack for the same GE (paper Fig. 1b) — the "
               "confidentiality of kernel-held secrets is still broken by "
               "an unprivileged SMC reader.\n";
  return 0;
}
