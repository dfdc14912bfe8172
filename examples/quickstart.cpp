// Quickstart: build a simulated M2 machine, read power-related SMC keys
// from user space, and run a miniature leakage assessment — the whole
// attack surface of the paper in ~80 lines.
//
//   ./quickstart
#include <algorithm>
#include <iostream>

#include "core/trace_batch.h"
#include "core/trace_source.h"
#include "core/tvla.h"
#include "util/table.h"
#include "victim/platform.h"
#include "victim/victims.h"

int main() {
  using namespace psc;

  // 1. A simulated MacBook Air M2 with chip, scheduler, SMC and IOReport.
  victim::Platform platform(soc::DeviceProfile::macbook_air_m2(), /*seed=*/1);

  // 2. An unprivileged user-space SMC connection (the attacker's view).
  auto smc = platform.open_smc(smc::Privilege::user);
  platform.run_for(1.1);  // let the SMC latch its first samples

  std::cout << "SMC keys visible to an unprivileged process ("
            << smc.key_count() << " total). Power keys:\n";
  util::TextTable keys;
  keys.header({"key", "value", "description"});
  keys.set_align(2, util::Align::left);
  for (const auto& entry : platform.smc().database().entries()) {
    if (entry.info.key.at(0) != 'P') {
      continue;
    }
    smc::SmcValue value;
    if (smc.read_key(entry.info.key, value) != smc::SmcStatus::ok) {
      continue;
    }
    keys.add_row({entry.info.key.str(), util::fixed(value.as_double(), 4),
                  entry.info.description});
  }
  keys.render(std::cout);

  // 3. A victim: a crypto service holding a secret AES-128 key.
  const aes::Block secret_key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                 0x09, 0xcf, 0x4f, 0x3c};

  // 4. Miniature TVLA: does PHPC distinguish what the victim encrypts?
  //    Acquisition goes through the pluggable trace-source layer (the
  //    live source is statistically equivalent to driving the full
  //    platform — swap in a store::FileTraceSource to run the same
  //    assessment from a recorded PSTR capture).
  core::LiveTraceSource source(
      {.profile = soc::DeviceProfile::macbook_air_m2(),
       .victim = victim::VictimModel::user_space()},
      secret_key, /*seed=*/2);
  const std::size_t phpc =
      static_cast<std::size_t>(std::find(source.keys().begin(),
                                         source.keys().end(),
                                         smc::FourCc("PHPC")) -
                               source.keys().begin());

  //    Each (class, collection) set is one batch: stage its plaintexts,
  //    let the source fill the ciphertext and channel columns, and feed
  //    the PHPC column to the accumulator.
  core::TvlaAccumulator tvla;
  util::Xoshiro256 rng(3);
  constexpr std::size_t traces_per_set = 3000;
  core::TraceBatch batch(source.keys().size());
  batch.resize(traces_per_set);
  for (const bool primed : {false, true}) {
    for (const auto cls : core::all_plaintext_classes) {
      for (aes::Block& pt : batch.plaintexts()) {
        pt = core::class_plaintext(cls, rng);
      }
      source.collect_batch(batch);
      tvla.add_batch(cls, primed, batch.column(phpc));
    }
  }

  const core::TvlaMatrix matrix = tvla.matrix();
  std::cout << "\nTVLA on PHPC (" << traces_per_set
            << " traces per class and collection):\n";
  std::cout << "  t(All 0s' vs All 1s) = "
            << util::fixed(matrix.score(core::PlaintextClass::all_zeros,
                                        core::PlaintextClass::all_ones),
                           2)
            << "  (|t| >= 4.5 means the key's value leaks into the power "
               "reading)\n";
  std::cout << "  data-dependent: "
            << (matrix.perfectly_data_dependent() ? "yes - this is the "
                                                    "paper's side channel"
                                                  : "no")
            << "\n\nNext: run `scenario_runner run aes-power-user` to turn "
               "this leakage into key bytes.\n";
  return 0;
}
