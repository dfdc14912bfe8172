// multi_sink_analysis: one acquisition pass, every analysis.
//
// Collects the TVLA protocol's six labeled trace sets once through the
// columnar batch pipeline and fans every batch out to two sinks at the
// same time: a TvlaSink (is the channel data-dependent?) and a CpaSink
// (what key bytes do the random-plaintext sets leak?). The point of the
// core::AnalysisSink layer: the attacker pays for the traces once and
// asks every question afterwards.
//
//   ./multi_sink_analysis [traces_per_set]
#include <algorithm>
#include <cmath>
#include <iostream>

#include "core/analysis_sink.h"
#include "core/guessing_entropy.h"
#include "core/trace_source.h"
#include "util/hex.h"

#include "cli_args.h"

int main(int argc, char** argv) {
  using namespace psc;

  const std::size_t per_set =
      cli::positional_u64(argc, argv, 1, "traces_per_set", 20'000);

  util::Xoshiro256 rng(7);
  aes::Block victim_key;
  rng.fill_bytes(victim_key);
  core::LiveTraceSource source(
      {.profile = soc::DeviceProfile::macbook_air_m2(),
       .victim = victim::VictimModel::user_space()},
      victim_key, 1);
  const auto& channels = source.keys();
  const std::size_t phpc = static_cast<std::size_t>(
      std::find(channels.begin(), channels.end(), util::FourCc("PHPC")) -
      channels.begin());

  // One TVLA accumulator per channel, one CPA engine on the star channel,
  // both fed from the same stream.
  core::TvlaSink tvla(channels.size());
  core::CpaSink cpa({power::PowerModel::rd0_hw}, {phpc});
  core::MultiSink sinks({&tvla, &cpa});

  core::TraceBatch batch(channels.size());
  constexpr std::size_t chunk_size = 1024;
  batch.reserve(chunk_size);
  std::size_t total = 0;
  for (const bool primed : {false, true}) {
    for (const core::PlaintextClass cls : core::all_plaintext_classes) {
      std::size_t produced = 0;
      while (produced < per_set) {
        const std::size_t chunk = std::min(chunk_size, per_set - produced);
        batch.clear();
        batch.resize(chunk);
        for (auto& pt : batch.plaintexts()) {
          pt = core::class_plaintext(cls, rng);
        }
        source.collect_batch(batch);
        sinks.consume(batch, core::BatchLabel::tvla(cls, primed));
        produced += chunk;
        total += chunk;
      }
    }
  }
  std::cout << "collected " << total << " traces ("
            << 6 * per_set << " budgeted, one pass)\n\n";

  // TVLA verdicts per channel.
  std::cout << "TVLA (|t| >= " << util::tvla_threshold << " leaks):\n";
  for (std::size_t c = 0; c < channels.size(); ++c) {
    const core::TvlaMatrix m = tvla.accumulator(c).matrix();
    std::cout << "  " << channels[c].str() << ": t(0s' vs 1s) = "
              << m.score(core::PlaintextClass::all_zeros,
                         core::PlaintextClass::all_ones)
              << (m.perfectly_data_dependent()
                      ? "  <- perfectly data-dependent"
                      : m.no_data_dependence() ? "  (no leakage)" : "")
              << "\n";
  }

  // CPA from the very same traces: the sink consumed only the two
  // random-plaintext collections.
  const auto result = cpa.engine(0).analyze(
      power::PowerModel::rd0_hw, aes::Aes128::expand_key(victim_key));
  std::cout << "\nCPA on PHPC from the " << cpa.trace_count()
            << " random-plaintext traces of the same pass:\n"
            << "  GE " << result.ge_bits << " bits (random "
            << core::random_guess_ge_bits() << "), "
            << result.recovered_bytes << "/16 bytes at rank 1\n"
            << "  best guess : " << util::to_hex(result.best_round_key)
            << "\n  victim key : " << util::to_hex(victim_key) << "\n";
  return 0;
}
