// Chip-side data-dependent leakage model.
//
// CMOS datapaths consume energy proportional to the values they process
// (value leakage on precharged buses and register file reads: ~Hamming
// weight) and to the transitions they drive (switching leakage: ~Hamming
// distance). This module assigns an energy to each AES encryption as a
// weighted sum over its true intermediate states.
//
// The weight profile is the calibration surface of the whole reproduction:
// the paper's evidence (Rd0-HW converges fastest, Rd10-HW slower, Rd10-HD
// not at all; Table 4 / Fig. 1) pins the silicon to value-dominated leakage
// with the first AddRoundKey state most exposed. `apple_silicon_default()`
// encodes exactly that shape; the ablation bench flips the weights to show
// the attack models respond as theory predicts.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "aes/aes128.h"

namespace psc::power {

// Per-round energy weights, in units of `leak_joules_per_bit`.
struct LeakageConfig {
  // Weight of HW(post-AddRoundKey state of round r), r = 0..10.
  std::array<double, aes::num_rounds + 1> ark_hw_weight{};

  // Weight of HW(post-SubBytes state of round r), r = 1..10.
  std::array<double, aes::num_rounds> sbox_hw_weight{};

  // Weight of HW(plaintext) (input buffer loads; key-independent).
  double plaintext_load_weight = 0.0;

  // Weight of HD(last-round input, ciphertext) — register-overwrite
  // transition leakage. Zero by default: the paper's Rd10-HD model shows no
  // convergence on M1/M2, so the observable channel carries no measurable
  // transition leakage.
  double last_round_hd_weight = 0.0;

  // Global scale: joules contributed per weighted Hamming-weight bit per
  // encryption.
  double leak_joules_per_bit = 0.0;

  // Memory/IO-side value leakage: every encryption drives the plaintext and
  // ciphertext buffers across the fabric, dissipating energy proportional
  // to HW(pt) + HW(ct) on the DRAM/IO rail (bus termination and lane
  // toggling) rather than on the core rail. This is the mechanism behind
  // the paper's package-level keys (PSTR, PDTR) showing clear TVLA
  // leakage between all-0s and all-1s plaintexts while their per-byte CPA
  // signal stays buried: the term is large for full-block differences but
  // only weakly correlated with any single-byte hypothesis.
  double bus_joules_per_bit = 0.0;

  // Calibrated profile reproducing the paper's observations.
  static LeakageConfig apple_silicon_default();

  // Expected energy per encryption under uniform random data, used to
  // separate the data-dependent deviation from the mean workload power.
  double expected_energy() const noexcept;

  // Maximum possible per-encryption energy (all states at HW 128).
  double max_energy() const noexcept;
};

// One nonzero-weight term of the weighted bit count.
struct LeakageTerm {
  std::size_t count = 0;  // row of aes::RoundCounts::bits
  double weight = 0.0;
};

// Evaluates the per-encryption data-dependent energy from a captured
// round trace.
class LeakageEvaluator {
 public:
  explicit LeakageEvaluator(LeakageConfig config) noexcept;

  // Joules of data-dependent energy dissipated by one encryption whose
  // intermediate states are `trace` and whose input block was `plaintext`.
  // The body is chosen once per call: on x86-64, when the CPU has POPCNT
  // and util::simd::active_backend() is not `scalar`, every block weight
  // (11 AddRoundKey and 10 SubBytes states, the plaintext, the last-round
  // distance) is a POPCNT instruction; otherwise a libgcc call. Both sum
  // the same terms in the same order, so they return the same double.
  double encryption_energy(const aes::Block& plaintext,
                           const aes::RoundTrace& trace) const noexcept;

  // Deviation of one encryption's energy from the random-data expectation;
  // this is the signal a power meter sees on top of the mean draw.
  double energy_deviation(const aes::Block& plaintext,
                          const aes::RoundTrace& trace) const noexcept;

  // Bus/IO-side energy of one encryption: bus_joules_per_bit *
  // (HW(pt) + HW(ct)). Routed to the DRAM/IO rail by the SoC model.
  // Counts with POPCNT under the same condition as encryption_energy;
  // the count is an integer, so both bodies return the same double.
  double bus_energy(const aes::Block& plaintext,
                    const aes::Block& ciphertext) const noexcept;

  // Deviation of the bus energy from its random-data expectation (128
  // bits).
  double bus_energy_deviation(const aes::Block& plaintext,
                              const aes::Block& ciphertext) const noexcept;

  // Batch form of energy_deviation and bus_energy_deviation over the
  // first core.size() encryptions counted in `counts` (bus.size() ==
  // core.size()): core[t] and bus[t] are, bit for bit, what the per-block
  // calls return for encryption t. Each weighted sum starts from 0.0 and
  // adds w * count over the nonzero weights in the per-block order: the
  // 11 AddRoundKey states, the 10 SubBytes states, the plaintext, the
  // last-round distance. On x86-64 with AVX2, unless
  // util::simd::active_backend() is `scalar`, one vector lane carries one
  // trace through the same additions; otherwise a scalar loop does.
  void energy_deviations(const aes::RoundCounts& counts, std::span<double> core,
                         std::span<double> bus) const noexcept;

  const LeakageConfig& config() const noexcept { return config_; }

 private:
  LeakageConfig config_;
  double expected_energy_;  // config_.expected_energy(), computed once
  std::array<LeakageTerm, aes::RoundCounts::terms> terms_{};
  std::size_t term_count_ = 0;
};

}  // namespace psc::power
