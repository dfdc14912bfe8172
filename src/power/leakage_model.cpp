#include "power/leakage_model.h"

#include "util/simd.h"

namespace psc::power {

namespace {

// The weighted bit count of one encryption. Inlined into both bodies,
// with aes::hamming_weight/distance inlined into it, so each popcount is
// the POPCNT instruction in the target("popcnt") body and a libgcc call
// in the portable one; both sum the same terms in the same order, so they
// return the same double.
[[gnu::always_inline]] inline double weighted_bits_of(
    const LeakageConfig& config, const aes::Block& plaintext,
    const aes::RoundTrace& trace) {
  double weighted_bits = 0.0;
  for (std::size_t r = 0; r <= aes::num_rounds; ++r) {
    const double w = config.ark_hw_weight[r];
    if (w != 0.0) {
      weighted_bits += w * aes::hamming_weight(trace.post_add_round_key[r]);
    }
  }
  for (std::size_t r = 0; r < aes::num_rounds; ++r) {
    const double w = config.sbox_hw_weight[r];
    if (w != 0.0) {
      weighted_bits += w * aes::hamming_weight(trace.post_sub_bytes[r]);
    }
  }
  if (config.plaintext_load_weight != 0.0) {
    weighted_bits +=
        config.plaintext_load_weight * aes::hamming_weight(plaintext);
  }
  if (config.last_round_hd_weight != 0.0) {
    weighted_bits += config.last_round_hd_weight *
                     aes::hamming_distance(
                         trace.post_add_round_key[aes::num_rounds - 1],
                         trace.post_add_round_key[aes::num_rounds]);
  }
  return weighted_bits;
}

// The bus term's bit count, HW(pt) + HW(ct): an integer, so both bodies
// return the same value.
[[gnu::always_inline]] inline int bus_bits_of(
    const aes::Block& plaintext, const aes::Block& ciphertext) {
  return aes::hamming_weight(plaintext) + aes::hamming_weight(ciphertext);
}

#if defined(PSC_SIMD_X86)
__attribute__((target("popcnt"))) double weighted_bits_popcnt(
    const LeakageConfig& config, const aes::Block& plaintext,
    const aes::RoundTrace& trace) noexcept {
  return weighted_bits_of(config, plaintext, trace);
}

__attribute__((target("popcnt"))) int bus_bits_popcnt(
    const aes::Block& plaintext, const aes::Block& ciphertext) noexcept {
  return bus_bits_of(plaintext, ciphertext);
}

// POPCNT runs unless dispatch is pinned to the portable bodies
// (PSC_SIMD=scalar or util::simd::force_backend(Backend::scalar)).
bool use_popcnt() noexcept {
  static const bool cpu_has_popcnt = __builtin_cpu_supports("popcnt") != 0;
  return cpu_has_popcnt &&
         util::simd::active_backend() != util::simd::Backend::scalar;
}
#endif  // PSC_SIMD_X86

}  // namespace

LeakageConfig LeakageConfig::apple_silicon_default() {
  LeakageConfig cfg;
  // Value leakage concentrated on the first AddRoundKey state: with the
  // same plaintext encrypted back-to-back for a full SMC window, the
  // whitened input is the value most often re-driven through the datapath
  // (input registers, first AESE operand). Matches Rd0-HW converging
  // fastest in Fig. 1.
  cfg.ark_hw_weight[0] = 1.0;
  // The last-round input (post-ARK9) leaks at roughly half the weight:
  // Rd10-HW converges, but visibly slower.
  cfg.ark_hw_weight[9] = 0.5;
  // Remaining round states contribute a uniform background: data-dependent
  // (TVLA sees the full-state differences) but uncorrelated with any
  // single-byte hypothesis (CPA-algorithmic noise).
  for (std::size_t r = 1; r <= aes::num_rounds; ++r) {
    if (r != 9) {
      cfg.ark_hw_weight[r] = 0.15;
    }
  }
  for (auto& w : cfg.sbox_hw_weight) {
    w = 0.15;
  }
  cfg.plaintext_load_weight = 0.85;
  cfg.last_round_hd_weight = 0.0;
  // Joules per weighted bit per encryption; the end-to-end scale is
  // validated by tests/calibration (see soc/device_profile.cpp for the
  // derived per-key SNR figures).
  cfg.leak_joules_per_bit = 1.0e-15;
  // Bus termination / lane toggling costs roughly 5x the core datapath per
  // bit; dominates the package-rail TVLA signal.
  cfg.bus_joules_per_bit = 7.0e-15;
  return cfg;
}

double LeakageConfig::expected_energy() const noexcept {
  // Uniform random state bytes have expected HW 64 per 16-byte block, and
  // expected HD 64 between two independent blocks.
  double weighted_bits = 0.0;
  for (const double w : ark_hw_weight) {
    weighted_bits += w * 64.0;
  }
  for (const double w : sbox_hw_weight) {
    weighted_bits += w * 64.0;
  }
  weighted_bits += plaintext_load_weight * 64.0;
  weighted_bits += last_round_hd_weight * 64.0;
  return weighted_bits * leak_joules_per_bit;
}

double LeakageConfig::max_energy() const noexcept {
  double weighted_bits = 0.0;
  for (const double w : ark_hw_weight) {
    weighted_bits += w * 128.0;
  }
  for (const double w : sbox_hw_weight) {
    weighted_bits += w * 128.0;
  }
  weighted_bits += plaintext_load_weight * 128.0;
  weighted_bits += last_round_hd_weight * 128.0;
  return weighted_bits * leak_joules_per_bit;
}

double LeakageEvaluator::encryption_energy(
    const aes::Block& plaintext, const aes::RoundTrace& trace) const noexcept {
#if defined(PSC_SIMD_X86)
  if (use_popcnt()) {
    return weighted_bits_popcnt(config_, plaintext, trace) *
           config_.leak_joules_per_bit;
  }
#endif
  return weighted_bits_of(config_, plaintext, trace) *
         config_.leak_joules_per_bit;
}

double LeakageEvaluator::energy_deviation(
    const aes::Block& plaintext, const aes::RoundTrace& trace) const noexcept {
  return encryption_energy(plaintext, trace) - expected_energy_;
}

double LeakageEvaluator::bus_energy(
    const aes::Block& plaintext, const aes::Block& ciphertext) const noexcept {
  if (config_.bus_joules_per_bit == 0.0) {
    return 0.0;
  }
#if defined(PSC_SIMD_X86)
  if (use_popcnt()) {
    return config_.bus_joules_per_bit * bus_bits_popcnt(plaintext, ciphertext);
  }
#endif
  return config_.bus_joules_per_bit * bus_bits_of(plaintext, ciphertext);
}

double LeakageEvaluator::bus_energy_deviation(
    const aes::Block& plaintext, const aes::Block& ciphertext) const noexcept {
  return bus_energy(plaintext, ciphertext) -
         config_.bus_joules_per_bit * 128.0;
}

}  // namespace psc::power
