#include "power/leakage_model.h"

#include <cstring>

#include "util/simd.h"

#if defined(PSC_SIMD_X86)
#include <immintrin.h>
#endif

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

// Four byte counts of one term row as doubles.
__attribute__((target("avx2"))) inline __m256d load_counts(
    const std::uint8_t* row) noexcept {
  std::int32_t packed;
  std::memcpy(&packed, row, sizeof packed);
  return _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(packed)));
}
#endif  // PSC_SIMD_X86

}  // namespace

LeakageEvaluator::LeakageEvaluator(LeakageConfig config) noexcept
    : config_(config), expected_energy_(config_.expected_energy()) {
  // The nonzero terms of weighted_bits_of, in its order.
  const auto add = [this](std::size_t count, double weight) {
    if (weight != 0.0) {
      terms_[term_count_++] = {count, weight};
    }
  };
  for (std::size_t r = 0; r <= aes::num_rounds; ++r) {
    add(aes::RoundCounts::ark(r), config_.ark_hw_weight[r]);
  }
  for (std::size_t r = 0; r < aes::num_rounds; ++r) {
    add(aes::RoundCounts::sbox(r), config_.sbox_hw_weight[r]);
  }
  add(aes::RoundCounts::plaintext, config_.plaintext_load_weight);
  add(aes::RoundCounts::last_round_hd, config_.last_round_hd_weight);
}

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
  if (util::simd::popcnt_active()) {
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
  if (util::simd::popcnt_active()) {
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

namespace {

// Traces [begin, end) of LeakageEvaluator::energy_deviations, one at a
// time: the portable body, and the tail of the vector body.
void energy_deviations_scalar(const aes::RoundCounts& counts,
                              std::span<const LeakageTerm> terms,
                              const LeakageConfig& config,
                              double expected_energy, std::size_t begin,
                              std::size_t end, double* core,
                              double* bus) noexcept {
  const auto& bits = counts.bits;
  const double bus_expected = config.bus_joules_per_bit * 128.0;
  for (std::size_t t = begin; t < end; ++t) {
    double weighted_bits = 0.0;
    for (const LeakageTerm& term : terms) {
      weighted_bits += term.weight * bits[term.count][t];
    }
    core[t] = weighted_bits * config.leak_joules_per_bit - expected_energy;
    const int bus_bits = bits[aes::RoundCounts::plaintext][t] +
                         bits[aes::RoundCounts::ark(aes::num_rounds)][t];
    const double bus_energy = config.bus_joules_per_bit == 0.0
                                  ? 0.0
                                  : config.bus_joules_per_bit * bus_bits;
    bus[t] = bus_energy - bus_expected;
  }
}

#if defined(PSC_SIMD_X86)
// One lane per trace, each lane through the scalar body's operations.
// Returns how many traces it did.
__attribute__((target("avx2"))) std::size_t energy_deviations_avx2(
    const aes::RoundCounts& counts, std::span<const LeakageTerm> terms,
    const LeakageConfig& config, double expected_energy, std::size_t n,
    double* core, double* bus) noexcept {
  const auto& bits = counts.bits;
  const __m256d joules_per_bit = _mm256_set1_pd(config.leak_joules_per_bit);
  const __m256d expected = _mm256_set1_pd(expected_energy);
  const __m256d bus_joules_per_bit =
      _mm256_set1_pd(config.bus_joules_per_bit);
  const __m256d bus_expected =
      _mm256_set1_pd(config.bus_joules_per_bit * 128.0);
  const bool bus_off = config.bus_joules_per_bit == 0.0;
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    __m256d weighted_bits = _mm256_setzero_pd();
    for (const LeakageTerm& term : terms) {
      weighted_bits = _mm256_add_pd(
          weighted_bits, _mm256_mul_pd(_mm256_set1_pd(term.weight),
                                       load_counts(&bits[term.count][t])));
    }
    _mm256_storeu_pd(core + t,
                     _mm256_sub_pd(_mm256_mul_pd(weighted_bits, joules_per_bit),
                                   expected));
    const __m256d bus_bits = _mm256_add_pd(
        load_counts(&bits[aes::RoundCounts::plaintext][t]),
        load_counts(&bits[aes::RoundCounts::ark(aes::num_rounds)][t]));
    const __m256d bus_energy = bus_off
                                   ? _mm256_setzero_pd()
                                   : _mm256_mul_pd(bus_joules_per_bit, bus_bits);
    _mm256_storeu_pd(bus + t, _mm256_sub_pd(bus_energy, bus_expected));
  }
  return t;
}
#endif  // PSC_SIMD_X86

}  // namespace

void LeakageEvaluator::energy_deviations(const aes::RoundCounts& counts,
                                         std::span<double> core,
                                         std::span<double> bus) const noexcept {
  const std::span<const LeakageTerm> terms(terms_.data(), term_count_);
  std::size_t done = 0;
#if defined(PSC_SIMD_X86)
  if (util::simd::avx2_active()) {
    done = energy_deviations_avx2(counts, terms, config_, expected_energy_,
                                  core.size(), core.data(), bus.data());
  }
#endif
  energy_deviations_scalar(counts, terms, config_, expected_energy_, done,
                           core.size(), core.data(), bus.data());
}

}  // namespace psc::power
