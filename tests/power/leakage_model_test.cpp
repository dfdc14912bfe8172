#include "power/leakage_model.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <memory>
#include <vector>

#include "aes/aes128.h"
#include "util/hex.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/stats.h"

namespace psc::power {
namespace {

aes::Block random_block(util::Xoshiro256& rng) {
  aes::Block b;
  rng.fill_bytes(b);
  return b;
}

TEST(LeakageConfig, DefaultProfileShape) {
  const LeakageConfig cfg = LeakageConfig::apple_silicon_default();
  EXPECT_DOUBLE_EQ(cfg.ark_hw_weight[0], 1.0);
  EXPECT_DOUBLE_EQ(cfg.ark_hw_weight[9], 0.5);
  EXPECT_GT(cfg.ark_hw_weight[0], cfg.ark_hw_weight[9]);
  for (std::size_t r = 1; r <= aes::num_rounds; ++r) {
    if (r != 9) {
      EXPECT_LT(cfg.ark_hw_weight[r], cfg.ark_hw_weight[9]) << "round " << r;
    }
  }
  EXPECT_DOUBLE_EQ(cfg.last_round_hd_weight, 0.0);
  EXPECT_GT(cfg.leak_joules_per_bit, 0.0);
  EXPECT_GT(cfg.bus_joules_per_bit, 0.0);
}

TEST(LeakageConfig, ZeroConfigGivesZeroEnergy) {
  const LeakageConfig cfg{};  // all weights zero
  LeakageEvaluator eval(cfg);
  util::Xoshiro256 rng(1);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);
  aes::RoundTrace trace;
  const aes::Block pt = random_block(rng);
  cipher.encrypt_trace(pt, trace);
  EXPECT_DOUBLE_EQ(eval.encryption_energy(pt, trace), 0.0);
  EXPECT_DOUBLE_EQ(cfg.expected_energy(), 0.0);
}

TEST(LeakageEvaluator, DeterministicPerPlaintext) {
  const LeakageConfig cfg = LeakageConfig::apple_silicon_default();
  LeakageEvaluator eval(cfg);
  util::Xoshiro256 rng(2);
  aes::Aes128 cipher(random_block(rng));
  const aes::Block pt = random_block(rng);
  aes::RoundTrace t1;
  aes::RoundTrace t2;
  cipher.encrypt_trace(pt, t1);
  cipher.encrypt_trace(pt, t2);
  EXPECT_DOUBLE_EQ(eval.encryption_energy(pt, t1),
                   eval.encryption_energy(pt, t2));
}

TEST(LeakageEvaluator, ExpectedEnergyMatchesEmpiricalMean) {
  const LeakageConfig cfg = LeakageConfig::apple_silicon_default();
  LeakageEvaluator eval(cfg);
  util::Xoshiro256 rng(3);
  aes::Aes128 cipher(random_block(rng));
  util::RunningStats stats;
  aes::RoundTrace trace;
  for (int i = 0; i < 20000; ++i) {
    const aes::Block pt = random_block(rng);
    cipher.encrypt_trace(pt, trace);
    stats.add(eval.encryption_energy(pt, trace));
  }
  EXPECT_NEAR(stats.mean(), cfg.expected_energy(),
              0.01 * cfg.expected_energy());
}

TEST(LeakageEvaluator, DeviationIsZeroMeanOverRandomData) {
  const LeakageConfig cfg = LeakageConfig::apple_silicon_default();
  LeakageEvaluator eval(cfg);
  util::Xoshiro256 rng(4);
  aes::Aes128 cipher(random_block(rng));
  util::RunningStats stats;
  aes::RoundTrace trace;
  for (int i = 0; i < 20000; ++i) {
    const aes::Block pt = random_block(rng);
    cipher.encrypt_trace(pt, trace);
    stats.add(eval.energy_deviation(pt, trace));
  }
  // Mean within a small fraction of one standard deviation of zero.
  EXPECT_LT(std::abs(stats.mean()), 0.05 * stats.stddev());
}

TEST(LeakageEvaluator, EnergyScalesLinearlyWithScale) {
  LeakageConfig cfg = LeakageConfig::apple_silicon_default();
  util::Xoshiro256 rng(5);
  aes::Aes128 cipher(random_block(rng));
  const aes::Block pt = random_block(rng);
  aes::RoundTrace trace;
  cipher.encrypt_trace(pt, trace);
  const double base = LeakageEvaluator(cfg).encryption_energy(pt, trace);
  cfg.leak_joules_per_bit *= 3.0;
  EXPECT_NEAR(LeakageEvaluator(cfg).encryption_energy(pt, trace), 3.0 * base,
              1e-25);
}

TEST(LeakageEvaluator, BoundedByMaxEnergy) {
  const LeakageConfig cfg = LeakageConfig::apple_silicon_default();
  LeakageEvaluator eval(cfg);
  util::Xoshiro256 rng(6);
  aes::Aes128 cipher(random_block(rng));
  aes::RoundTrace trace;
  for (int i = 0; i < 1000; ++i) {
    const aes::Block pt = random_block(rng);
    cipher.encrypt_trace(pt, trace);
    const double e = eval.encryption_energy(pt, trace);
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, cfg.max_energy());
  }
}

TEST(LeakageEvaluator, BusEnergyFormula) {
  LeakageConfig cfg{};
  cfg.bus_joules_per_bit = 2.0;
  LeakageEvaluator eval(cfg);
  aes::Block zeros{};
  aes::Block ones;
  ones.fill(0xff);
  EXPECT_DOUBLE_EQ(eval.bus_energy(zeros, zeros), 0.0);
  EXPECT_DOUBLE_EQ(eval.bus_energy(ones, zeros), 2.0 * 128.0);
  EXPECT_DOUBLE_EQ(eval.bus_energy(ones, ones), 2.0 * 256.0);
  // Deviation centred on 128 expected bits.
  EXPECT_DOUBLE_EQ(eval.bus_energy_deviation(zeros, zeros), -2.0 * 128.0);
  EXPECT_DOUBLE_EQ(eval.bus_energy_deviation(ones, ones), 2.0 * 128.0);
}

TEST(LeakageEvaluator, Round0StateDrivesEnergy) {
  // With only the round-0 weight set, energy is exactly
  // scale * HW(pt ^ key).
  LeakageConfig cfg{};
  cfg.ark_hw_weight[0] = 1.0;
  cfg.leak_joules_per_bit = 1.0;
  LeakageEvaluator eval(cfg);
  const aes::Block key{};  // zero key: post-ARK0 state == plaintext
  aes::Aes128 cipher(key);
  aes::RoundTrace trace;
  aes::Block pt{};
  pt[0] = 0xff;
  pt[5] = 0x0f;
  cipher.encrypt_trace(pt, trace);
  EXPECT_DOUBLE_EQ(eval.encryption_energy(pt, trace), 12.0);
}

TEST(LeakageEvaluator, HdTermCountsLastRoundTransition) {
  LeakageConfig cfg{};
  cfg.last_round_hd_weight = 1.0;
  cfg.leak_joules_per_bit = 1.0;
  LeakageEvaluator eval(cfg);
  util::Xoshiro256 rng(7);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);
  const aes::Block pt = random_block(rng);
  aes::RoundTrace trace;
  cipher.encrypt_trace(pt, trace);
  const double expected = aes::hamming_distance(
      trace.post_add_round_key[9], trace.post_add_round_key[10]);
  EXPECT_DOUBLE_EQ(eval.encryption_energy(pt, trace), expected);
}

// Absolute anchors: the default profile's deviations for fixed
// (key, plaintext) pairs, pinned as exact doubles. A change that shifts
// any leakage term or weight fails here, even when every relative check
// still agrees with itself. A mismatch prints the actual value as a
// hexfloat; paste it in only for an intended change to the model.
TEST(LeakageEvaluator, DeviationsPinnedForFixedInputs) {
  struct Anchor {
    const char* key;
    const char* plaintext;
    double energy_deviation;
    double bus_energy_deviation;
  };
  const Anchor anchors[] = {
      {"2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734",
       -0x1.dd61adf2f266p-47, -0x1.2b7d47b1c5f74p-43},
      {"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
       -0x1.f94dcaf60c2ep-46, -0x1.7a4d6808fa1p-45},
      {"ffffffffffffffffffffffffffffffff", "00000000000000000000000000000000",
       0x1.5478dda1adep-47, -0x1.f86735614d6a6p-42},
  };
  const LeakageEvaluator eval(LeakageConfig::apple_silicon_default());
  for (const Anchor& a : anchors) {
    aes::Block key;
    aes::Block pt;
    ASSERT_TRUE(util::from_hex_exact(a.key, key));
    ASSERT_TRUE(util::from_hex_exact(a.plaintext, pt));
    aes::RoundTrace trace;
    const aes::Block ct = aes::Aes128(key).encrypt_trace(pt, trace);
    const double energy = eval.energy_deviation(pt, trace);
    const double bus = eval.bus_energy_deviation(pt, ct);
    EXPECT_EQ(energy, a.energy_deviation)
        << a.key << "/" << a.plaintext << ": actual " << std::hexfloat
        << energy;
    EXPECT_EQ(bus, a.bus_energy_deviation)
        << a.key << "/" << a.plaintext << ": actual " << std::hexfloat << bus;
  }
}

// The POPCNT bodies of encryption_energy and bus_energy return bit for
// bit what the portable bodies do, for the default profile and for one
// with every term weighted (the last-round Hamming distance included).
TEST(LeakageEvaluator, DispatchedEnergyEqualsPortableBody) {
  namespace simd = util::simd;
  LeakageConfig every_term = LeakageConfig::apple_silicon_default();
  every_term.last_round_hd_weight = 0.35;
  for (std::size_t r = 0; r < aes::num_rounds; ++r) {
    every_term.sbox_hw_weight[r] = 0.05 * static_cast<double>(r + 1);
  }
  constexpr std::size_t pairs = 10240;
  util::Xoshiro256 rng(2306);
  std::vector<aes::Block> pts(pairs);
  std::vector<aes::Block> cts(pairs);
  std::vector<aes::RoundTrace> traces(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    pts[i] = random_block(rng);
    cts[i] = aes::Aes128(random_block(rng)).encrypt_trace(pts[i], traces[i]);
  }
  for (const LeakageConfig& config :
       {LeakageConfig::apple_silicon_default(), every_term}) {
    const LeakageEvaluator eval(config);
    const auto deviations = [&] {
      std::vector<double> out(2 * pairs);
      for (std::size_t i = 0; i < pairs; ++i) {
        out[2 * i] = eval.energy_deviation(pts[i], traces[i]);
        out[2 * i + 1] = eval.bus_energy_deviation(pts[i], cts[i]);
      }
      return out;
    };
    simd::reset_backend();
    const std::vector<double> dispatched = deviations();
    simd::force_backend(simd::Backend::scalar);
    const std::vector<double> portable = deviations();
    simd::reset_backend();
    for (std::size_t i = 0; i < 2 * pairs; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(dispatched[i]),
                std::bit_cast<std::uint64_t>(portable[i]))
          << "pair " << i / 2 << (i % 2 == 0 ? " energy" : " bus energy");
    }
  }
}

// The batch energy pass returns, bit for bit, the per-block deviations, in
// both SIMD modes: for the default profile, for one with every term
// weighted, and for one whose only term is the last-round distance (zero
// weights everywhere else, no bus term).
TEST(LeakageEvaluator, BatchDeviationsEqualPerBlockCalls) {
  namespace simd = util::simd;
  LeakageConfig every_term = LeakageConfig::apple_silicon_default();
  every_term.last_round_hd_weight = 0.35;
  for (std::size_t r = 0; r < aes::num_rounds; ++r) {
    every_term.sbox_hw_weight[r] = 0.05 * static_cast<double>(r + 1);
  }
  LeakageConfig hd_only{};
  hd_only.last_round_hd_weight = 0.75;
  hd_only.leak_joules_per_bit = 1.0e-15;

  // Vector groups of four and a tail.
  constexpr std::size_t n = aes::RoundCounts::capacity - 3;
  util::Xoshiro256 rng(2307);
  const aes::Aes128 cipher(random_block(rng));
  std::vector<aes::Block> pts(n);
  for (aes::Block& pt : pts) {
    pt = random_block(rng);
  }
  auto counts = std::make_unique<aes::RoundCounts>();
  for (const simd::Backend backend : simd::supported_backends()) {
    simd::force_backend(backend);
    for (const LeakageConfig& config :
         {LeakageConfig::apple_silicon_default(), every_term, hd_only}) {
      const LeakageEvaluator eval(config);
      std::vector<aes::Block> cts(n);
      cipher.count_round_states(pts, cts, *counts);
      std::vector<double> core(n);
      std::vector<double> bus(n);
      eval.energy_deviations(*counts, core, bus);
      for (std::size_t t = 0; t < n; ++t) {
        aes::RoundTrace trace;
        cipher.encrypt_trace(pts[t], trace);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(core[t]),
                  std::bit_cast<std::uint64_t>(
                      eval.energy_deviation(pts[t], trace)))
            << simd::backend_name(backend) << ": trace " << t;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(bus[t]),
                  std::bit_cast<std::uint64_t>(
                      eval.bus_energy_deviation(pts[t], cts[t])))
            << simd::backend_name(backend) << ": trace " << t;
      }
    }
  }
  simd::reset_backend();
}

// Property sweep: plaintext classes used by TVLA have distinct energies.
class LeakageClassSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LeakageClassSweep, FixedClassesDiffer) {
  const LeakageConfig cfg = LeakageConfig::apple_silicon_default();
  LeakageEvaluator eval(cfg);
  util::Xoshiro256 rng(GetParam());
  aes::Aes128 cipher(random_block(rng));
  aes::Block zeros{};
  aes::Block ones;
  ones.fill(0xff);
  aes::RoundTrace t0;
  aes::RoundTrace t1;
  cipher.encrypt_trace(zeros, t0);
  cipher.encrypt_trace(ones, t1);
  const double e0 = eval.encryption_energy(zeros, t0) +
                    eval.bus_energy(zeros, cipher.encrypt(zeros));
  const double e1 = eval.encryption_energy(ones, t1) +
                    eval.bus_energy(ones, cipher.encrypt(ones));
  EXPECT_NE(e0, e1);
}

INSTANTIATE_TEST_SUITE_P(Keys, LeakageClassSweep,
                         ::testing::Range<std::uint64_t>(100, 110));

}  // namespace
}  // namespace psc::power
