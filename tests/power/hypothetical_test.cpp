#include "power/hypothetical.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "aes/sbox.h"
#include "util/rng.h"

namespace psc::power {
namespace {

// Pearson correlation of paired samples, computed directly (two passes):
// the brute-force reference. 0 when either side has no variance.
double direct_correlation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mean_x += x[i];
    mean_y += y[i];
  }
  mean_x /= n;
  mean_y /= n;
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mean_x) * (y[i] - mean_y);
    sxx += (x[i] - mean_x) * (x[i] - mean_x);
    syy += (y[i] - mean_y) * (y[i] - mean_y);
  }
  return sxx > 0.0 && syy > 0.0 ? sxy / std::sqrt(sxx * syy) : 0.0;
}

TEST(PowerModels, Names) {
  EXPECT_EQ(power_model_name(PowerModel::rd0_hw), "Rd0-HW");
  EXPECT_EQ(power_model_name(PowerModel::rd10_hw), "Rd10-HW");
  EXPECT_EQ(power_model_name(PowerModel::rd10_hd), "Rd10-HD");
  EXPECT_EQ(power_model_name(PowerModel::rd1_sbox_hw), "Rd1-SBox-HW");
}

TEST(PowerModels, RecoveredRound) {
  EXPECT_EQ(recovered_round(PowerModel::rd0_hw), 0);
  EXPECT_EQ(recovered_round(PowerModel::rd10_hw), 10);
  EXPECT_EQ(recovered_round(PowerModel::rd10_hd), 10);
  EXPECT_EQ(recovered_round(PowerModel::rd1_sbox_hw), 0);
}

TEST(PowerModels, Rd1SboxUsesForwardSbox) {
  for (int pt = 0; pt < 256; pt += 19) {
    for (int g = 0; g < 256; g += 29) {
      const auto p = static_cast<std::uint8_t>(pt);
      const auto guess = static_cast<std::uint8_t>(g);
      EXPECT_EQ(predict_rd1_sbox_hw(p, guess),
                aes::hamming_weight(
                    aes::sbox[static_cast<std::uint8_t>(p ^ guess)]));
    }
  }
}

TEST(PowerModels, InputMetadata) {
  EXPECT_TRUE(power_model_inputs(PowerModel::rd0_hw).uses_plaintext);
  EXPECT_FALSE(power_model_inputs(PowerModel::rd0_hw).uses_ciphertext_pair);
  EXPECT_FALSE(power_model_inputs(PowerModel::rd10_hw).uses_plaintext);
  EXPECT_FALSE(power_model_inputs(PowerModel::rd10_hw).uses_ciphertext_pair);
  EXPECT_TRUE(power_model_inputs(PowerModel::rd10_hd).uses_ciphertext_pair);
}

TEST(PowerModels, Rd0HwKnownValues) {
  EXPECT_EQ(predict_rd0_hw(0x00, 0x00), 0);
  EXPECT_EQ(predict_rd0_hw(0xff, 0x00), 8);
  EXPECT_EQ(predict_rd0_hw(0xf0, 0x0f), 8);
  EXPECT_EQ(predict_rd0_hw(0xaa, 0xaa), 0);
  EXPECT_EQ(predict_rd0_hw(0x01, 0x03), 1);
}

TEST(PowerModels, Rd10HwUsesInverseSbox) {
  for (int ct = 0; ct < 256; ct += 17) {
    for (int g = 0; g < 256; g += 23) {
      const auto c = static_cast<std::uint8_t>(ct);
      const auto guess = static_cast<std::uint8_t>(g);
      const std::uint8_t state =
          aes::inv_sbox[static_cast<std::uint8_t>(c ^ guess)];
      EXPECT_EQ(predict_rd10_hw(c, guess), aes::hamming_weight(state));
    }
  }
}

TEST(PowerModels, Rd10HdKnownStructure) {
  // HD between the recovered last-round input byte and the ciphertext byte
  // that overwrites it.
  const std::uint8_t ct_byte = 0x3a;
  const std::uint8_t ct_shifted = 0x5c;
  const std::uint8_t g = 0x77;
  const std::uint8_t input =
      aes::inv_sbox[static_cast<std::uint8_t>(ct_byte ^ g)];
  EXPECT_EQ(predict_rd10_hd(ct_byte, ct_shifted, g),
            aes::hamming_weight(static_cast<std::uint8_t>(input ^ ct_shifted)));
}

TEST(PowerModels, PredictDispatchesConsistently) {
  util::Xoshiro256 rng(40);
  aes::Block pt;
  aes::Block ct;
  rng.fill_bytes(pt);
  rng.fill_bytes(ct);
  for (std::size_t i = 0; i < 16; ++i) {
    const std::uint8_t g = static_cast<std::uint8_t>(rng.uniform_u64(256));
    EXPECT_EQ(predict(PowerModel::rd0_hw, pt, ct, i, g),
              predict_rd0_hw(pt[i], g));
    EXPECT_EQ(predict(PowerModel::rd10_hw, pt, ct, i, g),
              predict_rd10_hw(ct[i], g));
    EXPECT_EQ(predict(PowerModel::rd10_hd, pt, ct, i, g),
              predict_rd10_hd(ct[i], ct[aes::shift_rows_source(i)], g));
    EXPECT_EQ(predict(PowerModel::rd1_sbox_hw, pt, ct, i, g),
              predict_rd1_sbox_hw(pt[i], g));
  }
}

TEST(PowerModels, TrueKeyByte) {
  util::Xoshiro256 rng(41);
  aes::Block key;
  rng.fill_bytes(key);
  const auto round_keys = aes::Aes128::expand_key(key);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(true_key_byte(PowerModel::rd0_hw, round_keys, i), key[i]);
    EXPECT_EQ(true_key_byte(PowerModel::rd10_hw, round_keys, i),
              round_keys[10][i]);
    EXPECT_EQ(true_key_byte(PowerModel::rd10_hd, round_keys, i),
              round_keys[10][i]);
  }
}

// Alignment property: when the chip leaks exactly the intermediate a model
// targets, the true key guess must out-correlate every competitor. This is
// the contract between chip-side leakage and attacker-side models that the
// whole CPA pipeline rests on.
class ModelAlignment : public ::testing::TestWithParam<PowerModel> {};

TEST_P(ModelAlignment, TrueGuessWinsOnNoiselessLeakage) {
  const PowerModel model = GetParam();
  util::Xoshiro256 rng(42);
  aes::Block key;
  rng.fill_bytes(key);
  aes::Aes128 cipher(key);
  const auto& round_keys = cipher.round_keys();

  constexpr std::size_t n_traces = 4000;
  constexpr std::size_t byte_index = 5;

  std::vector<double> leak(n_traces);
  std::vector<aes::Block> pts(n_traces);
  std::vector<aes::Block> cts(n_traces);
  aes::RoundTrace trace;
  for (std::size_t t = 0; t < n_traces; ++t) {
    rng.fill_bytes(pts[t]);
    cts[t] = cipher.encrypt_trace(pts[t], trace);
    // Leak the exact intermediate the model hypothesizes, whole state.
    double value = 0.0;
    switch (model) {
      case PowerModel::rd0_hw:
        value = aes::hamming_weight(trace.post_add_round_key[0]);
        break;
      case PowerModel::rd10_hw:
        value = aes::hamming_weight(trace.post_add_round_key[9]);
        break;
      case PowerModel::rd10_hd:
        value = aes::hamming_distance(trace.post_add_round_key[9],
                                      trace.post_add_round_key[10]);
        break;
      case PowerModel::rd1_sbox_hw:
        value = aes::hamming_weight(trace.post_sub_bytes[0]);
        break;
    }
    leak[t] = value;
  }

  const std::uint8_t truth = true_key_byte(model, round_keys, byte_index);
  double best_corr = -2.0;
  std::uint8_t best_guess = 0;
  std::vector<double> predicted(n_traces);
  for (int g = 0; g < 256; ++g) {
    for (std::size_t t = 0; t < n_traces; ++t) {
      predicted[t] = static_cast<double>(predict(
          model, pts[t], cts[t], byte_index, static_cast<std::uint8_t>(g)));
    }
    const double corr = direct_correlation(predicted, leak);
    if (corr > best_corr) {
      best_corr = corr;
      best_guess = static_cast<std::uint8_t>(g);
    }
  }
  EXPECT_EQ(best_guess, truth) << "model " << power_model_name(model);
  EXPECT_GT(best_corr, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelAlignment,
                         ::testing::ValuesIn(all_power_models));

}  // namespace
}  // namespace psc::power
