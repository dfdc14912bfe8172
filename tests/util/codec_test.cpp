#include "util/codec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace psc::util {
namespace {

// A quantized sensor column: round(v / step) * step, the exact
// expression power::Quantizer::apply evaluates.
std::vector<double> quantized_walk(std::uint64_t seed, std::size_t n,
                                   double step, double base, double sigma,
                                   bool f32 = false) {
  util::Xoshiro256 rng(seed);
  std::vector<double> values(n);
  for (double& v : values) {
    const double raw = base + rng.gaussian(0.0, sigma);
    v = std::round(raw / step) * step;
    if (v == 0.0) {
      // Quantizing a small negative raw yields -0.0, which no k * step
      // reconstructs (see NegativeZeroFallsBackToIdentity); steer clear
      // of the zero cell while keeping the column mixed-sign.
      v = -step;
    }
    if (f32) {
      v = static_cast<double>(static_cast<float>(v));
    }
  }
  return values;
}

void expect_bit_exact_round_trip(const std::vector<double>& values) {
  std::vector<std::byte> enc;
  ASSERT_TRUE(delta_bitpack_encode(values.data(), values.size(), enc));
  EXPECT_LT(enc.size(), values.size() * sizeof(double));
  std::vector<double> out(values.size());
  ASSERT_TRUE(
      delta_bitpack_decode(enc.data(), enc.size(), out.data(), out.size()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << "value " << i;
  }
}

TEST(DeltaBitpack, RoundTripsQuantizedGrids) {
  // The steps the SMC key database actually uses: powermetrics-class
  // micro-watt grids, SMC milliwatt floats, and coarse integer sensors.
  for (const double step : {1e-6, 1e-3, 0.01, 1.0}) {
    expect_bit_exact_round_trip(
        quantized_walk(7, 3000, step, 4.2, 250 * step));
  }
}

TEST(DeltaBitpack, RoundTripsFloat32TruncatedGrids) {
  // What recorded captures really contain: quantized then pushed through
  // the client's float32 encoding (victim/fast_trace.cpp).
  for (const double step : {1e-6, 1e-3}) {
    expect_bit_exact_round_trip(
        quantized_walk(11, 3000, step, 3.2, 500 * step, /*f32=*/true));
  }
}

TEST(DeltaBitpack, RoundTripsNegativeAndMixedSignValues) {
  expect_bit_exact_round_trip(quantized_walk(13, 2000, 1e-3, 0.0, 0.05));
}

TEST(DeltaBitpack, RoundTripsConstantColumn) {
  std::vector<double> values(500, 3.25);
  expect_bit_exact_round_trip(values);
  std::vector<double> zeros(500, 0.0);
  expect_bit_exact_round_trip(zeros);
}

TEST(DeltaBitpack, SingleValueDoesNotPay) {
  // One value encodes to 24 header bytes > 8 raw bytes: must refuse.
  const double v = 1.5;
  std::vector<std::byte> enc;
  EXPECT_FALSE(delta_bitpack_encode(&v, 1, enc));
}

TEST(DeltaBitpack, RejectsUnquantizedGaussian) {
  util::Xoshiro256 rng(17);
  std::vector<double> values(1000);
  for (double& v : values) {
    v = rng.gaussian(0.0, 1.0);
  }
  std::vector<std::byte> enc;
  EXPECT_FALSE(delta_bitpack_encode(values.data(), values.size(), enc));
}

TEST(DeltaBitpack, RejectsNonFiniteAndEmpty) {
  std::vector<double> values(100, 1.0);
  values[50] = std::nan("");
  std::vector<std::byte> enc;
  EXPECT_FALSE(delta_bitpack_encode(values.data(), values.size(), enc));
  values[50] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(delta_bitpack_encode(values.data(), values.size(), enc));
  EXPECT_FALSE(delta_bitpack_encode(values.data(), 0, enc));
}

TEST(DeltaBitpack, NegativeZeroFallsBackToIdentity) {
  // -0.0 is a value the quantizer can emit but k * step cannot
  // reproduce bit-exactly for any integer k, so the encoder must refuse
  // the column rather than decode it to +0.0.
  auto values = quantized_walk(31, 600, 1e-3, 0.5, 0.05);
  values[300] = -0.0;
  std::vector<std::byte> enc;
  EXPECT_FALSE(delta_bitpack_encode(values.data(), values.size(), enc));
}

TEST(DeltaBitpack, RejectsWideDeltas) {
  // Adjacent grid indices ~2^57 apart: width would exceed the 56-bit
  // kernel cap, so the encoder must bail rather than truncate.
  std::vector<double> values = {0.0, 1.0, 144115188075855872.0};
  std::vector<std::byte> enc;
  EXPECT_FALSE(delta_bitpack_encode(values.data(), values.size(), enc));
}

TEST(DeltaBitpack, DecodeRejectsStructuralCorruption) {
  const auto values = quantized_walk(19, 512, 1e-3, 2.0, 0.1);
  std::vector<std::byte> enc;
  ASSERT_TRUE(delta_bitpack_encode(values.data(), values.size(), enc));
  std::vector<double> out(values.size());

  // Truncated / extended blocks.
  EXPECT_FALSE(
      delta_bitpack_decode(enc.data(), enc.size() - 1, out.data(), out.size()));
  EXPECT_FALSE(delta_bitpack_decode(enc.data(), delta_bitpack_header_bytes - 1,
                                    out.data(), out.size()));
  auto grown = enc;
  grown.push_back(std::byte{0});
  EXPECT_FALSE(
      delta_bitpack_decode(grown.data(), grown.size(), out.data(), out.size()));

  // count != n.
  EXPECT_FALSE(
      delta_bitpack_decode(enc.data(), enc.size(), out.data(), out.size() - 1));

  // width out of range / unknown flag bits.
  auto bad = enc;
  bad[4] = std::byte{60};
  EXPECT_FALSE(
      delta_bitpack_decode(bad.data(), bad.size(), out.data(), out.size()));
  bad = enc;
  bad[6] = std::byte{0x04};  // set a reserved width-field bit
  EXPECT_FALSE(
      delta_bitpack_decode(bad.data(), bad.size(), out.data(), out.size()));
}

TEST(DeltaBitpack, PayloadBitFlipDecodesToDifferentValues) {
  // A flipped packed bit keeps the block structurally valid; it must
  // change the decoded stream (the store layer's CRC then catches it).
  const auto values = quantized_walk(23, 512, 1e-6, 4.0, 1e-3);
  std::vector<std::byte> enc;
  ASSERT_TRUE(delta_bitpack_encode(values.data(), values.size(), enc));
  ASSERT_GT(enc.size(), delta_bitpack_header_bytes);
  enc[delta_bitpack_header_bytes] ^= std::byte{0x01};
  std::vector<double> out(values.size());
  ASSERT_TRUE(
      delta_bitpack_decode(enc.data(), enc.size(), out.data(), out.size()));
  bool differs = false;
  for (std::size_t i = 0; i < values.size() && !differs; ++i) {
    differs = std::bit_cast<std::uint64_t>(out[i]) !=
              std::bit_cast<std::uint64_t>(values[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(DeltaBitpack, EncodedSizeFormula) {
  EXPECT_EQ(delta_bitpack_encoded_bytes(1, 13), delta_bitpack_header_bytes);
  EXPECT_EQ(delta_bitpack_encoded_bytes(9, 8),
            delta_bitpack_header_bytes + 8);
  EXPECT_EQ(delta_bitpack_encoded_bytes(2, 1),
            delta_bitpack_header_bytes + 1);
}

TEST(DeltaBitpack, CompressesTypicalSensorColumnHard) {
  // ~250-step sigma needs ~10 bits per delta: expect at least 4x on a
  // 4096-row chunk column (pstr_v2_test then asserts the whole-file
  // ratio on a 16-rail set of such columns).
  const auto values =
      quantized_walk(29, 4096, 1e-6, 4.0, 250e-6, /*f32=*/true);
  std::vector<std::byte> enc;
  ASSERT_TRUE(delta_bitpack_encode(values.data(), values.size(), enc));
  EXPECT_LT(enc.size() * 4, values.size() * sizeof(double));
}

}  // namespace
}  // namespace psc::util
