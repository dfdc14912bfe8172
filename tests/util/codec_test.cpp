#include "util/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/simd.h"

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

// FNV-1a of the encoded bytes, or 0 when the encoder refuses the column.
std::uint64_t encoding_digest(const double* values, std::size_t n) {
  std::vector<std::byte> enc;
  if (!delta_bitpack_encode(values, n, enc)) {
    return 0;
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::byte b : enc) {
    h = (h ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t encoding_digest(const std::vector<double>& values) {
  return encoding_digest(values.data(), values.size());
}

TEST(DeltaBitpack, EncodedBytesMatchRecordedDigests) {
  // Absolute anchors: the encoder's step choice, grid flag and packing
  // are pinned byte for byte, not only through a round trip (an encoder
  // that picked another valid step would still round-trip). A mismatch
  // prints the actual digest.
  const auto grid = quantized_walk(7, 4096, 1e-3, 4.2, 0.25);
  EXPECT_EQ(encoding_digest(grid), 0x491b9dd7e1ac2372ULL) << "quantized grid";
  EXPECT_EQ(encoding_digest(grid.data(), 100), 0xaee22a54a691de91ULL)
      << "100-value prefix";
  EXPECT_EQ(encoding_digest(grid.data(), 1), 0u) << "n = 1 does not pay";
  EXPECT_EQ(encoding_digest(grid.data(), 2), 0u) << "n = 2 does not pay";
  EXPECT_EQ(encoding_digest(
                quantized_walk(11, 4096, 1e-6, 3.2, 500e-6, /*f32=*/true)),
            0x8b50e37a751573a0ULL)
      << "float32-truncated grid";

  // Mixed sign around zero, +0.0 included (k = 0 reconstructs it).
  util::Xoshiro256 rng(37);
  std::vector<double> mixed(4096);
  for (double& v : mixed) {
    v = static_cast<double>(static_cast<std::int64_t>(rng.uniform_u64(41)) -
                            20) *
        0.01;
  }
  EXPECT_EQ(encoding_digest(mixed), 0x041083504c33ff0dULL)
      << "mixed sign with +0.0";
  // -0.0 next to +0.0: distinct bit patterns, no gap between them, and
  // no k * step reconstructs -0.0, so the column is refused.
  for (std::size_t i = 0; i < mixed.size(); i += 3) {
    if (mixed[i] == 0.0) {
      mixed[i] = -0.0;
    }
  }
  EXPECT_EQ(encoding_digest(mixed), 0u) << "mixed sign with +0.0 and -0.0";

  EXPECT_EQ(encoding_digest(std::vector<double>(500, 3.25)),
            0x8ee26194596f272dULL)
      << "constant column";
  EXPECT_EQ(encoding_digest(std::vector<double>(500, 0.0)),
            0x1a34ff627bbee0e7ULL)
      << "zero column";
}

// The encoder as it was before distinct-value gridding, kept as the
// differential reference: a full sort of the column for the step search,
// std::llround and up to three reconstructs per value, byte-wise packing.
// delta_bitpack_encode must agree with it on every accept/refuse decision
// and every encoded byte.
bool reference_encode(const double* values, std::size_t n,
                      std::vector<std::byte>& out) {
  if (n == 0) {
    return false;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(values[i])) {
      return false;
    }
  }
  const auto snap = [](double c, int digits) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*e", digits - 1, c);
    return std::strtod(buf, nullptr);
  };
  const auto reconstruct = [](std::int64_t k, double step, bool f32) {
    const double v = static_cast<double>(k) * step;
    return f32 ? static_cast<double>(static_cast<float>(v)) : v;
  };
  std::vector<double> sorted(values, values + n);
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> candidates;
  double min_gap = 0.0;
  double min_abs = std::fabs(sorted[0]);
  for (std::size_t i = 1; i < n; ++i) {
    const double gap = sorted[i] - sorted[i - 1];
    if (gap > 0.0 && (min_gap == 0.0 || gap < min_gap)) {
      min_gap = gap;
    }
    min_abs = std::min(min_abs, std::fabs(sorted[i]));
  }
  if (min_gap > 0.0) {
    candidates = {snap(min_gap, 1), snap(min_gap, 2), snap(min_gap, 3),
                  min_gap};
  } else {
    candidates = {min_abs > 0.0 ? min_abs : 1.0};
  }

  std::vector<std::int64_t> ks(n);
  const auto grid = [&](double step, bool f32) {
    if (!(step > 0.0) || !std::isfinite(step)) {
      return false;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double q = values[i] / step;
      if (!(std::fabs(q) < 9007199254740992.0)) {
        return false;
      }
      const std::int64_t k = std::llround(q);
      bool matched = false;
      for (const std::int64_t kc : {k, f32 ? k - 1 : k, f32 ? k + 1 : k}) {
        if (std::bit_cast<std::uint64_t>(reconstruct(kc, step, f32)) ==
            std::bit_cast<std::uint64_t>(values[i])) {
          ks[i] = kc;
          matched = true;
          break;
        }
      }
      if (!matched) {
        return false;
      }
    }
    return true;
  };
  double step = 0.0;
  bool f32 = false;
  bool have_grid = false;
  for (const bool try_f32 : {false, true}) {
    for (const double c : candidates) {
      if (!have_grid && grid(c, try_f32)) {
        have_grid = true;
        step = c;
        f32 = try_f32;
      }
    }
  }
  if (!have_grid) {
    return false;
  }

  unsigned width = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const auto d = static_cast<std::uint64_t>(ks[i] - ks[i - 1]);
    const std::uint64_t z = (d << 1) ^ (0 - (d >> 63));
    if (z != 0) {
      width = std::max(width, static_cast<unsigned>(64 - std::countl_zero(z)));
    }
  }
  if (width > delta_bitpack_max_width) {
    return false;
  }
  const std::size_t encoded = delta_bitpack_encoded_bytes(n, width);
  if (encoded >= n * sizeof(double)) {
    return false;
  }
  out.assign(encoded, std::byte{0});
  const auto put = [&](std::size_t at, std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out[at + static_cast<std::size_t>(i)] =
          static_cast<std::byte>((v >> (8 * i)) & 0xff);
    }
  };
  put(0, n, 4);
  put(4, width | (f32 ? delta_bitpack_f32_flag : 0u), 4);
  put(8, std::bit_cast<std::uint64_t>(step), 8);
  put(16, static_cast<std::uint64_t>(ks[0]), 8);
  std::byte* packed = out.data() + delta_bitpack_header_bytes;
  std::size_t bit = 0;
  for (std::size_t i = 1; i < n && width > 0; ++i, bit += width) {
    const auto d = static_cast<std::uint64_t>(ks[i] - ks[i - 1]);
    std::uint64_t z = (d << 1) ^ (0 - (d >> 63));
    std::size_t b = bit >> 3;
    unsigned used = static_cast<unsigned>(bit & 7);
    unsigned left = width;
    while (left > 0) {
      packed[b] |= static_cast<std::byte>((z << used) & 0xff);
      const unsigned consumed = 8 - used;
      z >>= consumed;
      left -= std::min(left, consumed);
      used = 0;
      ++b;
    }
  }
  return true;
}

// Runs `body` once per SIMD mode this build supports, then restores
// automatic dispatch.
template <typename Body>
void for_each_backend(Body&& body) {
  for (const simd::Backend backend : simd::supported_backends()) {
    simd::force_backend(backend);
    SCOPED_TRACE(std::string(simd::backend_name(backend)));
    body();
  }
  simd::reset_backend();
}

// Encodes `values` with both encoders and asserts the same decision and
// bytes; an accepted column must also decode bit-exactly. Returns
// whether the column was accepted.
bool expect_matches_reference(const std::vector<double>& values,
                              const std::string& what) {
  std::vector<std::byte> ref;
  // Reused across calls, as the store writer reuses its per-column
  // buffers: a byte the encoder leaves unwritten keeps a stale value.
  static std::vector<std::byte> enc;
  const bool ref_ok = reference_encode(values.data(), values.size(), ref);
  const bool ok = delta_bitpack_encode(values.data(), values.size(), enc);
  EXPECT_EQ(ok, ref_ok) << what;
  if (!ok || !ref_ok) {
    return false;
  }
  EXPECT_TRUE(enc == ref) << what;
  std::vector<double> out(values.size());
  EXPECT_TRUE(
      delta_bitpack_decode(enc.data(), enc.size(), out.data(), out.size()))
      << what;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(out[i]) !=
        std::bit_cast<std::uint64_t>(values[i])) {
      ADD_FAILURE() << what << ": value " << i << " does not round-trip";
      break;
    }
  }
  return true;
}

// Seeded column `index` of the differential sweep: quantized and
// float32-truncated grids at steps 1e-6..0.25 over bases from 0 to 1e5,
// mixed signs with +0.0 and -0.0, constant and all-zero columns,
// unquantized Gaussians and grid indices just below 2^52, at lengths
// 1..4096.
std::vector<double> sweep_column(std::uint64_t index) {
  static constexpr std::size_t lengths[] = {1, 2, 3, 7, 100, 777, 4096};
  static constexpr double steps[] = {1e-6, 1e-5, 1e-4, 1e-3,
                                     5e-3, 1e-2, 0.1,  0.25};
  static constexpr double bases[] = {0.0, 0.5, 4.2, 37.0, 1000.0, 1e5};
  static constexpr double sigmas[] = {0.0, 1.0, 10.0, 250.0, 1e4, 1e6};
  util::Xoshiro256 rng(1000 + index);
  const std::size_t n = lengths[index % 7];
  const std::uint64_t kind = (index / 7) % 9;
  const double step = steps[rng.uniform_u64(8)];
  const double base =
      bases[rng.uniform_u64(6)] * (rng.uniform_u64(2) != 0 ? -1.0 : 1.0);
  const double sigma = sigmas[rng.uniform_u64(6)] * step;
  std::vector<double> values(n);
  switch (kind) {
    case 0:  // quantized grid
    case 1:  // quantized, then float32-truncated
      for (double& v : values) {
        v = std::round((base + rng.gaussian(0.0, sigma)) / step) * step;
        if (kind == 1) {
          v = static_cast<double>(static_cast<float>(v));
        }
      }
      break;
    case 2:  // mixed signs around zero, +0.0 included
    case 3:  // the same with -0.0 among the zeros
      for (double& v : values) {
        const auto span = 1 + rng.uniform_u64(64);
        v = static_cast<double>(
                static_cast<std::int64_t>(rng.uniform_u64(2 * span + 1)) -
                static_cast<std::int64_t>(span)) *
            step;
        if (kind == 3 && v == 0.0 && rng.uniform_u64(2) != 0) {
          v = -0.0;
        }
      }
      break;
    case 4:  // constant, on a grid or not
      std::fill(values.begin(), values.end(),
                rng.uniform_u64(2) != 0 ? std::round(base / step) * step
                                        : rng.gaussian(base, 1.0));
      break;
    case 5:  // all +0.0, all -0.0, or a mix of both
      for (double& v : values) {
        const auto pick = index % 3;
        v = pick == 0 ? 0.0 : pick == 1 ? -0.0
                                        : (rng.uniform_u64(2) != 0 ? 0.0 : -0.0);
      }
      break;
    case 6:  // unquantized Gaussian
      for (double& v : values) {
        v = rng.gaussian(base, 1.0 + sigma);
      }
      break;
    case 7:  // unquantized Gaussian through float32
      for (double& v : values) {
        v = static_cast<double>(static_cast<float>(rng.gaussian(base, 1.0)));
      }
      break;
    default: {
      // Grid indices in [4.3e15, 4.5e15), just below 2^52, at step 1e-6:
      // v / step resolves only to halves there, and k * step rounds far
      // enough that v / step can land on k +- 0.5, so the half-away-from-
      // zero rule decides which k is verified.
      const double big = (rng.uniform_u64(2) != 0 ? -1.0 : 1.0) *
                         rng.uniform(4.3e15, 4.5e15);
      for (double& v : values) {
        v = std::round(big + rng.gaussian(0.0, sigma / step)) * 1e-6;
      }
      break;
    }
  }
  return values;
}

TEST(DeltaBitpack, MatchesReferenceEncoderOnSeededSweep) {
  constexpr std::uint64_t columns = 3024;  // 7 lengths x 9 kinds x 48
  for_each_backend([&] {
    std::size_t accepted = 0;
    for (std::uint64_t index = 0; index < columns; ++index) {
      accepted += expect_matches_reference(
          sweep_column(index), "column " + std::to_string(index));
      if (HasFailure()) {
        return;
      }
    }
    // Both outcomes must be well represented for the sweep to mean much.
    EXPECT_GT(accepted, columns / 4);
    EXPECT_LT(accepted, columns * 3 / 4);
  });
}

TEST(DeltaBitpack, PackingCrossesEveryWordOffsetAtEveryWidth) {
  // Integer columns (step 1) whose zigzagged deltas reach exactly `width`
  // bits, at every length up to 200, so fields start at every bit offset
  // of a 64-bit word. The first delta is -1, which pins the step search
  // to 1 at every width. Grid indices stay below 2^53 in magnitude, so
  // deltas stay below 2^54 and their zigzags below 2^55: 55 is the widest
  // width a column can reach, under the 56-bit cap.
  for_each_backend([&] {
    for (unsigned width = 1; width <= 55; ++width) {
      util::Xoshiro256 rng(width);
      for (std::size_t n = 2; n <= 200; ++n) {
        // Wide columns start at the top of the alternating range, so the
        // forced last delta below stays in range.
        const std::int64_t top =
            width > 40 ? (std::int64_t{1} << (width - 2)) - 1 : 0;
        std::vector<std::int64_t> ks(n);
        ks[0] = top;
        ks[1] = top - 1;
        for (std::size_t i = 2; i < n; ++i) {
          if (width <= 40) {
            // Random zigzags below 2^width; the walk stays within 2^48.
            const std::uint64_t z = rng() >> (64 - width);
            ks[i] = ks[i - 1] + static_cast<std::int64_t>(
                                    (z >> 1) ^ (0 - (z & 1)));
          } else {
            // Alternating signs keep |k| below 2^(width-2) <= 2^53.
            const auto m = static_cast<std::int64_t>(
                rng.uniform_u64(std::uint64_t{1} << (width - 2)));
            ks[i] = i % 2 == 0 ? m : -m;
          }
        }
        // The last delta has its top zigzag bit set: width exactly.
        if (n > 2 && width > 40) {
          ks[n - 2] = top - 1;
          ks[n - 1] = -top;  // delta -(2^(width-1) - 3)
        } else if (n > 2) {
          const std::int64_t d =
              width <= 2 ? -static_cast<std::int64_t>(width)
                         : (std::int64_t{1} << (width - 1)) - 2;
          ks[n - 1] = ks[n - 2] + (width > 2 && ks[n - 2] > 0 ? -d : d);
        }
        std::vector<double> values(n);
        for (std::size_t i = 0; i < n; ++i) {
          values[i] = static_cast<double>(ks[i]);
        }
        const std::string what =
            "width " + std::to_string(width) + " n " + std::to_string(n);
        const bool accepted = expect_matches_reference(values, what);
        const std::size_t widest = n > 2 ? width : 1;
        // Every column that would shrink is accepted, at its exact width.
        const bool pays =
            delta_bitpack_encoded_bytes(n, static_cast<unsigned>(widest)) <
            n * sizeof(double);
        EXPECT_EQ(accepted, pays) << what;
        if (accepted) {
          std::vector<std::byte> enc;
          ASSERT_TRUE(delta_bitpack_encode(values.data(), n, enc));
          EXPECT_EQ(static_cast<std::size_t>(enc[4]), widest) << what;
        }
        if (HasFailure()) {
          return;
        }
      }
    }
  });
  // A delta whose zigzag needs 57 bits (k = 2^55, beyond 2^53) is still
  // refused.
  std::vector<double> wide(100);
  for (std::size_t i = 0; i < wide.size(); ++i) {
    wide[i] = static_cast<double>(-static_cast<std::int64_t>(i));
  }
  wide[99] = 36028797018963968.0;  // 2^55: delta 2^55 + 98
  std::vector<std::byte> enc;
  EXPECT_FALSE(delta_bitpack_encode(wide.data(), wide.size(), enc));
  EXPECT_FALSE(reference_encode(wide.data(), wide.size(), enc));
}

}  // namespace
}  // namespace psc::util
