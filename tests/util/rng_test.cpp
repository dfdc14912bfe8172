#include "util/rng.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "util/simd.h"

namespace psc::util {
namespace {

TEST(SplitMix64, MatchesReferenceVectors) {
  // Reference outputs for seed 0 from the canonical splitmix64.c.
  SplitMix64 sm(0);
  EXPECT_EQ(sm(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm(), 0x06c45d188009454fULL);
}

TEST(SplitMix64, SameSeedSameStream) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Xoshiro256, Deterministic) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) {
      ++equal;
    }
  }
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro256, Uniform01InRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Xoshiro256, Uniform01MeanNearHalf) {
  Xoshiro256 rng(4);
  double sum = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.uniform01();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro256, UniformRangeRespected) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.5, 7.5);
    ASSERT_GE(x, -2.5);
    ASSERT_LT(x, 7.5);
  }
}

TEST(Xoshiro256, UniformU64BoundRespected) {
  Xoshiro256 rng(6);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(rng.uniform_u64(17), 17u);
  }
}

TEST(Xoshiro256, UniformU64CoversAllResidues) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    seen.insert(rng.uniform_u64(16));
  }
  EXPECT_EQ(seen.size(), 16u);
}

TEST(Xoshiro256, UniformU64RoughlyUniform) {
  Xoshiro256 rng(8);
  constexpr std::uint64_t buckets = 8;
  constexpr int n = 80000;
  std::array<int, buckets> counts{};
  for (int i = 0; i < n; ++i) {
    ++counts[rng.uniform_u64(buckets)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, n / buckets, 0.08 * n / buckets);
  }
}

TEST(Xoshiro256, GaussianMoments) {
  Xoshiro256 rng(9);
  constexpr int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

// FNV-1a over the bit patterns of `values`, continuing from `hash`.
std::uint64_t fnv1a(std::uint64_t hash, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int i = 0; i < 8; ++i) {
    hash ^= (bits >> (8 * i)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

// Absolute anchor for the noise stream every simulated sensor draws from:
// the first 10^6 deviates at seed 42, hashed by bit pattern, and the raw
// output that follows them. A change to the generator, the polar method
// or its cached second deviate fails here.
constexpr std::uint64_t gaussian_digest_seed42 = 0x84287a7cf071b18fULL;
constexpr std::uint64_t next_raw_after_1m_seed42 = 0x5d2107b4f799b8f4ULL;

TEST(Xoshiro256, GaussianStreamDigestPinned) {
  Xoshiro256 rng(42);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 1000000; ++i) {
    hash = fnv1a(hash, rng.gaussian());
  }
  EXPECT_EQ(hash, gaussian_digest_seed42) << "actual digest " << hex(hash);
  const std::uint64_t next = rng();
  EXPECT_EQ(next, next_raw_after_1m_seed42) << "actual " << hex(next);
}

// The batch draw against the same anchor, in both SIMD modes.
TEST(Xoshiro256, FillGaussianMatchesPinnedDigest) {
  for (const simd::Backend backend : simd::supported_backends()) {
    simd::force_backend(backend);
    Xoshiro256 rng(42);
    std::vector<double> deviates(1000000);
    rng.fill_gaussian(deviates);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const double x : deviates) {
      hash = fnv1a(hash, x);
    }
    EXPECT_EQ(hash, gaussian_digest_seed42)
        << simd::backend_name(backend) << ": actual digest " << hex(hash);
    EXPECT_EQ(rng(), next_raw_after_1m_seed42);
  }
  simd::reset_backend();
}

// fill_gaussian(n) is n calls of gaussian(): random interleavings of the
// two, with n from 0 to 300, odd and even, entered with and without a
// cached deviate, give the same values bit for bit and leave the same
// generator state (the same later deviates and raw outputs).
TEST(Xoshiro256, FillGaussianEqualsGaussianCalls) {
  for (const simd::Backend backend : simd::supported_backends()) {
    simd::force_backend(backend);
    Xoshiro256 batched(77);
    Xoshiro256 single(77);
    Xoshiro256 plan(78);
    std::vector<double> buf;
    std::uint64_t drawn = 0;  // odd: a deviate is cached
    std::array<std::array<int, 2>, 2> fills{};  // [cached][n odd]
    for (int step = 0; step < 3000; ++step) {
      if (plan.uniform_u64(4) == 0) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(batched.gaussian()),
                  std::bit_cast<std::uint64_t>(single.gaussian()));
        ++drawn;
        continue;
      }
      const std::size_t n = plan.uniform_u64(301);
      ++fills[drawn % 2][n % 2];
      buf.assign(n, -1.0);
      batched.fill_gaussian(buf);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(buf[i]),
                  std::bit_cast<std::uint64_t>(single.gaussian()))
            << simd::backend_name(backend) << ": step " << step << ", n "
            << n << ", deviate " << i;
      }
      drawn += n;
    }
    for (const auto& by_parity : fills) {
      EXPECT_GT(by_parity[0], 100);
      EXPECT_GT(by_parity[1], 100);
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(batched.gaussian()),
                std::bit_cast<std::uint64_t>(single.gaussian()));
    }
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(batched(), single());
    }
  }
  simd::reset_backend();
}

TEST(Xoshiro256, GaussianScaled) {
  Xoshiro256 rng(10);
  constexpr int n = 100000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian(5.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Xoshiro256, FillBytesCoversValues) {
  Xoshiro256 rng(11);
  std::vector<std::uint8_t> buf(4096);
  rng.fill_bytes(buf);
  std::set<std::uint8_t> seen(buf.begin(), buf.end());
  EXPECT_GT(seen.size(), 200u);
}

TEST(Xoshiro256, FillBytesHandlesOddLengths) {
  for (const std::size_t len : {0u, 1u, 3u, 7u, 8u, 9u, 15u}) {
    Xoshiro256 a(12);
    Xoshiro256 b(12);
    std::vector<std::uint8_t> buf_a(len, 0);
    std::vector<std::uint8_t> buf_b(len, 0);
    a.fill_bytes(buf_a);
    b.fill_bytes(buf_b);
    EXPECT_EQ(buf_a, buf_b);
  }
}

TEST(Xoshiro256, ForkedStreamsDiffer) {
  Xoshiro256 parent(13);
  Xoshiro256 child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) {
      ++equal;
    }
  }
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro256, SplitIsDeterministic) {
  const Xoshiro256 parent(21);
  Xoshiro256 a = parent.split(3);
  Xoshiro256 b = parent.split(3);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Xoshiro256, SplitDoesNotAdvanceParent) {
  Xoshiro256 parent(22);
  Xoshiro256 untouched(22);
  (void)parent.split(0);
  (void)parent.split(17);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(parent(), untouched());
  }
}

TEST(Xoshiro256, SplitStreamsDifferById) {
  const Xoshiro256 parent(23);
  Xoshiro256 a = parent.split(0);
  Xoshiro256 b = parent.split(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) {
      ++equal;
    }
  }
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro256, SplitStreamDiffersFromParentStream) {
  Xoshiro256 parent(24);
  Xoshiro256 child = parent.split(0);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) {
      ++equal;
    }
  }
  EXPECT_LE(equal, 1);
}

// Statistical smoke test for the parallel runner's reproducibility
// primitive: adjacent split streams must be pairwise uncorrelated, and each
// must remain individually uniform.
TEST(Xoshiro256, SplitStreamsUncorrelated) {
  const Xoshiro256 parent(25);
  constexpr int n_streams = 8;
  constexpr int n = 20000;
  std::vector<std::vector<double>> streams;
  for (int s = 0; s < n_streams; ++s) {
    Xoshiro256 rng = parent.split(static_cast<std::uint64_t>(s));
    std::vector<double> xs(n);
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
      xs[static_cast<std::size_t>(i)] = rng.uniform01();
      sum += xs[static_cast<std::size_t>(i)];
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02) << "stream " << s;
    streams.push_back(std::move(xs));
  }
  // Pairwise Pearson correlation of uniform streams: for independent
  // streams the sample correlation is ~N(0, 1/n), so |r| < 5/sqrt(n).
  const double bound = 5.0 / std::sqrt(static_cast<double>(n));
  for (int a = 0; a < n_streams; ++a) {
    for (int b = a + 1; b < n_streams; ++b) {
      double sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0;
      for (int i = 0; i < n; ++i) {
        const double x = streams[static_cast<std::size_t>(a)]
                                [static_cast<std::size_t>(i)];
        const double y = streams[static_cast<std::size_t>(b)]
                                [static_cast<std::size_t>(i)];
        sx += x;
        sy += y;
        sxx += x * x;
        syy += y * y;
        sxy += x * y;
      }
      const double cov = n * sxy - sx * sy;
      const double var_x = n * sxx - sx * sx;
      const double var_y = n * syy - sy * sy;
      const double r = cov / std::sqrt(var_x * var_y);
      EXPECT_LT(std::abs(r), bound) << "streams " << a << " and " << b;
    }
  }
}

TEST(Xoshiro256, LongJumpChangesSequence) {
  Xoshiro256 a(14);
  Xoshiro256 b(14);
  b.long_jump();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) {
      ++equal;
    }
  }
  EXPECT_LE(equal, 1);
}

// Property sweep: moments hold across seeds.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMeanAndVariance) {
  Xoshiro256 rng(GetParam());
  constexpr int n = 50000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform01();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.02);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1, 2, 3, 1234567, 0xdeadbeef,
                                           0xfffffffffffffffeULL));

}  // namespace
}  // namespace psc::util
