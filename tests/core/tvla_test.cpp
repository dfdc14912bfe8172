#include "core/tvla.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

namespace psc::core {
namespace {

// The Welch test's inputs, from running statistics.
util::MomentSummary summary(const util::RunningStats& s) {
  return {s.count(), s.mean(), s.variance()};
}

TEST(PlaintextClasses, Names) {
  EXPECT_EQ(plaintext_class_name(PlaintextClass::all_zeros), "All 0s");
  EXPECT_EQ(plaintext_class_name(PlaintextClass::all_ones), "All 1s");
  EXPECT_EQ(plaintext_class_name(PlaintextClass::random_pt), "Random");
}

TEST(PlaintextClasses, FixedClassesAreFixed) {
  util::Xoshiro256 rng(1);
  const aes::Block zeros = class_plaintext(PlaintextClass::all_zeros, rng);
  const aes::Block ones = class_plaintext(PlaintextClass::all_ones, rng);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(zeros[i], 0x00);
    EXPECT_EQ(ones[i], 0xff);
  }
}

TEST(PlaintextClasses, RandomClassVaries) {
  util::Xoshiro256 rng(2);
  const aes::Block a = class_plaintext(PlaintextClass::random_pt, rng);
  const aes::Block b = class_plaintext(PlaintextClass::random_pt, rng);
  EXPECT_NE(a, b);
}

TEST(TvlaAccumulator, CountsPerSet) {
  TvlaAccumulator acc;
  acc.add(PlaintextClass::all_zeros, false, 1.0);
  acc.add(PlaintextClass::all_zeros, false, 2.0);
  acc.add(PlaintextClass::all_zeros, true, 3.0);
  EXPECT_EQ(acc.count(PlaintextClass::all_zeros, false), 2u);
  EXPECT_EQ(acc.count(PlaintextClass::all_zeros, true), 1u);
  EXPECT_EQ(acc.count(PlaintextClass::all_ones, false), 0u);
}

// The accumulator keeps raw striped moment sums (util/simd.h) rather than
// Welford state, so it agrees with a direct Welford-based Welch test to
// rounding, not bit-for-bit.
TEST(TvlaAccumulator, MatrixMatchesDirectWelch) {
  util::Xoshiro256 rng(3);
  TvlaAccumulator acc;
  util::RunningStats zeros_primed;
  util::RunningStats ones_unprimed;
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.gaussian(0.0, 1.0);
    const double b = rng.gaussian(0.4, 1.0);
    acc.add(PlaintextClass::all_zeros, true, a);
    zeros_primed.add(a);
    acc.add(PlaintextClass::all_ones, false, b);
    ones_unprimed.add(b);
  }
  const TvlaMatrix m = acc.matrix();
  EXPECT_NEAR(m.score(PlaintextClass::all_zeros, PlaintextClass::all_ones),
              util::welch_t_test(summary(zeros_primed), summary(ones_unprimed)).t, 1e-9);
}

// Satellite: TVLA t-values from every supported SIMD backend match the
// scalar fallback bit-for-bit on the same value stream.
TEST(TvlaAccumulator, AllSimdBackendsMatchScalarBitForBit) {
  namespace simd = util::simd;
  util::Xoshiro256 rng(17);
  std::vector<double> stream(4096);
  for (double& v : stream) {
    v = rng.gaussian(0.2, 1.5);
  }
  const auto feed = [&stream] {
    TvlaAccumulator acc;
    std::size_t i = 0;
    for (const PlaintextClass cls : all_plaintext_classes) {
      for (const bool primed : {false, true}) {
        // Uneven batch sizes to exercise the kernels' head/body/tail.
        acc.add_batch(cls, primed, std::span(stream).subspan(i, 300));
        i += 300;
        acc.add_batch(cls, primed, std::span(stream).subspan(i, 7));
        i += 7;
      }
    }
    return acc;
  };
  simd::force_backend(simd::Backend::scalar);
  const TvlaMatrix reference = feed().matrix();
  for (const simd::Backend backend : simd::supported_backends()) {
    simd::force_backend(backend);
    const TvlaMatrix m = feed().matrix();
    for (const PlaintextClass row : all_plaintext_classes) {
      for (const PlaintextClass col : all_plaintext_classes) {
        ASSERT_EQ(m.score(row, col), reference.score(row, col))
            << simd::backend_name(backend);
      }
    }
  }
  simd::reset_backend();
}

// Sharded-pipeline property: one accumulator fed N values per set must
// match K shard accumulators fed N/K values each and merged.
TEST(TvlaAccumulator, ShardsMergeToMonolithicTStatistic) {
  util::Xoshiro256 rng(4);
  constexpr int n = 3000;
  constexpr std::size_t n_shards = 3;
  TvlaAccumulator monolithic;
  std::array<TvlaAccumulator, n_shards> shards;
  for (int i = 0; i < n; ++i) {
    for (const PlaintextClass cls : all_plaintext_classes) {
      for (const bool primed : {false, true}) {
        const double mean =
            cls == PlaintextClass::all_ones ? 0.3 : 0.0;
        const double x = rng.gaussian(mean, 1.0);
        monolithic.add(cls, primed, x);
        shards[static_cast<std::size_t>(i) % n_shards].add(cls, primed, x);
      }
    }
  }
  TvlaAccumulator merged;
  for (const auto& shard : shards) {
    merged.merge(shard);
  }
  const TvlaMatrix mono = monolithic.matrix();
  const TvlaMatrix combined = merged.matrix();
  for (const PlaintextClass row : all_plaintext_classes) {
    for (const PlaintextClass col : all_plaintext_classes) {
      EXPECT_EQ(merged.count(row, true), monolithic.count(row, true));
      ASSERT_NEAR(combined.score(row, col), mono.score(row, col), 1e-12)
          << plaintext_class_name(row) << " vs "
          << plaintext_class_name(col);
    }
  }
}

TEST(TvlaAccumulator, BatchFeedEqualsLoopFeed) {
  util::Xoshiro256 rng(5);
  std::vector<double> values(500);
  for (double& v : values) {
    v = rng.gaussian(1.0, 2.0);
  }
  TvlaAccumulator looped;
  for (const double v : values) {
    looped.add(PlaintextClass::random_pt, true, v);
  }
  TvlaAccumulator batched;
  batched.add_batch(PlaintextClass::random_pt, true, values);
  EXPECT_EQ(batched.count(PlaintextClass::random_pt, true),
            looped.count(PlaintextClass::random_pt, true));
  // Same per-set moments, so any cross-set score agrees exactly; compare
  // against a common opposing set.
  for (int i = 0; i < 500; ++i) {
    const double v = rng.gaussian(0.0, 1.0);
    looped.add(PlaintextClass::all_zeros, false, v);
    batched.add(PlaintextClass::all_zeros, false, v);
  }
  EXPECT_DOUBLE_EQ(
      looped.matrix().score(PlaintextClass::random_pt,
                            PlaintextClass::all_zeros),
      batched.matrix().score(PlaintextClass::random_pt,
                             PlaintextClass::all_zeros));
}

TEST(TvlaMatrix, ClassificationKinds) {
  TvlaMatrix m;
  // Same class, small t: TN. Same class, big t: FP.
  m.t[0][0] = 1.0;
  m.t[1][1] = 9.0;
  // Cross class, big t: TP. Cross class, small t: FN.
  m.t[0][1] = -12.0;
  m.t[0][2] = 0.3;
  EXPECT_EQ(m.classify(PlaintextClass::all_zeros, PlaintextClass::all_zeros),
            TvlaCell::true_negative);
  EXPECT_EQ(m.classify(PlaintextClass::all_ones, PlaintextClass::all_ones),
            TvlaCell::false_positive);
  EXPECT_EQ(m.classify(PlaintextClass::all_zeros, PlaintextClass::all_ones),
            TvlaCell::true_positive);
  EXPECT_EQ(m.classify(PlaintextClass::all_zeros, PlaintextClass::random_pt),
            TvlaCell::false_negative);
}

TEST(TvlaMatrix, ThresholdIsInclusive) {
  TvlaMatrix m;
  m.t[0][1] = util::tvla_threshold;
  EXPECT_EQ(m.classify(PlaintextClass::all_zeros, PlaintextClass::all_ones),
            TvlaCell::true_positive);
  m.t[0][1] = util::tvla_threshold - 1e-9;
  EXPECT_EQ(m.classify(PlaintextClass::all_zeros, PlaintextClass::all_ones),
            TvlaCell::false_negative);
}

TEST(TvlaMatrix, NegativeScoresCount) {
  TvlaMatrix m;
  m.t[2][0] = -20.0;
  EXPECT_EQ(m.classify(PlaintextClass::random_pt, PlaintextClass::all_zeros),
            TvlaCell::true_positive);
}

TEST(TvlaMatrix, CountsSumToNine) {
  TvlaMatrix m;
  m.t[0][1] = 10.0;
  m.t[1][1] = 6.0;
  const auto c = m.counts();
  EXPECT_EQ(c.true_positive + c.true_negative + c.false_positive +
                c.false_negative,
            9);
  EXPECT_EQ(c.true_positive, 1);
  EXPECT_EQ(c.false_positive, 1);
  EXPECT_EQ(c.true_negative, 2);
  EXPECT_EQ(c.false_negative, 5);
}

TEST(TvlaMatrix, PerfectDataDependence) {
  TvlaMatrix m;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      m.t[i][j] = i == j ? 0.5 : 15.0;
    }
  }
  EXPECT_TRUE(m.perfectly_data_dependent());
  EXPECT_FALSE(m.no_data_dependence());
  m.t[0][1] = 1.0;  // one FN breaks perfection
  EXPECT_FALSE(m.perfectly_data_dependent());
}

TEST(TvlaMatrix, NoDataDependence) {
  TvlaMatrix m;  // all zeros
  EXPECT_TRUE(m.no_data_dependence());
  m.t[1][0] = 30.0;
  EXPECT_FALSE(m.no_data_dependence());
}

TEST(TvlaCellNames, AllNamed) {
  EXPECT_EQ(tvla_cell_name(TvlaCell::true_positive), "TP");
  EXPECT_EQ(tvla_cell_name(TvlaCell::true_negative), "TN");
  EXPECT_EQ(tvla_cell_name(TvlaCell::false_positive), "FP");
  EXPECT_EQ(tvla_cell_name(TvlaCell::false_negative), "FN");
}

// Statistical property: leakage-free channels classify as all-negative,
// planted leakage as TP, across seeds.
class TvlaStatistical : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TvlaStatistical, DetectsPlantedLeakageOnly) {
  util::Xoshiro256 rng(GetParam());
  TvlaAccumulator leaky;
  TvlaAccumulator null;
  for (int i = 0; i < 4000; ++i) {
    for (const PlaintextClass cls : all_plaintext_classes) {
      for (const bool primed : {false, true}) {
        const double base = rng.gaussian(0.0, 1.0);
        const double shift = cls == PlaintextClass::all_ones ? 0.3 : 0.0;
        leaky.add(cls, primed, base + shift);
        null.add(cls, primed, rng.gaussian(0.0, 1.0));
      }
    }
  }
  const TvlaMatrix leaky_m = leaky.matrix();
  EXPECT_EQ(leaky_m.classify(PlaintextClass::all_zeros,
                             PlaintextClass::all_ones),
            TvlaCell::true_positive);
  EXPECT_EQ(leaky_m.classify(PlaintextClass::all_zeros,
                             PlaintextClass::all_zeros),
            TvlaCell::true_negative);
  EXPECT_TRUE(null.matrix().no_data_dependence());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TvlaStatistical,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace psc::core
