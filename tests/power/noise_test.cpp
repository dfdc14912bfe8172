#include "power/noise.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "smc/key_database.h"
#include "smc/mitigation.h"
#include "soc/device_profile.h"
#include "util/simd.h"
#include "util/stats.h"

namespace psc::power {
namespace {

TEST(GaussianNoise, ZeroSigmaIsIdentity) {
  GaussianNoise noise(0.0);
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(noise.apply(3.25, rng), 3.25);
  }
}

TEST(GaussianNoise, SampleMoments) {
  GaussianNoise noise(2.5);
  util::Xoshiro256 rng(2);
  util::RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.add(noise.sample(rng));
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.5, 0.05);
}

TEST(GaussianNoise, ApplyShiftsValue) {
  GaussianNoise noise(1.0);
  util::Xoshiro256 rng(3);
  util::RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(noise.apply(10.0, rng));
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
}

TEST(Quantizer, RoundsToStep) {
  Quantizer q(0.5);
  EXPECT_DOUBLE_EQ(q.apply(0.74), 0.5);
  EXPECT_DOUBLE_EQ(q.apply(0.76), 1.0);
  EXPECT_DOUBLE_EQ(q.apply(-0.74), -0.5);
  EXPECT_DOUBLE_EQ(q.apply(-0.76), -1.0);
  EXPECT_DOUBLE_EQ(q.apply(0.0), 0.0);
}

// Element t of the batch quantizer equals the per-value apply (std::round)
// bit for bit; each value sits in every lane position of the vector body.
void expect_batch_matches_scalar(const Quantizer& q,
                                 const std::vector<double>& values,
                                 const std::string& what) {
  std::vector<double> batch;
  for (const double v : values) {
    batch.insert(batch.end(), 4, v);
  }
  batch.push_back(values.front());  // a scalar tail
  q.apply(std::span<double>(batch));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const double v = i < 4 * values.size() ? values[i / 4] : values.front();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(batch[i]),
              std::bit_cast<std::uint64_t>(q.apply(v)))
        << what << ": step " << q.step() << ", value " << v;
  }
}

TEST(Quantizer, BatchRoundIsStdRoundOnEdgeCases) {
  const double two52 = 0x1p52;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> edges = {
      0.0,          -0.0,         0.5,          -0.5,
      1.5,          -1.5,         2.5,          -2.5,
      0.3,          -0.3,         0.49999999999999994,
      -0.49999999999999994,       two52 + 1.0,  two52 - 1.0,
      -two52 + 1.0, -two52 - 1.0, two52 - 0.5,  -two52 + 0.5,
      inf,          -inf,         nan,          -nan};
  for (const util::simd::Backend backend : util::simd::supported_backends()) {
    util::simd::force_backend(backend);
    expect_batch_matches_scalar(Quantizer(1.0), edges,
                                std::string(util::simd::backend_name(backend)));
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (!std::isnan(edges[i])) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(Quantizer(1.0).apply(edges[i])),
                  std::bit_cast<std::uint64_t>(std::round(edges[i])));
      }
    }
  }
  util::simd::reset_backend();
}

// 10^6 random (value, step) pairs over every quantizer step of the
// simulated SMC keys, unmitigated and RAPL-filtered, on both devices:
// random values, exact halves of a step and their neighbours.
TEST(Quantizer, BatchRoundIsStdRoundOnEverySensorStep) {
  std::set<double> steps;
  for (const auto& profile : {soc::DeviceProfile::mac_mini_m1(),
                              soc::DeviceProfile::macbook_air_m2()}) {
    for (const auto& policy : {smc::MitigationPolicy::none(),
                               smc::MitigationPolicy::rapl_style_filtering()}) {
      const smc::KeyDatabase db = smc::apply_mitigations(
          smc::KeyDatabase::for_device(profile.name), policy);
      for (const smc::KeyEntry& entry : db.entries()) {
        if (entry.spec.quant_step > 0.0) {
          steps.insert(entry.spec.quant_step);
        }
      }
    }
  }
  ASSERT_GE(steps.size(), 2u);
  const std::size_t per_step = 1000000 / steps.size() + 1;
  for (const util::simd::Backend backend : util::simd::supported_backends()) {
    util::simd::force_backend(backend);
    util::Xoshiro256 rng(91);
    for (const double step : steps) {
      std::vector<double> values(per_step);
      for (double& v : values) {
        const double k = std::floor(rng.uniform(-1e6, 1e6));
        switch (rng.uniform_u64(4)) {
          case 0:
            v = (k + 0.5) * step;
            break;
          case 1:
            v = std::nextafter((k + 0.5) * step, rng.uniform(-1.0, 1.0));
            break;
          case 2:
            v = rng.uniform(-1e3, 1e3);
            break;
          default:
            v = (k + rng.uniform01()) * step;
            break;
        }
      }
      std::vector<double> batch = values;
      Quantizer(step).apply(std::span<double>(batch));
      for (std::size_t i = 0; i < values.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(batch[i]),
                  std::bit_cast<std::uint64_t>(
                      std::round(values[i] / step) * step))
            << util::simd::backend_name(backend) << ": step " << step
            << ", value " << values[i];
      }
    }
  }
  util::simd::reset_backend();
}

TEST(Quantizer, ZeroStepIsIdentity) {
  Quantizer q(0.0);
  EXPECT_DOUBLE_EQ(q.apply(0.123456789), 0.123456789);
}

TEST(Quantizer, Idempotent) {
  Quantizer q(1e-6);
  const double once = q.apply(3.14159265358979);
  EXPECT_DOUBLE_EQ(q.apply(once), once);
}

TEST(Quantizer, MicrowattResolution) {
  Quantizer q(1e-6);
  EXPECT_NEAR(q.apply(2.0000014), 2.000001, 1e-12);
  EXPECT_NEAR(q.apply(2.0000016), 2.000002, 1e-12);
}

TEST(Quantizer, ErrorBoundedByHalfStep) {
  Quantizer q(0.25);
  for (double x = -3.0; x < 3.0; x += 0.0137) {
    EXPECT_LE(std::abs(q.apply(x) - x), 0.125 + 1e-12);
  }
}

}  // namespace
}  // namespace psc::power
