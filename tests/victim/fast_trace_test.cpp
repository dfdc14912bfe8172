#include "victim/fast_trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/stats.h"
#include "victim/victims.h"

namespace psc::victim {
namespace {

aes::Block random_block(util::Xoshiro256& rng) {
  aes::Block b;
  rng.fill_bytes(b);
  return b;
}

std::size_t key_index(const FastTraceSource& source, const char (&name)[5]) {
  const auto& keys = source.keys();
  const auto it = std::find(keys.begin(), keys.end(), smc::FourCc(name));
  EXPECT_NE(it, keys.end());
  return static_cast<std::size_t>(it - keys.begin());
}

// One trace's outputs, collected as a one-row batch.
struct Sample {
  aes::Block ciphertext{};
  std::vector<double> smc_values;  // aligned with keys()
  double pcpu_mj = 0.0;
};

Sample collect(FastTraceSource& source, const aes::Block& plaintext) {
  Sample sample;
  sample.smc_values.resize(source.keys().size());
  std::vector<std::span<double>> columns;
  for (double& value : sample.smc_values) {
    columns.emplace_back(&value, 1);
  }
  source.collect_batch({&plaintext, 1}, {&sample.ciphertext, 1}, columns,
                       {&sample.pcpu_mj, 1});
  return sample;
}

// The Welch test's inputs, from running statistics.
util::MomentSummary summary(const util::RunningStats& s) {
  return {s.count(), s.mean(), s.variance()};
}

class FastTraceTest : public ::testing::Test {
 protected:
  FastTraceTest() {
    util::Xoshiro256 rng(31);
    key_ = random_block(rng);
  }

  aes::Block key_;
  soc::DeviceProfile profile_ = soc::DeviceProfile::macbook_air_m2();
};

TEST_F(FastTraceTest, KeysMatchWorkloadDependentSet) {
  FastTraceSource source(profile_, key_, VictimModel::user_space(), 1);
  const auto db = smc::KeyDatabase::for_device(profile_.name);
  EXPECT_EQ(source.keys(), db.workload_dependent_keys());
}

TEST_F(FastTraceTest, CiphertextIsRealAes) {
  FastTraceSource source(profile_, key_, VictimModel::user_space(), 1);
  util::Xoshiro256 rng(32);
  const aes::Block pt = random_block(rng);
  const auto sample = collect(source, pt);
  EXPECT_EQ(sample.ciphertext, aes::Aes128(key_).encrypt(pt));
  EXPECT_EQ(sample.smc_values.size(), source.keys().size());
}

TEST_F(FastTraceTest, DeterministicForSameSeed) {
  FastTraceSource a(profile_, key_, VictimModel::user_space(), 7);
  FastTraceSource b(profile_, key_, VictimModel::user_space(), 7);
  util::Xoshiro256 rng(33);
  for (int i = 0; i < 20; ++i) {
    const aes::Block pt = random_block(rng);
    const auto sa = collect(a, pt);
    const auto sb = collect(b, pt);
    EXPECT_EQ(sa.smc_values, sb.smc_values);
    EXPECT_EQ(sa.pcpu_mj, sb.pcpu_mj);
  }
}

TEST_F(FastTraceTest, EncryptionRateMatchesAnalytic) {
  FastTraceSource source(profile_, key_, VictimModel::user_space(), 1);
  // 3 threads at 3.504 GHz / 80 cycles per block.
  const double expected = 3.0 * 3.504e9 / 80.0;
  EXPECT_NEAR(source.encryptions_per_window(), expected, 0.01 * expected);
}

TEST_F(FastTraceTest, KernelModelIsSlower) {
  FastTraceSource user(profile_, key_, VictimModel::user_space(), 1);
  FastTraceSource kernel(profile_, key_, VictimModel::kernel_module(), 1);
  EXPECT_NEAR(kernel.encryptions_per_window(),
              0.85 * user.encryptions_per_window(),
              0.02 * user.encryptions_per_window());
}

TEST_F(FastTraceTest, PhpcCentredOnPClusterBaseline) {
  FastTraceSource source(profile_, key_, VictimModel::user_space(), 2);
  const std::size_t phpc = key_index(source, "PHPC");
  util::Xoshiro256 rng(34);
  util::RunningStats stats;
  for (int i = 0; i < 3000; ++i) {
    stats.add(collect(source, random_block(rng)).smc_values[phpc]);
  }
  // 3 AES P-cores at max frequency: each ~1.2 W.
  EXPECT_GT(stats.mean(), 2.0);
  EXPECT_LT(stats.mean(), 5.0);
  // Noise dominated by the PHPC sensor sigma (45 uW).
  EXPECT_NEAR(stats.stddev(), 45e-6, 12e-6);
}

TEST_F(FastTraceTest, PhpsShowsNoPlaintextDependence) {
  FastTraceSource source(profile_, key_, VictimModel::user_space(), 3);
  const std::size_t phps = key_index(source, "PHPS");
  aes::Block zeros{};
  aes::Block ones;
  ones.fill(0xff);
  util::RunningStats s0;
  util::RunningStats s1;
  for (int i = 0; i < 4000; ++i) {
    s0.add(collect(source, zeros).smc_values[phps]);
    s1.add(collect(source, ones).smc_values[phps]);
  }
  const auto t = util::welch_t_test(summary(s0), summary(s1));
  EXPECT_LT(std::abs(t.t), util::tvla_threshold);
}

TEST_F(FastTraceTest, PhpcDistinguishesPlaintextClasses) {
  FastTraceSource source(profile_, key_, VictimModel::user_space(), 4);
  const std::size_t phpc = key_index(source, "PHPC");
  aes::Block zeros{};
  aes::Block ones;
  ones.fill(0xff);
  util::RunningStats s0;
  util::RunningStats s1;
  for (int i = 0; i < 4000; ++i) {
    s0.add(collect(source, zeros).smc_values[phpc]);
    s1.add(collect(source, ones).smc_values[phpc]);
  }
  const auto t = util::welch_t_test(summary(s0), summary(s1));
  EXPECT_GT(std::abs(t.t), util::tvla_threshold);
}

TEST_F(FastTraceTest, PcpuIndependentOfPlaintext) {
  FastTraceSource source(profile_, key_, VictimModel::user_space(), 5);
  aes::Block zeros{};
  aes::Block ones;
  ones.fill(0xff);
  util::RunningStats s0;
  util::RunningStats s1;
  for (int i = 0; i < 3000; ++i) {
    s0.add(collect(source, zeros).pcpu_mj);
    s1.add(collect(source, ones).pcpu_mj);
  }
  const auto t = util::welch_t_test(summary(s0), summary(s1));
  EXPECT_LT(std::abs(t.t), util::tvla_threshold);
}

TEST_F(FastTraceTest, KernelModelNoisierOnPhpc) {
  FastTraceSource user(profile_, key_, VictimModel::user_space(), 6);
  FastTraceSource kernel(profile_, key_, VictimModel::kernel_module(), 6);
  const std::size_t phpc = key_index(user, "PHPC");
  util::Xoshiro256 rng(35);
  util::RunningStats su;
  util::RunningStats sk;
  aes::Block pt = random_block(rng);
  for (int i = 0; i < 4000; ++i) {
    su.add(collect(user, pt).smc_values[phpc]);
    sk.add(collect(kernel, pt).smc_values[phpc]);
  }
  // Kernel adds 18 uW syscall noise on top of the 45 uW sensor noise:
  // total sigma rises by ~8%.
  EXPECT_GT(sk.stddev(), 1.04 * su.stddev());
}

TEST_F(FastTraceTest, MatchesFullSimulationStatistics) {
  // The contract that justifies the fast path: for a fixed plaintext, the
  // slow (full chip + scheduler + SMC) pipeline and the fast analytic
  // pipeline agree on the PHPC mean to sub-noise precision and on the
  // noise scale.
  FastTraceSource fast(profile_, key_, VictimModel::user_space(), 8);
  const std::size_t phpc_idx = key_index(fast, "PHPC");
  util::Xoshiro256 rng(36);
  const aes::Block pt = random_block(rng);

  util::RunningStats fast_stats;
  for (int i = 0; i < 2000; ++i) {
    fast_stats.add(collect(fast, pt).smc_values[phpc_idx]);
  }

  Platform platform(profile_, 9);
  UserSpaceVictim victim(platform, key_, 3);
  auto conn = platform.open_smc();
  util::RunningStats slow_stats;
  for (int i = 0; i < 60; ++i) {
    victim.encrypt_window(pt, 1.0);
    slow_stats.add(conn.read_numeric(smc::FourCc("PHPC")));
  }

  // Means agree within a few noise standard errors.
  EXPECT_NEAR(slow_stats.mean(), fast_stats.mean(), 30e-6);
  // Noise scales agree within 40%.
  EXPECT_NEAR(slow_stats.stddev(), fast_stats.stddev(),
              0.4 * fast_stats.stddev());
}

}  // namespace
}  // namespace psc::victim
