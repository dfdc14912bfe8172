#include "core/campaigns.h"

#include <gtest/gtest.h>

#include "core/guessing_entropy.h"
#include "scenario/registry.h"

namespace psc::core {
namespace {

TEST(Checkpoints, LogSpacedIncludesEndpoints) {
  const auto cps = log_spaced_checkpoints(1000, 100000, 5);
  ASSERT_FALSE(cps.empty());
  EXPECT_EQ(cps.front(), 1000u);
  EXPECT_EQ(cps.back(), 100000u);
  EXPECT_TRUE(std::is_sorted(cps.begin(), cps.end()));
}

TEST(Checkpoints, DegenerateInputs) {
  EXPECT_TRUE(log_spaced_checkpoints(1000, 100, 5).empty());
  EXPECT_TRUE(log_spaced_checkpoints(0, 100, 5).empty());
  EXPECT_TRUE(log_spaced_checkpoints(10, 100, 0).empty());
  const auto one = log_spaced_checkpoints(10, 100, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.front(), 100u);
}

class TvlaCampaignTest : public ::testing::Test {
 protected:
  LiveCampaignConfig config_{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space(),
                 .include_pcpu = true},
      .traces = 2000,
      .seed = 11,
  };
};

TEST_F(TvlaCampaignTest, ChannelsReported) {
  const auto result = run_live_campaign(config_);
  // M2: PHPC PDTR PHPS PMVC PSTR + PCPU.
  EXPECT_EQ(result.tvla.size(), 6u);
  EXPECT_NE(result.find_tvla("PHPC"), nullptr);
  EXPECT_NE(result.find_tvla("PCPU"), nullptr);
  EXPECT_EQ(result.find_tvla("NOPE"), nullptr);
  EXPECT_EQ(result.traces_per_set, 2000u);
}

TEST_F(TvlaCampaignTest, PhpcLeaksPhpsDoesNot) {
  const auto result = run_live_campaign(config_);
  const auto* phpc = result.find_tvla("PHPC");
  const auto* phps = result.find_tvla("PHPS");
  const auto* pcpu = result.find_tvla("PCPU");
  ASSERT_NE(phpc, nullptr);
  ASSERT_NE(phps, nullptr);
  ASSERT_NE(pcpu, nullptr);
  // The star channel distinguishes fixed classes.
  EXPECT_GE(std::abs(phpc->matrix.score(PlaintextClass::all_zeros,
                                        PlaintextClass::all_ones)),
            util::tvla_threshold);
  // Estimate channels show nothing.
  EXPECT_TRUE(phps->matrix.no_data_dependence());
  EXPECT_TRUE(pcpu->matrix.no_data_dependence());
}

TEST_F(TvlaCampaignTest, SameClassPairsIndistinguishable) {
  const auto result = run_live_campaign(config_);
  for (const auto& channel : result.tvla) {
    for (const PlaintextClass cls : all_plaintext_classes) {
      EXPECT_LT(std::abs(channel.matrix.score(cls, cls)),
                util::tvla_threshold)
          << channel.channel << " diagonal";
    }
  }
}

TEST_F(TvlaCampaignTest, DeterministicForSeed) {
  const auto a = run_live_campaign(config_);
  const auto b = run_live_campaign(config_);
  EXPECT_EQ(a.secret, b.secret);
  for (std::size_t c = 0; c < a.tvla.size(); ++c) {
    EXPECT_DOUBLE_EQ(
        a.tvla[c].matrix.score(PlaintextClass::all_zeros,
                                   PlaintextClass::all_ones),
        b.tvla[c].matrix.score(PlaintextClass::all_zeros,
                                   PlaintextClass::all_ones));
  }
}

TEST_F(TvlaCampaignTest, KernelVictimAlsoLeaks) {
  config_.source.victim = victim::VictimModel::kernel_module();
  config_.seed = 12;
  const auto result = run_live_campaign(config_);
  const auto* phpc = result.find_tvla("PHPC");
  ASSERT_NE(phpc, nullptr);
  EXPECT_GE(std::abs(phpc->matrix.score(PlaintextClass::all_zeros,
                                        PlaintextClass::all_ones)),
            util::tvla_threshold);
}

class CpaCampaignTest : public ::testing::Test {
 protected:
  LiveCampaignConfig config_{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space()},
      .protocol = CampaignProtocol::random_stream,
      .traces = 40000,
      .keys = {smc::FourCc("PHPC")},
      .checkpoints = {10000, 40000},
      .seed = 13,
  };
};

TEST_F(CpaCampaignTest, StructureOfResult) {
  const auto result = run_live_campaign(config_);
  EXPECT_EQ(result.cpa_trace_count, 40000u);
  ASSERT_EQ(result.cpa.size(), 1u);
  EXPECT_EQ(result.cpa[0].key, smc::FourCc("PHPC"));
  ASSERT_EQ(result.cpa[0].final_results.size(), 1u);
  ASSERT_EQ(result.cpa[0].curves.size(), 1u);
  ASSERT_EQ(result.cpa[0].curves[0].size(), 2u);
  EXPECT_EQ(result.cpa[0].curves[0][0].traces, 10000u);
  EXPECT_EQ(result.cpa[0].curves[0][1].traces, 40000u);
  EXPECT_EQ(result.round_keys[0], result.secret);
  EXPECT_NE(result.find_cpa(smc::FourCc("PHPC")), nullptr);
  EXPECT_EQ(result.find_cpa(smc::FourCc("PSTR")), nullptr);
}

TEST_F(CpaCampaignTest, GeDecreasesWithTraces) {
  const auto result = run_live_campaign(config_);
  const auto& curve = result.cpa[0].curves[0];
  EXPECT_GT(curve[0].ge_bits, curve[1].ge_bits);
  // Even at 40k traces we must be visibly below the random reference.
  EXPECT_LT(curve[1].ge_bits, random_guess_ge_bits() - 5.0);
}

// The default attack set lives in the aes-power scenario's analysis
// spec: every M2 power key but the PHPS estimate, and never the PCPU
// pseudo-channel. A live campaign attacks exactly the keys it is given.
TEST_F(CpaCampaignTest, DefaultKeysExcludePhps) {
  const auto aes_power =
      scenario::ScenarioRegistry::built_in().find("aes-power-user");
  ASSERT_NE(aes_power, nullptr);
  config_.keys =
      aes_power->analysis(aes_power->parse_params({{"pcpu", "1"}})).cpa_keys;
  EXPECT_EQ(config_.keys,
            (std::vector<smc::FourCc>{smc::FourCc("PHPC"), smc::FourCc("PDTR"),
                                      smc::FourCc("PMVC"),
                                      smc::FourCc("PSTR")}));
  config_.traces = 5000;
  config_.checkpoints.clear();
  const auto result = run_live_campaign(config_);
  EXPECT_EQ(result.cpa.size(), 4u);
  EXPECT_EQ(result.find_cpa(smc::FourCc("PHPS")), nullptr);
}

TEST_F(CpaCampaignTest, UnknownKeyRejected) {
  config_.keys = {smc::FourCc("ZZZZ")};
  try {
    run_live_campaign(config_);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ZZZZ"), std::string::npos)
        << e.what();
  }
}

TEST_F(CpaCampaignTest, RandomStreamWithoutKeysRejected) {
  config_.keys.clear();
  EXPECT_THROW(run_live_campaign(config_), std::invalid_argument);
}

TEST_F(CpaCampaignTest, FinalCheckpointImplicit) {
  config_.checkpoints = {10000};  // not including the final count
  const auto result = run_live_campaign(config_);
  const auto& curve = result.cpa[0].curves[0];
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_EQ(curve.back().traces, 40000u);
}

TEST_F(CpaCampaignTest, KernelVictimConvergesSlower) {
  // GE at a fixed trace count has seed-to-seed spread comparable to the
  // kernel/user gap, so aggregate over four seeds and two checkpoints.
  // All campaigns are deterministic per seed, so this comparison is
  // stable.
  config_.traces = 400000;
  config_.checkpoints = {200000};
  double user_ge = 0.0;
  double kernel_ge = 0.0;
  for (const std::uint64_t seed : {14u, 15u, 16u, 17u}) {
    config_.seed = seed;
    config_.source.victim = victim::VictimModel::user_space();
    const auto user = run_live_campaign(config_);
    for (const auto& p : user.cpa[0].curves[0]) {
      user_ge += p.ge_bits;
    }
    config_.source.victim = victim::VictimModel::kernel_module();
    const auto kernel = run_live_campaign(config_);
    for (const auto& p : kernel.cpa[0].curves[0]) {
      kernel_ge += p.ge_bits;
    }
  }
  EXPECT_GT(kernel_ge, user_ge);
}

TEST_F(CpaCampaignTest, M1DeviceRuns) {
  config_.source.profile = soc::DeviceProfile::mac_mini_m1();
  config_.traces = 20000;
  config_.checkpoints.clear();
  const auto result = run_live_campaign(config_);
  ASSERT_EQ(result.cpa.size(), 1u);
  EXPECT_GT(result.cpa[0].final_results[0].ge_bits, 0.0);
}

}  // namespace
}  // namespace psc::core
