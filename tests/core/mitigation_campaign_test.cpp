// Section 5 of the paper proposes countermeasures; these tests verify the
// mitigation layer actually defeats the attack pipelines it is aimed at.
#include <gtest/gtest.h>

#include "core/campaigns.h"
#include "core/guessing_entropy.h"
#include "victim/fast_trace.h"

namespace psc::core {
namespace {

TEST(MitigatedCampaigns, FilteringKillsTvlaLeakage) {
  LiveCampaignConfig config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space(),
                 .mitigation = smc::MitigationPolicy::rapl_style_filtering()},
      .traces = 3000,
      .seed = 71,
  };
  const auto result = run_live_campaign(config);
  for (const auto& channel : result.tvla) {
    EXPECT_TRUE(channel.matrix.no_data_dependence()) << channel.channel;
  }
}

TEST(MitigatedCampaigns, FilteringKillsCpaRecovery) {
  LiveCampaignConfig config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space(),
                 .mitigation = smc::MitigationPolicy::rapl_style_filtering()},
      .protocol = CampaignProtocol::random_stream,
      .traces = 120000,
      .keys = {smc::FourCc("PHPC")},
      .models = {power::PowerModel::rd0_hw},
      .seed = 72,
  };
  const auto result = run_live_campaign(config);
  EXPECT_GT(result.cpa[0].final_results[0].ge_bits,
            random_guess_ge_bits() - 20.0);
  EXPECT_EQ(result.cpa[0].final_results[0].recovered_bytes, 0);
}

TEST(MitigatedCampaigns, SlowerUpdatesRaiseAttackCost) {
  util::Xoshiro256 rng(73);
  aes::Block key;
  rng.fill_bytes(key);
  victim::FastTraceSource open_channel(
      soc::DeviceProfile::macbook_air_m2(), key,
      victim::VictimModel::user_space(), 74);
  victim::FastTraceSource filtered(
      soc::DeviceProfile::macbook_air_m2(), key,
      victim::VictimModel::user_space(), 74,
      smc::MitigationPolicy::rapl_style_filtering());
  EXPECT_DOUBLE_EQ(open_channel.window_s(), 1.0);
  EXPECT_DOUBLE_EQ(filtered.window_s(), 10.0);
  // One million traces: ~11.6 days unmitigated, ~116 days filtered.
  EXPECT_NEAR(1e6 * filtered.window_s() / 86400.0, 115.7, 0.2);
}

TEST(MitigatedCampaigns, UnmitigatedBaselineStillLeaks) {
  // Guard: the mitigation tests above must fail because of the policy,
  // not because the baseline broke.
  LiveCampaignConfig config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space(),
                 .mitigation = smc::MitigationPolicy::none()},
      .traces = 3000,
      .seed = 71,
  };
  const auto result = run_live_campaign(config);
  EXPECT_FALSE(result.find_tvla("PHPC")->matrix.no_data_dependence());
}

}  // namespace
}  // namespace psc::core
