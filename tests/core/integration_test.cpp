// End-to-end integration: the full attack chain at reduced scale, pinning
// the headline qualitative results of every experiment family.
#include <gtest/gtest.h>

#include "core/campaigns.h"
#include "core/guessing_entropy.h"
#include "core/report.h"
#include "core/throttle.h"
#include "smc/fuzzer.h"
#include "victim/platform.h"
#include "victim/victims.h"

namespace psc::core {
namespace {

TEST(Integration, Table2KeyTriageEndToEnd) {
  // smc-fuzzer methodology through the real IOKit-shaped client against
  // the full platform: finds exactly the paper's Table 2 key sets.
  for (const auto& profile : {soc::DeviceProfile::mac_mini_m1(),
                              soc::DeviceProfile::macbook_air_m2()}) {
    victim::Platform platform(profile, 31);
    auto conn = platform.open_smc();
    platform.run_for(1.2);
    const auto idle = smc::snapshot_keys(conn, 'P');

    std::vector<sched::ThreadId> ids;
    for (std::size_t c = 0; c < platform.chip().core_count(); ++c) {
      ids.push_back(platform.scheduler().spawn(
          "stress", std::make_unique<soc::MatrixStressor>()));
    }
    platform.run_for(2.0);
    const auto busy = smc::snapshot_keys(conn, 'P');

    const auto found =
        smc::workload_dependent_keys(smc::diff_snapshots(idle, busy));
    auto expected = platform.smc().database().workload_dependent_keys();
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(found, expected) << profile.name;
  }
}

TEST(Integration, TvlaLeakageHierarchy) {
  // Reduced-scale Table 3: PHPC perfectly data-dependent, weaker channels
  // leak, estimate channels do not.
  LiveCampaignConfig config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space(),
                 .include_pcpu = true},
      .traces = 5000,
      .seed = 32,
  };
  const auto result = run_live_campaign(config);
  ASSERT_NE(result.find_tvla("PHPC"), nullptr);
  EXPECT_TRUE(result.find_tvla("PHPC")->matrix.perfectly_data_dependent());
  EXPECT_TRUE(result.find_tvla("PHPS")->matrix.no_data_dependence());
  EXPECT_TRUE(result.find_tvla("PCPU")->matrix.no_data_dependence());
  // Package-level channels still cross the threshold for fixed classes.
  EXPECT_GE(std::abs(result.find_tvla("PSTR")->matrix.score(
                PlaintextClass::all_zeros, PlaintextClass::all_ones)),
            util::tvla_threshold);
}

TEST(Integration, CpaRecoversKeyMaterialFromPhpc) {
  // Reduced-scale Table 4 / Fig 1a: at 150k traces the attack is clearly
  // under way — GE far below random and several bytes at/near rank 1.
  LiveCampaignConfig config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space()},
      .protocol = CampaignProtocol::random_stream,
      .traces = 150000,
      .keys = {smc::FourCc("PHPC")},
      .models = {power::PowerModel::rd0_hw},
      .seed = 33,
  };
  const auto result = run_live_campaign(config);
  const auto& final = result.cpa[0].final_results[0];
  EXPECT_LT(final.ge_bits, random_guess_ge_bits() - 30.0);
  EXPECT_GE(final.near_recovered_bytes, 3);
}

TEST(Integration, PowerModelHierarchyOnPhpc) {
  // Fig 1a shape: Rd0-HW converges best; Rd10-HD does not converge.
  LiveCampaignConfig config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space()},
      .protocol = CampaignProtocol::random_stream,
      .traces = 200000,
      .keys = {smc::FourCc("PHPC")},
      .models = {power::PowerModel::rd0_hw, power::PowerModel::rd10_hw,
                 power::PowerModel::rd10_hd},
      .seed = 34,
  };
  const auto result = run_live_campaign(config);
  const auto& finals = result.cpa[0].final_results;
  const double rd0 = finals[0].ge_bits;
  const double rd10hd = finals[2].ge_bits;
  EXPECT_LT(rd0, rd10hd - 20.0);
  EXPECT_GT(rd10hd, random_guess_ge_bits() - 25.0);  // HD stays ~flat
}

TEST(Integration, PstrSurvivesCpa) {
  // Table 4's PSTR column: TVLA-visible but CPA-resistant.
  LiveCampaignConfig config{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space()},
      .protocol = CampaignProtocol::random_stream,
      .traces = 150000,
      .keys = {smc::FourCc("PSTR")},
      .models = {power::PowerModel::rd0_hw},
      .seed = 35,
  };
  const auto result = run_live_campaign(config);
  EXPECT_GT(result.cpa[0].final_results[0].ge_bits,
            random_guess_ge_bits() - 25.0);
  EXPECT_EQ(result.cpa[0].final_results[0].recovered_bytes, 0);
}

TEST(Integration, ThrottlingExperimentEndToEnd) {
  ThrottleExperimentConfig config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .aes_threads = 4,
      .stressor_threads = 4,
      .traces_per_set = 15,
      .window_s = 0.5,
      .seed = 36};
  const auto result = run_throttle_campaign(config);
  EXPECT_TRUE(result.observation.power_throttled);
  EXPECT_TRUE(result.timing_matrix.no_data_dependence());
}

TEST(Integration, SlowPathVictimFeedsTvla) {
  // A miniature end-to-end slow-path campaign: the genuine platform,
  // victim threads, SMC reads through the IOKit-shaped client. With few
  // windows the t-scores are small; what must hold is that the pipeline
  // runs and same-class sets stay indistinguishable.
  victim::Platform platform(soc::DeviceProfile::macbook_air_m2(), 37);
  aes::Block key{};
  key[0] = 0x42;
  victim::UserSpaceVictim victim(platform, key, 3);
  auto conn = platform.open_smc();

  TvlaAccumulator acc;
  util::Xoshiro256 rng(38);
  for (const bool primed : {false, true}) {
    for (const PlaintextClass cls : all_plaintext_classes) {
      for (int i = 0; i < 6; ++i) {
        victim.encrypt_window(class_plaintext(cls, rng), 1.0);
        acc.add(cls, primed, conn.read_numeric(smc::FourCc("PHPC")));
      }
    }
  }
  const TvlaMatrix m = acc.matrix();
  for (const PlaintextClass cls : all_plaintext_classes) {
    EXPECT_LT(std::abs(m.score(cls, cls)), util::tvla_threshold);
  }
}

}  // namespace
}  // namespace psc::core
