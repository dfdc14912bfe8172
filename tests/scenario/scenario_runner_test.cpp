// Scenario runner: the AES-power scenarios must run through the registry
// bit-identical to the live campaign (core::run_live_campaign) over the
// scenario's own attack keys, and every scenario result must be a pure
// function of (seed, shards).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/campaigns.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "soc/device_profile.h"
#include "store/trace_file_reader.h"

namespace psc::scenario {
namespace {

void expect_matrices_identical(const core::TvlaMatrix& a,
                               const core::TvlaMatrix& b,
                               const std::string& what) {
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(a.t[r][c], b.t[r][c]) << what << " cell " << r << "," << c;
    }
  }
}

TEST(ScenarioRunner, AesPowerUserTvlaBitIdenticalToLiveCampaign) {
  constexpr std::size_t kPerSet = 400;
  constexpr std::uint64_t kSeed = 7;

  const core::LiveCampaignConfig live{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space()},
      .traces = kPerSet,
      .seed = kSeed,
      .workers = 2,
      .shards = 3,
  };
  const core::SinkCampaignResult expected = core::run_live_campaign(live);

  const ScenarioRunResult got = run_scenario(
      "aes-power-user", {},
      {.traces_per_set = kPerSet, .seed = kSeed, .workers = 2, .shards = 3});

  EXPECT_EQ(got.secret, expected.secret);
  ASSERT_EQ(got.tvla.size(), expected.tvla.size());
  for (std::size_t c = 0; c < got.tvla.size(); ++c) {
    EXPECT_EQ(got.tvla[c].channel, expected.tvla[c].channel);
    expect_matrices_identical(got.tvla[c].matrix,
                              expected.tvla[c].matrix,
                              got.tvla[c].channel);
  }
}

TEST(ScenarioRunner, AesPowerKernelCombinedBitIdenticalToLiveCampaign) {
  constexpr std::size_t kPerSet = 300;
  constexpr std::uint64_t kSeed = 11;
  const std::vector<std::size_t> checkpoints = {200, 600};
  const auto kernel = ScenarioRegistry::built_in().find("aes-power-kernel");
  ASSERT_NE(kernel, nullptr);

  const core::LiveCampaignConfig live{
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::kernel_module()},
      .traces = kPerSet,
      .keys = kernel->analysis(kernel->parse_params({})).cpa_keys,
      .checkpoints = checkpoints,
      .seed = kSeed,
      .workers = 2,
      .shards = 2,
  };
  const core::SinkCampaignResult expected = core::run_live_campaign(live);

  const ScenarioRunResult got =
      run_scenario("aes-power-kernel", {},
                   {.traces_per_set = kPerSet,
                    .checkpoints = checkpoints,
                    .seed = kSeed,
                    .workers = 2,
                    .shards = 2});

  EXPECT_EQ(got.secret, expected.secret);
  ASSERT_EQ(got.tvla.size(), expected.tvla.size());
  for (std::size_t c = 0; c < got.tvla.size(); ++c) {
    EXPECT_EQ(got.tvla[c].channel, expected.tvla[c].channel);
    expect_matrices_identical(got.tvla[c].matrix, expected.tvla[c].matrix,
                              got.tvla[c].channel);
  }

  ASSERT_EQ(got.cpa.size(), expected.cpa.size());
  ASSERT_EQ(got.cpa.size(), 4u);  // PHPC PDTR PMVC PSTR
  for (std::size_t k = 0; k < got.cpa.size(); ++k) {
    EXPECT_EQ(got.cpa[k].key, expected.cpa[k].key);
    ASSERT_EQ(got.cpa[k].final_results.size(),
              expected.cpa[k].final_results.size());
    for (std::size_t m = 0; m < got.cpa[k].final_results.size(); ++m) {
      const core::ModelResult& a = got.cpa[k].final_results[m];
      const core::ModelResult& b = expected.cpa[k].final_results[m];
      EXPECT_EQ(a.ge_bits, b.ge_bits);
      EXPECT_EQ(a.mean_rank, b.mean_rank);
      EXPECT_EQ(a.true_ranks, b.true_ranks);
      EXPECT_EQ(a.recovered_bytes, b.recovered_bytes);
    }
    ASSERT_EQ(got.cpa[k].curves.size(), expected.cpa[k].curves.size());
    for (std::size_t m = 0; m < got.cpa[k].curves.size(); ++m) {
      ASSERT_EQ(got.cpa[k].curves[m].size(),
                expected.cpa[k].curves[m].size());
      for (std::size_t p = 0; p < got.cpa[k].curves[m].size(); ++p) {
        EXPECT_EQ(got.cpa[k].curves[m][p].traces,
                  expected.cpa[k].curves[m][p].traces);
        EXPECT_EQ(got.cpa[k].curves[m][p].ge_bits,
                  expected.cpa[k].curves[m][p].ge_bits);
        EXPECT_EQ(got.cpa[k].curves[m][p].mean_rank,
                  expected.cpa[k].curves[m][p].mean_rank);
      }
    }
  }
}

TEST(ScenarioRunner, ResultsAreWorkerInvariant) {
  const ScenarioRunConfig sequential{
      .traces_per_set = 250, .seed = 5, .workers = 1, .shards = 3};
  const ScenarioRunConfig pooled{
      .traces_per_set = 250, .seed = 5, .workers = 4, .shards = 3};
  for (const std::string name : {"cache-timing", "dvfs-frequency",
                                 "sqmul-timing"}) {
    const ScenarioRunResult a = run_scenario(name, {}, sequential);
    const ScenarioRunResult b = run_scenario(name, {}, pooled);
    ASSERT_EQ(a.tvla.size(), b.tvla.size()) << name;
    for (std::size_t c = 0; c < a.tvla.size(); ++c) {
      expect_matrices_identical(a.tvla[c].matrix, b.tvla[c].matrix,
                                name + "/" + a.tvla[c].channel);
    }
    EXPECT_EQ(a.secret, b.secret) << name;
  }
}

TEST(ScenarioRunner, SeedChangesSecretAndResults) {
  const ScenarioRunResult a =
      run_scenario("sqmul-timing", {}, {.traces_per_set = 100, .seed = 1});
  const ScenarioRunResult b =
      run_scenario("sqmul-timing", {}, {.traces_per_set = 100, .seed = 2});
  EXPECT_NE(a.secret, b.secret);
  EXPECT_NE(a.tvla[0].matrix.t, b.tvla[0].matrix.t);
}

TEST(ScenarioRunner, UnknownScenarioAndBadParamsThrow) {
  EXPECT_THROW(run_scenario("no-such-scenario", {}, {}),
               std::invalid_argument);
  EXPECT_THROW(
      run_scenario("cache-timing", {{"bogus", "1"}}, {.traces_per_set = 10}),
      std::invalid_argument);
}

// A run whose params would never finish a trace (or would read NaN or 0
// everywhere) throws before the campaign starts, not after hours.
TEST(ScenarioRunner, ParamsThatHangOrPoisonATraceThrowBeforeRunning) {
  const ScenarioRunConfig config{.traces_per_set = 1};
  EXPECT_THROW(run_scenario("dvfs-frequency", {{"window_s", "nan"}}, config),
               std::invalid_argument);
  EXPECT_THROW(run_scenario("dvfs-frequency", {{"window_s", "1e300"}}, config),
               std::invalid_argument);
  EXPECT_THROW(
      run_scenario("cache-timing", {{"iterations", "2000000000"}}, config),
      std::invalid_argument);
  EXPECT_THROW(run_scenario("cache-timing", {{"noise_ns", "nan"}}, config),
               std::invalid_argument);
  EXPECT_THROW(run_scenario("sqmul-timing", {{"noise_ns", "nan"}}, config),
               std::invalid_argument);
  EXPECT_THROW(run_scenario("sqmul-timing", {{"bit_ns", "0x10"}}, config),
               std::invalid_argument);
}

TEST(ScenarioRunner, RecordsAcquisitionToPstr) {
  const std::string path = ::testing::TempDir() + "scenario_record.pstr";
  std::remove(path.c_str());

  constexpr std::size_t kPerSet = 64;
  const ScenarioRunResult result =
      run_scenario("cache-timing", {{"lines", "4"}},
                   {.traces_per_set = kPerSet,
                    .seed = 9,
                    .workers = 1,
                    .shards = 1,
                    .record_path = path});
  ASSERT_EQ(result.channels.size(), 4u);

  store::TraceFileReader reader(path);
  EXPECT_EQ(reader.trace_count(), 6 * kPerSet);
  EXPECT_EQ(reader.channels(), result.channels);

  // Recording a sharded run would interleave writers; rejected up front.
  EXPECT_THROW(run_scenario("cache-timing", {},
                            {.traces_per_set = 16,
                             .shards = 2,
                             .record_path = path}),
               std::invalid_argument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace psc::scenario
