// Golden result digests: every result double of a fixed (seed, shards)
// campaign, replay job and scenario job is hashed by bit pattern
// (FNV-1a), and the digest must equal the constant recorded below. The
// constants pin the numbers themselves, not just their agreement across
// worker counts, so a change to how shards are scheduled, merged or
// drained that perturbs a single bit fails here even when every
// cross-run bit-identity test still agrees with itself.
//
// A mismatch prints the actual digest; after an intentional change to
// the numbers, copy it from the failure output into the constant.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bus/jobs.h"
#include "bus/scenario_jobs.h"
#include "core/campaigns.h"
#include "scenario/runner.h"
#include "store/shared_mapping.h"

namespace psc {
namespace {

class Fnv1a {
 public:
  void add(double v) noexcept {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(const core::TvlaMatrix& m) noexcept {
    for (const auto& row : m.t) {
      for (const double t : row) {
        add(t);
      }
    }
  }
  void add(const std::vector<core::TvlaChannelResult>& channels) noexcept {
    for (const auto& c : channels) {
      add(c.matrix);
    }
  }
  void add(const core::ModelResult& r) noexcept {
    for (const auto& byte : r.bytes) {
      for (const double c : byte.correlation) {
        add(c);
      }
    }
    add(r.ge_bits);
    add(r.mean_rank);
  }
  void add(const std::vector<core::CpaKeyResult>& keys) noexcept {
    for (const auto& k : keys) {
      for (const auto& r : k.final_results) {
        add(r);
      }
      for (const auto& curve : k.curves) {
        for (const auto& point : curve) {
          add(point.ge_bits);
          add(point.mean_rank);
        }
      }
    }
  }

  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

void expect_digest(const Fnv1a& actual, std::uint64_t expected,
                   const std::string& what) {
  EXPECT_EQ(actual.value(), expected)
      << what << ": actual digest " << hex(actual.value());
}

core::LiveCampaignConfig combined_config(std::size_t workers) {
  return {
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space(),
                 .include_pcpu = true},
      .traces = 1000,
      .keys = {smc::FourCc("PHPC"), smc::FourCc("PSTR")},
      .models = {power::PowerModel::rd0_hw},
      .checkpoints = {500, 1000},
      .seed = 2024,
      .workers = workers,
      .shards = 4,
  };
}

TEST(GoldenDigest, CombinedCampaignAtFourShards) {
  constexpr std::uint64_t golden = 0x868a7f51e7c69b44ULL;
  for (const std::size_t workers : {1u, 4u}) {
    const core::SinkCampaignResult r =
        core::run_live_campaign(combined_config(workers));
    Fnv1a digest;
    digest.add(r.tvla);
    digest.add(r.cpa);
    expect_digest(digest, golden,
                  "combined, workers " + std::to_string(workers));
  }
}

TEST(GoldenDigest, CpaCampaignWithThreeCheckpoints) {
  constexpr std::uint64_t golden = 0x92c4c1f63d56351bULL;
  const core::SinkCampaignResult r = core::run_live_campaign({
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space()},
      .protocol = core::CampaignProtocol::random_stream,
      .traces = 12000,
      .keys = {smc::FourCc("PHPC")},
      .models = {power::PowerModel::rd0_hw, power::PowerModel::rd10_hw},
      .checkpoints = {2000, 5000, 9000},
      .seed = 77,
      .workers = 3,
      .shards = 5,
  });
  ASSERT_EQ(r.cpa.at(0).curves.at(0).size(), 4u);
  Fnv1a digest;
  digest.add(r.cpa);
  expect_digest(digest, golden, "cpa campaign");
}

// Every CPA model, rd10_hd's pair histogram and rd1_sbox_hw included, at
// one worker and at four.
TEST(GoldenDigest, CpaCampaignAllFourModels) {
  constexpr std::uint64_t golden = 0x8d52f21db1cd38d8ULL;
  for (const std::size_t workers : {1u, 4u}) {
    const core::SinkCampaignResult r = core::run_live_campaign({
        .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                   .victim = victim::VictimModel::user_space()},
        .protocol = core::CampaignProtocol::random_stream,
        .traces = 6000,
        .keys = {smc::FourCc("PHPC")},
        .models = {power::all_power_models.begin(),
                   power::all_power_models.end()},
        .checkpoints = {1500, 3500},
        .seed = 91,
        .workers = workers,
        .shards = 5,
    });
    ASSERT_EQ(r.cpa.at(0).curves.size(), 4u);
    ASSERT_EQ(r.cpa.at(0).curves.at(0).size(), 3u);
    Fnv1a digest;
    digest.add(r.cpa);
    expect_digest(digest, golden,
                  "all-models cpa campaign, workers " +
                      std::to_string(workers));
  }
}

// One aes-power-user recording in TVLA protocol order, replayed by the
// dataset jobs sequentially and under a shard budget.
class GoldenReplay : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::string path = ::testing::TempDir() + "golden_replay.pstr";
    scenario::ScenarioRunConfig config;
    config.traces_per_set = 600;
    config.seed = 31;
    config.shards = 1;
    config.record_path = path;
    secret_ = scenario::run_scenario("aes-power-user", {}, config).secret;
    dataset_ = store::SharedMapping::open(path);
  }
  static void TearDownTestSuite() { dataset_.reset(); }

  static bus::JobExecOptions budget(std::uint32_t n) {
    bus::JobExecOptions exec;
    exec.shard_budget = [n] { return n; };
    return exec;
  }

  static inline aes::Block secret_{};
  static inline std::shared_ptr<const store::SharedMapping> dataset_;
};

TEST_F(GoldenReplay, TvlaJob) {
  constexpr std::uint64_t golden = 0x6fc5525e129148edULL;
  bus::TvlaJobSpec spec;
  spec.shards = 3;
  for (const std::uint32_t b : {0u, 4u}) {
    const bus::TvlaJobResult r = bus::run_tvla_job(
        dataset_, spec, {}, b == 0 ? bus::JobExecOptions{} : budget(b));
    Fnv1a digest;
    digest.add(r.channels);
    expect_digest(digest, golden, "tvla job, budget " + std::to_string(b));
  }
}

TEST_F(GoldenReplay, CpaJob) {
  constexpr std::uint64_t golden = 0x1572f79e445c1b36ULL;
  bus::CpaJobSpec spec;
  spec.channel = util::FourCc("PHPC").code();
  spec.known_key = secret_;
  spec.models = {power::PowerModel::rd0_hw, power::PowerModel::rd10_hw};
  spec.shards = 4;
  for (const std::uint32_t b : {0u, 2u}) {
    const bus::CpaJobResult r = bus::run_cpa_job(
        dataset_, spec, {}, b == 0 ? bus::JobExecOptions{} : budget(b));
    Fnv1a digest;
    for (const auto& model : r.models) {
      digest.add(model);
    }
    expect_digest(digest, golden, "cpa job, budget " + std::to_string(b));
  }
}

TEST(GoldenDigest, ScenarioJobForEveryBuiltIn) {
  const std::vector<std::pair<std::string, std::uint64_t>> golden = {
      {"aes-power-user", 0x3375e488e7fdd1a4ULL},
      {"aes-power-kernel", 0x51a12051a69f1720ULL},
      {"cache-timing", 0x46cf881d1806c74cULL},
      {"dvfs-frequency", 0x7eecc5b0f97b3e2cULL},
      {"sqmul-timing", 0x9e5969a29f40a2eeULL},
  };
  for (const auto& [name, expected] : golden) {
    bus::ScenarioJobSpec spec;
    spec.scenario = name;
    spec.traces_per_set = 300;
    spec.seed = 8;
    spec.shards = 3;
    const bus::ScenarioJobResult r = bus::run_scenario_job(spec, {}, 4);
    Fnv1a digest;
    digest.add(r.tvla);
    digest.add(r.cpa);
    expect_digest(digest, expected, name);
  }
}

}  // namespace
}  // namespace psc
