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

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
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

// The live-aes campaign shape at a small scale: the aes-power-user
// scenario's TVLA sets with rd0_hw CPA on PHPC, PDTR, PMVC and PSTR at
// eight log-spaced GE checkpoints, eight shards, at 1, 2 and 4 workers.
// Every TVLA matrix, GE curve point and final result is digested.
TEST(GoldenDigest, LiveAesShapedCampaignAtEveryWorkerCount) {
  constexpr std::uint64_t golden = 0x751cfadebc11ea22ULL;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    scenario::ScenarioRunConfig config;
    config.traces_per_set = 4000;
    config.checkpoints = core::log_spaced_checkpoints(250, 8000, 8);
    config.seed = 39;
    config.workers = workers;
    config.shards = 8;
    const scenario::ScenarioRunResult r =
        scenario::run_scenario("aes-power-user", {}, config);
    ASSERT_EQ(r.tvla.size(), 5u);
    ASSERT_EQ(r.cpa.size(), 4u);
    ASSERT_EQ(r.cpa.at(0).curves.at(0).size(), 8u);
    Fnv1a digest;
    digest.add(r.tvla);
    digest.add(r.cpa);
    expect_digest(digest, golden,
                  "live-aes shape, workers " + std::to_string(workers));
  }
}

// rd10_hd's 12.6 MB pair-histogram engines at eight shards on four
// workers, over four checkpoints: shards that reach a checkpoint before
// the shards ahead of them hold their snapshot until it can fold.
TEST(GoldenDigest, Rd10HdCampaignAtEightShards) {
  constexpr std::uint64_t golden = 0xd3a7680f166c2285ULL;
  const core::SinkCampaignResult r = core::run_live_campaign({
      .source = {.profile = soc::DeviceProfile::macbook_air_m2(),
                 .victim = victim::VictimModel::user_space()},
      .protocol = core::CampaignProtocol::random_stream,
      .traces = 8000,
      .keys = {smc::FourCc("PHPC")},
      .models = {power::PowerModel::rd10_hd},
      .checkpoints = {1000, 2500, 5000},
      .seed = 52,
      .workers = 4,
      .shards = 8,
  });
  ASSERT_EQ(r.cpa.at(0).curves.at(0).size(), 4u);
  Fnv1a digest;
  digest.add(r.cpa);
  expect_digest(digest, golden, "rd10_hd campaign");
}

// A live source that throws on its second batch, once its shard has
// passed at least one GE checkpoint.
class FailingSource final : public core::TraceSource {
 public:
  FailingSource(std::unique_ptr<core::TraceSource> inner, std::size_t shard)
      : inner_(std::move(inner)), shard_(shard) {}

  const std::vector<util::FourCc>& keys() const noexcept override {
    return inner_->keys();
  }
  void collect_batch(core::TraceBatch& batch) override {
    if (++batches_ == 2) {
      throw std::runtime_error("shard " + std::to_string(shard_) + " failed");
    }
    inner_->collect_batch(batch);
  }

 private:
  std::unique_ptr<core::TraceSource> inner_;
  std::size_t shard_;
  std::size_t batches_ = 0;
};

// Wraps shard s's live source, or returns it as it is.
using SourceWrap = std::function<std::unique_ptr<core::TraceSource>(
    std::unique_ptr<core::TraceSource> live, std::size_t shard)>;

// Rd0-HW CPA on PHPC and PSTR at four checkpoints over eight shards of
// 1500 traces: the first 1024-trace batch passes three of them.
core::SinkCampaignConfig eight_shard_config(std::size_t workers,
                                            SourceWrap wrap) {
  const core::LiveSourceConfig source{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space()};
  return {
      .channels = core::LiveTraceSource::channel_names(source),
      .make_source =
          [source, wrap](const core::ShardSource& shard)
          -> std::unique_ptr<core::TraceSource> {
        auto live = std::make_unique<core::LiveTraceSource>(
            source, shard.secret, shard.seed);
        return wrap ? wrap(std::move(live), shard.slice.begin / 1500)
                    : std::move(live);
      },
      .protocol = core::CampaignProtocol::random_stream,
      .traces = 12000,
      .cpa_keys = {smc::FourCc("PHPC"), smc::FourCc("PSTR")},
      .models = {power::PowerModel::rd0_hw},
      .checkpoints = {800, 3000, 6000},
      .seed = 61,
      .shards = 8,
      .exec = {.shard_budget = [workers] { return workers; }},
  };
}

constexpr std::uint64_t eight_shard_golden = 0x97792ebd9cd91b48ULL;

// Shards 5 and 3 throw after folding their first checkpoints: the
// campaign rethrows shard 3's error, and the next campaign in the process
// is unaffected by anything the failed one left behind.
TEST(GoldenDigest, FailingShardRethrowsAndLeavesNoState) {
  const SourceWrap fail_3_and_5 = [](std::unique_ptr<core::TraceSource> live,
                                     std::size_t s)
      -> std::unique_ptr<core::TraceSource> {
    if (s != 3 && s != 5) {
      return live;
    }
    return std::make_unique<FailingSource>(std::move(live), s);
  };
  for (const std::size_t workers : {1u, 4u}) {
    try {
      core::run_sink_campaign(eight_shard_config(workers, fail_3_and_5));
      ADD_FAILURE() << "workers " << workers << ": no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 3 failed") << "workers " << workers;
    }
    const core::SinkCampaignResult r =
        core::run_sink_campaign(eight_shard_config(workers, {}));
    Fnv1a digest;
    digest.add(r.cpa);
    expect_digest(digest, eight_shard_golden,
                  "after a failure, workers " + std::to_string(workers));
  }
}

// Counts finished shard sources, so a held-back shard can wait for them.
class FinishedShards {
 public:
  void finish() {
    std::lock_guard<std::mutex> lock(mu_);
    ++finished_;
    cv_.notify_all();
  }
  bool wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [&] { return finished_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t finished_ = 0;
};

// A live source that, as shard 0, takes its first batch only once shards
// 1-3 are done, and as any other shard reports when it is done.
class OrderedSource final : public core::TraceSource {
 public:
  OrderedSource(std::unique_ptr<core::TraceSource> inner, std::size_t shard,
                FinishedShards& finished)
      : inner_(std::move(inner)), shard_(shard), finished_(finished) {}
  ~OrderedSource() override {
    if (shard_ != 0) {
      finished_.finish();
    }
  }

  const std::vector<util::FourCc>& keys() const noexcept override {
    return inner_->keys();
  }
  void collect_batch(core::TraceBatch& batch) override {
    if (shard_ == 0 && !waited_) {
      waited_ = true;
      EXPECT_TRUE(finished_.wait_for(3)) << "shards 1-3 never finished";
    }
    inner_->collect_batch(batch);
  }

 private:
  std::unique_ptr<core::TraceSource> inner_;
  std::size_t shard_;
  FinishedShards& finished_;
  bool waited_ = false;
};

// Shards that reach a checkpoint ahead of shard order park copies, and
// the stat that counts them never touches a result: none park at one
// worker, and when shard 0 is held back until shards 1-3 are done, each
// of them parks all eight (key, checkpoint) engines, with the same digest.
TEST(GoldenDigest, ParkedSnapshotsNeverChangeResults) {
  const core::SinkCampaignResult in_order =
      core::run_sink_campaign(eight_shard_config(1, {}));
  EXPECT_EQ(in_order.stats.parked_snapshots_peak, 0u);
  Fnv1a in_order_digest;
  in_order_digest.add(in_order.cpa);
  expect_digest(in_order_digest, eight_shard_golden, "workers 1");

  FinishedShards finished;
  const core::SinkCampaignResult held = core::run_sink_campaign(
      eight_shard_config(4, [&](std::unique_ptr<core::TraceSource> live,
                                std::size_t s) {
        return std::make_unique<OrderedSource>(std::move(live), s, finished);
      }));
  EXPECT_GE(held.stats.parked_snapshots_peak, 3u * 8u);
  Fnv1a held_digest;
  held_digest.add(held.cpa);
  expect_digest(held_digest, eight_shard_golden, "shard 0 held back");
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
