#include "core/trace_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/guessing_entropy.h"
#include "scenario/registry.h"
#include "store/file_trace_source.h"
#include "store/trace_file_writer.h"
#include "util/simd.h"

namespace psc::core {
namespace {

aes::Block random_block(util::Xoshiro256& rng) {
  aes::Block b;
  rng.fill_bytes(b);
  return b;
}

LiveSourceConfig m2_user_config() {
  return {
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space(),
      .mitigation = smc::MitigationPolicy::none(),
      .include_pcpu = false,
  };
}

TEST(LiveTraceSource, ChannelNamesMatchConstructedSource) {
  LiveSourceConfig config = m2_user_config();
  util::Xoshiro256 rng(1);
  const aes::Block key = random_block(rng);

  LiveTraceSource source(config, key, 2);
  EXPECT_EQ(source.keys(), LiveTraceSource::channel_names(config));

  config.include_pcpu = true;
  LiveTraceSource with_pcpu(config, key, 2);
  const auto names = LiveTraceSource::channel_names(config);
  EXPECT_EQ(with_pcpu.keys(), names);
  EXPECT_EQ(names.back(), util::FourCc("PCPU"));
  EXPECT_EQ(names.size(), source.keys().size() + 1);
}

// Absolute anchor for the simulated device: the ciphertexts and every
// column (PCPU included) of a fixed campaign, hashed by bit pattern
// (FNV-1a), for m1/m2 x user/kernel victim x unmitigated/RAPL-style
// channel. Each case also runs through batch splits of 1, 7, 1023, 1024,
// 1025 and a mixed sequence: the kernel victim draws an odd number of
// Gaussians per trace, so the splits cross the generator's cached second
// deviate at batch boundaries. A mismatch prints the actual digest; after
// an intentional change to the device numbers, copy it into the table.
class Fnv1a {
 public:
  void add_bytes(const std::uint8_t* p, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) noexcept {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<std::uint8_t>(bits >> (8 * i));
    }
    add_bytes(bytes, 8);
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct DeviceAnchor {
  const char* name;
  soc::DeviceProfile (*profile)();
  victim::VictimModel (*victim)();
  smc::MitigationPolicy (*mitigation)();
  std::uint64_t digest;
};

// Rows per case: more than two of the largest split, so every split
// crosses at least two batch boundaries.
constexpr std::size_t anchor_rows = 2500;

// Collects anchor_rows traces in batches of the sizes `split` lists
// (cycled) and hashes every ciphertext byte, then every column.
std::uint64_t device_digest(const DeviceAnchor& c,
                            const std::vector<std::size_t>& split) {
  util::Xoshiro256 key_rng(2024);
  const aes::Block key = random_block(key_rng);
  const LiveSourceConfig config{.profile = c.profile(),
                                .victim = c.victim(),
                                .mitigation = c.mitigation(),
                                .include_pcpu = true};
  LiveTraceSource source(config, key, 99);
  util::Xoshiro256 pt_rng(100);
  TraceBatch all(source.keys().size());
  TraceBatch batch(source.keys().size());
  for (std::size_t done = 0, i = 0; done < anchor_rows; ++i) {
    const std::size_t n =
        std::min(split[i % split.size()], anchor_rows - done);
    collect_random_batch(source, n, pt_rng, batch);
    all.append(batch);
    done += n;
  }
  Fnv1a digest;
  for (const aes::Block& ct : all.ciphertexts()) {
    digest.add_bytes(ct.data(), ct.size());
  }
  for (std::size_t col = 0; col < all.channels(); ++col) {
    for (const double v : all.column(col)) {
      digest.add(v);
    }
  }
  return digest.value();
}

TEST(LiveTraceSource, DeviceDigestsPinnedAtEveryBatchSplit) {
  const std::vector<DeviceAnchor> cases = {
      {"m1 user", soc::DeviceProfile::mac_mini_m1,
       victim::VictimModel::user_space, smc::MitigationPolicy::none,
       0x8683366e13c3713bULL},
      {"m1 kernel", soc::DeviceProfile::mac_mini_m1,
       victim::VictimModel::kernel_module, smc::MitigationPolicy::none,
       0x64e9eabf012191caULL},
      {"m2 user", soc::DeviceProfile::macbook_air_m2,
       victim::VictimModel::user_space, smc::MitigationPolicy::none,
       0x8195054b55f182a6ULL},
      {"m2 kernel", soc::DeviceProfile::macbook_air_m2,
       victim::VictimModel::kernel_module, smc::MitigationPolicy::none,
       0xfa57c0a88d7a30dcULL},
      {"m1 user rapl", soc::DeviceProfile::mac_mini_m1,
       victim::VictimModel::user_space,
       smc::MitigationPolicy::rapl_style_filtering, 0x361d5a4ef894fb1aULL},
      {"m1 kernel rapl", soc::DeviceProfile::mac_mini_m1,
       victim::VictimModel::kernel_module,
       smc::MitigationPolicy::rapl_style_filtering, 0x426a3e600c062ff7ULL},
      {"m2 user rapl", soc::DeviceProfile::macbook_air_m2,
       victim::VictimModel::user_space,
       smc::MitigationPolicy::rapl_style_filtering, 0x16f9adf15e2e38d8ULL},
      {"m2 kernel rapl", soc::DeviceProfile::macbook_air_m2,
       victim::VictimModel::kernel_module,
       smc::MitigationPolicy::rapl_style_filtering, 0xc00db30891cc1885ULL},
  };
  const std::vector<std::vector<std::size_t>> splits = {
      {1}, {7}, {1023}, {1024}, {1025}, {3, 1024, 1, 257, 600, 2, 255}};
  for (const util::simd::Backend backend : util::simd::supported_backends()) {
    util::simd::force_backend(backend);
    for (const DeviceAnchor& c : cases) {
      for (const auto& split : splits) {
        const std::uint64_t actual = device_digest(c, split);
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llxULL",
                      static_cast<unsigned long long>(actual));
        EXPECT_EQ(actual, c.digest)
            << c.name << ", split " << split.front() << " ("
            << util::simd::backend_name(backend) << "): actual digest "
            << hex;
      }
    }
  }
  util::simd::reset_backend();
}

TEST(LiveTraceSource, PcpuColumnCarriesIoreportEnergy) {
  LiveSourceConfig config = m2_user_config();
  config.include_pcpu = true;
  util::Xoshiro256 rng(4);
  const aes::Block key = random_block(rng);
  LiveTraceSource source(config, key, 5);
  const TraceRecord record = source.collect(random_block(rng));
  ASSERT_EQ(record.values.size(), source.keys().size());
  const double pcpu = record.values.back();
  EXPECT_GE(pcpu, 0.0);
  EXPECT_DOUBLE_EQ(pcpu, std::floor(pcpu));  // whole millijoules
}

// The guarantee of CSV persistence: feeding a CSV-persisted capture
// through the analysis pipeline yields the *same* ModelResult as the live
// source that produced it.
TEST(TraceSet, CsvReplayMatchesLiveAnalysisBitForBit) {
  util::Xoshiro256 key_rng(10);
  const aes::Block victim_key = random_block(key_rng);
  const std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};
  constexpr std::size_t n_traces = 3000;

  // Live path: acquire and accumulate directly.
  LiveTraceSource live(m2_user_config(), victim_key, 11);
  util::Xoshiro256 pt_rng_a(12);
  const CpaEngine live_engine = accumulate_cpa(
      live, util::FourCc("PHPC"), models, n_traces, pt_rng_a);

  // Capture path: identical source and plaintext stream, persisted to CSV
  // and reloaded.
  LiveTraceSource capture_source(m2_user_config(), victim_key, 11);
  util::Xoshiro256 pt_rng_b(12);
  TraceBatch capture(capture_source.keys().size());
  collect_random_batch(capture_source, n_traces, pt_rng_b, capture);
  TraceSet captured(capture_source.keys());
  captured.append(capture);
  std::stringstream csv;
  TraceCsvWriter(csv, captured.keys()).write(captured.batch());
  const TraceSet reloaded = TraceSet::load_csv(csv);
  ASSERT_EQ(reloaded.size(), n_traces);

  const std::optional<std::size_t> phpc =
      reloaded.key_index(util::FourCc("PHPC"));
  ASSERT_TRUE(phpc.has_value());
  CpaEngine replay_engine(models);
  replay_engine.add_batch(reloaded.batch(), *phpc);

  const auto round_keys = aes::Aes128::expand_key(victim_key);
  const ModelResult live_result =
      live_engine.analyze(power::PowerModel::rd0_hw, round_keys);
  const ModelResult replay_result =
      replay_engine.analyze(power::PowerModel::rd0_hw, round_keys);

  EXPECT_EQ(replay_result.true_ranks, live_result.true_ranks);
  EXPECT_EQ(replay_result.best_round_key, live_result.best_round_key);
  EXPECT_DOUBLE_EQ(replay_result.ge_bits, live_result.ge_bits);
  for (std::size_t i = 0; i < 16; ++i) {
    for (int g = 0; g < 256; ++g) {
      ASSERT_DOUBLE_EQ(
          replay_result.bytes[i].correlation[static_cast<std::size_t>(g)],
          live_result.bytes[i].correlation[static_cast<std::size_t>(g)])
          << "byte " << i << " guess " << g;
    }
  }
}

TEST(SyntheticTraceSource, NoiselessLeakageRecoversFullKey) {
  util::Xoshiro256 rng(15);
  const aes::Block victim_key = random_block(rng);
  // Pure round-0 value leakage: the Rd0-HW model's exact hypothesis.
  power::LeakageConfig leakage{};
  leakage.ark_hw_weight[0] = 1.0;
  leakage.leak_joules_per_bit = 1.0;
  SyntheticTraceSource source(
      {.leakage = leakage, .gain = 1.0, .noise_sigma = 0.0}, victim_key, 16);

  const CpaEngine engine =
      accumulate_cpa(source, util::FourCc("SYNT"),
                     {power::PowerModel::rd0_hw}, 6000, rng);
  const ModelResult result = engine.analyze(
      power::PowerModel::rd0_hw, aes::Aes128::expand_key(victim_key));
  EXPECT_EQ(result.recovered_bytes, 16);
  EXPECT_EQ(result.implied_master_key, victim_key);
}

TEST(SyntheticTraceSource, NoiseDegradesButDefaultProfileStillLeaks) {
  util::Xoshiro256 rng(17);
  const aes::Block victim_key = random_block(rng);
  SyntheticSourceConfig config;  // calibrated Apple-silicon shape
  config.gain = 1.0 / config.leakage.leak_joules_per_bit;
  config.noise_sigma = 10.0;
  SyntheticTraceSource source(config, victim_key, 18);
  const CpaEngine engine =
      accumulate_cpa(source, util::FourCc("SYNT"),
                     {power::PowerModel::rd0_hw}, 30000, rng);
  const ModelResult result = engine.analyze(
      power::PowerModel::rd0_hw, aes::Aes128::expand_key(victim_key));
  EXPECT_LT(result.ge_bits, random_guess_ge_bits() - 5.0);
}

// The base collect() stages one row and calls collect_batch(), so on
// every shipped source collect(pt) must be row t of a collect_batch()
// from a twin built with the same seed, bit for bit. Replay sources
// ignore the staged plaintexts; a finite source must throw once
// exhausted.
void expect_collect_matches_batch(TraceSource& batched, TraceSource& looped,
                                  std::size_t rows, const std::string& what) {
  SCOPED_TRACE(what);
  util::Xoshiro256 batch_rng(21);
  TraceBatch batch(batched.keys().size());
  collect_random_batch(batched, rows, batch_rng, batch);
  ASSERT_EQ(batch.size(), rows);

  util::Xoshiro256 loop_rng(21);
  aes::Block pt;
  for (std::size_t t = 0; t < rows; ++t) {
    loop_rng.fill_bytes(pt);
    const TraceRecord expected = looped.collect(pt);
    EXPECT_EQ(batch.plaintexts()[t], expected.plaintext) << "row " << t;
    EXPECT_EQ(batch.ciphertexts()[t], expected.ciphertext) << "row " << t;
    ASSERT_EQ(expected.values.size(), batch.channels());
    for (std::size_t c = 0; c < batch.channels(); ++c) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(batch.column(c)[t]),
                std::bit_cast<std::uint64_t>(expected.values[c]))
          << "row " << t << " column " << c;
    }
  }
  if (looped.remaining().has_value()) {
    EXPECT_EQ(looped.remaining(), std::optional<std::size_t>(0));
    EXPECT_THROW(looped.collect(pt), std::out_of_range);
  }
}

TEST(TraceSource, BatchedCollectMatchesCollectLoop) {
  util::Xoshiro256 rng(19);
  const aes::Block victim_key = random_block(rng);
  constexpr std::size_t rows = 50;

  power::LeakageConfig leakage{};
  leakage.ark_hw_weight[0] = 1.0;
  leakage.leak_joules_per_bit = 1.0;
  const SyntheticSourceConfig synthetic{.leakage = leakage};
  SyntheticTraceSource synthetic_a(synthetic, victim_key, 20);
  SyntheticTraceSource synthetic_b(synthetic, victim_key, 20);
  expect_collect_matches_batch(synthetic_a, synthetic_b, rows, "synthetic");

  LiveSourceConfig live = m2_user_config();
  live.include_pcpu = true;
  LiveTraceSource live_a(live, victim_key, 20);
  LiveTraceSource live_b(live, victim_key, 20);
  expect_collect_matches_batch(live_a, live_b, rows, "live with PCPU");

  for (const std::string name :
       {"cache-timing", "dvfs-frequency", "sqmul-timing"}) {
    const auto scenario = scenario::ScenarioRegistry::built_in().find(name);
    ASSERT_NE(scenario, nullptr);
    const scenario::ParamSet params = scenario->parse_params({});
    const std::unique_ptr<TraceSource> probe_a =
        scenario->make_source(params, victim_key, 20);
    const std::unique_ptr<TraceSource> probe_b =
        scenario->make_source(params, victim_key, 20);
    expect_collect_matches_batch(*probe_a, *probe_b, rows, name + " probe");
  }

  const std::string path = ::testing::TempDir() + "collect_twins.pstr";
  {
    store::TraceFileWriter writer(
        path, {.channels = synthetic_a.keys(), .chunk_capacity = 8});
    TraceBatch batch(1);
    collect_random_batch(synthetic_a, rows, rng, batch);
    writer.append(batch);
    writer.finalize();
  }
  store::FileTraceSource file_a(path);
  store::FileTraceSource file_b(path);
  expect_collect_matches_batch(file_a, file_b, rows, "PSTR file");
}

TEST(TraceSource, CollectBatchRejectsMisshapenBatch) {
  util::Xoshiro256 rng(30);
  const aes::Block victim_key = random_block(rng);
  SyntheticTraceSource source({}, victim_key, 31);
  TraceBatch batch(3);  // source reports a single channel
  batch.resize(4);
  EXPECT_THROW(source.collect_batch(batch), std::invalid_argument);
}

TEST(TraceSet, CsvRoundTripIsBitExact) {
  util::Xoshiro256 rng(22);
  const aes::Block victim_key = random_block(rng);
  LiveTraceSource source(m2_user_config(), victim_key, 23);
  TraceBatch batch(source.keys().size());
  collect_random_batch(source, 50, rng, batch);
  TraceSet set(source.keys());
  set.append(batch);

  std::stringstream csv;
  TraceCsvWriter(csv, set.keys()).write(set.batch());
  const TraceSet reloaded = TraceSet::load_csv(csv);
  ASSERT_EQ(reloaded.size(), set.size());
  EXPECT_EQ(reloaded.keys(), set.keys());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(reloaded[i].plaintext, set[i].plaintext);
    EXPECT_EQ(reloaded[i].ciphertext, set[i].ciphertext);
    ASSERT_EQ(reloaded[i].values.size(), set[i].values.size());
    for (std::size_t v = 0; v < set[i].values.size(); ++v) {
      ASSERT_EQ(reloaded[i].values[v], set[i].values[v])
          << "trace " << i << " column " << v;
    }
  }
}

TEST(AccumulateCpa, UnknownChannelRejected) {
  util::Xoshiro256 rng(24);
  const aes::Block victim_key = random_block(rng);
  SyntheticTraceSource source({}, victim_key, 25);
  EXPECT_THROW(accumulate_cpa(source, util::FourCc("ZZZZ"),
                              {power::PowerModel::rd0_hw}, 10, rng),
               std::invalid_argument);
}

TEST(AccumulateCpa, EverythingRemainingRequiresFiniteSource) {
  util::Xoshiro256 rng(26);
  const aes::Block victim_key = random_block(rng);
  SyntheticTraceSource unbounded({}, victim_key, 27);
  EXPECT_THROW(accumulate_cpa(unbounded, util::FourCc("SYNT"),
                              {power::PowerModel::rd0_hw}, 0, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace psc::core
