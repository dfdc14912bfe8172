#include "core/cpa.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <span>
#include <vector>

#include "util/rng.h"
#include "util/simd.h"
#include "util/stats.h"

namespace psc::core {
namespace {

aes::Block random_block(util::Xoshiro256& rng) {
  aes::Block b;
  rng.fill_bytes(b);
  return b;
}

TEST(CpaEngine, RejectsEmptyModelList) {
  EXPECT_THROW(CpaEngine({}), std::invalid_argument);
}

TEST(CpaEngine, RejectsUnconfiguredModel) {
  CpaEngine engine({power::PowerModel::rd0_hw});
  EXPECT_THROW(engine.analyze_byte(power::PowerModel::rd10_hw, 0),
               std::invalid_argument);
}

TEST(CpaEngine, TraceCountTracked) {
  CpaEngine engine({power::PowerModel::rd0_hw});
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 5; ++i) {
    engine.add_trace(random_block(rng), random_block(rng), 1.0);
  }
  EXPECT_EQ(engine.trace_count(), 5u);
}

TEST(ByteRanking, RankAndBestGuess) {
  ByteRanking ranking;
  for (int g = 0; g < 256; ++g) {
    ranking.correlation[static_cast<std::size_t>(g)] = -g / 1000.0;
  }
  EXPECT_EQ(ranking.best_guess(), 0);
  EXPECT_EQ(ranking.rank_of(0), 1);
  EXPECT_EQ(ranking.rank_of(5), 6);
  EXPECT_EQ(ranking.rank_of(255), 256);
}

// Each model recovers the key byte it targets when the chip leaks exactly
// its hypothesized intermediate.
class CpaModelRecovery : public ::testing::TestWithParam<power::PowerModel> {
};

TEST_P(CpaModelRecovery, RecoversAllBytesNoiseless) {
  const power::PowerModel model = GetParam();
  util::Xoshiro256 rng(2);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);

  CpaEngine engine({model});
  aes::RoundTrace trace;
  for (int t = 0; t < 6000; ++t) {
    const aes::Block pt = random_block(rng);
    const aes::Block ct = cipher.encrypt_trace(pt, trace);
    double leak = 0.0;
    switch (model) {
      case power::PowerModel::rd0_hw:
        leak = aes::hamming_weight(trace.post_add_round_key[0]);
        break;
      case power::PowerModel::rd10_hw:
        leak = aes::hamming_weight(trace.post_add_round_key[9]);
        break;
      case power::PowerModel::rd10_hd:
        leak = aes::hamming_distance(trace.post_add_round_key[9],
                                     trace.post_add_round_key[10]);
        break;
      case power::PowerModel::rd1_sbox_hw:
        leak = aes::hamming_weight(trace.post_sub_bytes[0]);
        break;
    }
    engine.add_trace(pt, ct, leak);
  }

  const ModelResult result = engine.analyze(model, cipher.round_keys());
  EXPECT_EQ(result.recovered_bytes, 16) << power::power_model_name(model);
  EXPECT_DOUBLE_EQ(result.ge_bits, 0.0);
  EXPECT_DOUBLE_EQ(result.mean_rank, 1.0);
  EXPECT_EQ(result.implied_master_key, key);
}

INSTANTIATE_TEST_SUITE_P(AllModels, CpaModelRecovery,
                         ::testing::ValuesIn(power::all_power_models));

TEST(CpaEngine, RecoversUnderModerateNoise) {
  util::Xoshiro256 rng(3);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);
  CpaEngine engine({power::PowerModel::rd0_hw});
  aes::RoundTrace trace;
  for (int t = 0; t < 40000; ++t) {
    const aes::Block pt = random_block(rng);
    const aes::Block ct = cipher.encrypt_trace(pt, trace);
    const double leak = aes::hamming_weight(trace.post_add_round_key[0]) +
                        rng.gaussian(0.0, 40.0);
    engine.add_trace(pt, ct, leak);
  }
  const ModelResult result =
      engine.analyze(power::PowerModel::rd0_hw, cipher.round_keys());
  EXPECT_GE(result.recovered_bytes, 12);
  EXPECT_LT(result.ge_bits, 12.0);
}

// The histogram decomposition must agree exactly with brute-force
// per-trace correlation.
class CpaHistogramEquivalence
    : public ::testing::TestWithParam<power::PowerModel> {};

TEST_P(CpaHistogramEquivalence, MatchesDirectCorrelation) {
  const power::PowerModel model = GetParam();
  util::Xoshiro256 rng(4);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);

  constexpr int n_traces = 1500;
  std::vector<aes::Block> pts(n_traces);
  std::vector<aes::Block> cts(n_traces);
  std::vector<double> values(n_traces);

  CpaEngine engine({model});
  aes::RoundTrace trace;
  for (int t = 0; t < n_traces; ++t) {
    pts[static_cast<std::size_t>(t)] = random_block(rng);
    cts[static_cast<std::size_t>(t)] =
        cipher.encrypt_trace(pts[static_cast<std::size_t>(t)], trace);
    values[static_cast<std::size_t>(t)] =
        aes::hamming_weight(trace.post_add_round_key[0]) +
        rng.gaussian(0.0, 5.0);
    engine.add_trace(pts[static_cast<std::size_t>(t)],
                     cts[static_cast<std::size_t>(t)],
                     values[static_cast<std::size_t>(t)]);
  }

  for (const std::size_t byte_index : {std::size_t{0}, std::size_t{7}}) {
    const ByteRanking fast = engine.analyze_byte(model, byte_index);
    for (int g = 0; g < 256; g += 13) {
      util::OnlineCorrelation direct;
      for (int t = 0; t < n_traces; ++t) {
        direct.add(
            static_cast<double>(power::predict(
                model, pts[static_cast<std::size_t>(t)],
                cts[static_cast<std::size_t>(t)], byte_index,
                static_cast<std::uint8_t>(g))),
            values[static_cast<std::size_t>(t)]);
      }
      EXPECT_NEAR(fast.correlation[static_cast<std::size_t>(g)],
                  direct.correlation(), 1e-9)
          << power::power_model_name(model) << " byte " << byte_index
          << " guess " << g;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, CpaHistogramEquivalence,
                         ::testing::ValuesIn(power::all_power_models));

TEST(CpaEngine, Round10KeyInversion) {
  // A perfect rd10 recovery must hand back the victim's master key.
  util::Xoshiro256 rng(5);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);
  CpaEngine engine({power::PowerModel::rd10_hw});
  aes::RoundTrace trace;
  for (int t = 0; t < 8000; ++t) {
    const aes::Block pt = random_block(rng);
    const aes::Block ct = cipher.encrypt_trace(pt, trace);
    engine.add_trace(pt, ct,
                     aes::hamming_weight(trace.post_add_round_key[9]));
  }
  const ModelResult result =
      engine.analyze(power::PowerModel::rd10_hw, cipher.round_keys());
  EXPECT_EQ(result.best_round_key, cipher.round_keys()[10]);
  EXPECT_EQ(result.implied_master_key, key);
}

TEST(CpaEngine, NoSignalMeansNoRecovery) {
  util::Xoshiro256 rng(6);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);
  CpaEngine engine({power::PowerModel::rd0_hw});
  for (int t = 0; t < 20000; ++t) {
    const aes::Block pt = random_block(rng);
    engine.add_trace(pt, cipher.encrypt(pt), rng.gaussian(0.0, 1.0));
  }
  const ModelResult result =
      engine.analyze(power::PowerModel::rd0_hw, cipher.round_keys());
  // Pure noise: GE stays near the random-guessing reference.
  EXPECT_GT(result.ge_bits, 80.0);
  EXPECT_LE(result.recovered_bytes, 2);
}

// Sharded-pipeline property: one engine fed N traces must equal K shard
// engines fed N/K traces each and merged, for every model and byte.
class CpaMergeEquivalence
    : public ::testing::TestWithParam<power::PowerModel> {};

TEST_P(CpaMergeEquivalence, ShardsMergeToMonolithicResult) {
  const power::PowerModel model = GetParam();
  util::Xoshiro256 rng(41);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);

  constexpr std::size_t n_traces = 4096;
  constexpr std::size_t n_shards = 4;
  CpaEngine monolithic({model});
  std::vector<CpaEngine> shards;
  for (std::size_t s = 0; s < n_shards; ++s) {
    shards.emplace_back(std::vector<power::PowerModel>{model});
  }

  aes::RoundTrace trace;
  for (std::size_t t = 0; t < n_traces; ++t) {
    const aes::Block pt = random_block(rng);
    const aes::Block ct = cipher.encrypt_trace(pt, trace);
    const double leak = aes::hamming_weight(trace.post_add_round_key[0]) +
                        rng.gaussian(0.0, 3.0);
    monolithic.add_trace(pt, ct, leak);
    shards[t % n_shards].add_trace(pt, ct, leak);
  }

  CpaEngine merged = shards[0].snapshot();
  for (std::size_t s = 1; s < n_shards; ++s) {
    merged.merge(shards[s]);
  }
  EXPECT_EQ(merged.trace_count(), monolithic.trace_count());

  for (std::size_t byte_index = 0; byte_index < 16; ++byte_index) {
    const ByteRanking mono = monolithic.analyze_byte(model, byte_index);
    const ByteRanking shard = merged.analyze_byte(model, byte_index);
    for (int g = 0; g < 256; ++g) {
      ASSERT_NEAR(shard.correlation[static_cast<std::size_t>(g)],
                  mono.correlation[static_cast<std::size_t>(g)], 1e-12)
          << power::power_model_name(model) << " byte " << byte_index
          << " guess " << g;
    }
  }

  const ModelResult mono_result = monolithic.analyze(model,
                                                     cipher.round_keys());
  const ModelResult merged_result = merged.analyze(model,
                                                   cipher.round_keys());
  EXPECT_EQ(merged_result.true_ranks, mono_result.true_ranks);
  EXPECT_EQ(merged_result.best_round_key, mono_result.best_round_key);
  EXPECT_NEAR(merged_result.ge_bits, mono_result.ge_bits, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllModels, CpaMergeEquivalence,
                         ::testing::ValuesIn(power::all_power_models));

// Reference analyze_byte: bins the traces by the model's known byte(s),
// then per guess calls the power::predict_* function once per non-empty
// bin in ascending bin order and sums m * c, m * m * c and m * sum.
std::array<double, 256> per_bin_predictor_correlations(
    power::PowerModel model, std::span<const aes::Block> pts,
    std::span<const aes::Block> cts, std::span<const double> values,
    std::size_t byte_index) {
  util::simd::MomentStripes moments;
  for (std::size_t t = 0; t < values.size(); ++t) {
    util::simd::accumulate_moments(&values[t], 1, t, moments);
  }
  const double n = static_cast<double>(values.size());
  const double sum_t = util::simd::reduce_stripes(moments.sum);
  const double sum_tt = util::simd::reduce_stripes(moments.sumsq);

  const bool pair = model == power::PowerModel::rd10_hd;
  const bool plaintext = power::power_model_inputs(model).uses_plaintext;
  const std::size_t src = aes::shift_rows_source(byte_index);
  std::vector<std::uint32_t> counts(pair ? 65536 : 256, 0);
  std::vector<double> sums(counts.size(), 0.0);
  for (std::size_t t = 0; t < values.size(); ++t) {
    const std::size_t bin =
        pair ? std::size_t{cts[t][byte_index]} * 256 + cts[t][src]
             : (plaintext ? pts[t] : cts[t])[byte_index];
    ++counts[bin];
    sums[bin] += values[t];
  }

  std::array<double, 256> out{};
  for (int g = 0; g < 256; ++g) {
    const auto guess = static_cast<std::uint8_t>(g);
    double sum_m = 0.0;
    double sum_mm = 0.0;
    double sum_mt = 0.0;
    for (std::size_t bin = 0; bin < counts.size(); ++bin) {
      const std::uint32_t c = counts[bin];
      if (c == 0) {
        continue;
      }
      const auto hi = static_cast<std::uint8_t>(bin >> 8);
      const auto lo = static_cast<std::uint8_t>(bin);
      double m = 0.0;
      switch (model) {
        case power::PowerModel::rd0_hw:
          m = power::predict_rd0_hw(lo, guess);
          break;
        case power::PowerModel::rd10_hw:
          m = power::predict_rd10_hw(lo, guess);
          break;
        case power::PowerModel::rd10_hd:
          m = power::predict_rd10_hd(hi, lo, guess);
          break;
        case power::PowerModel::rd1_sbox_hw:
          m = power::predict_rd1_sbox_hw(lo, guess);
          break;
      }
      sum_m += m * c;
      sum_mm += m * m * c;
      sum_mt += m * sums[bin];
    }
    const double cov = n * sum_mt - sum_m * sum_t;
    const double var_m = n * sum_mm - sum_m * sum_m;
    const double var_t = n * sum_tt - sum_t * sum_t;
    out[static_cast<std::size_t>(g)] =
        var_m <= 0.0 || var_t <= 0.0 ? 0.0 : cov / std::sqrt(var_m * var_t);
  }
  return out;
}

// Every model's analyze_byte equals the per-bin predictor loop bit for
// bit, on a sparse histogram (most pair bins empty) and a dense one.
TEST(CpaEngine, AnalyzeMatchesPerBinPredictorBitForBit) {
  for (const std::size_t n_traces : {std::size_t{300}, std::size_t{50000}}) {
    util::Xoshiro256 rng(n_traces);
    aes::Aes128 cipher(random_block(rng));
    std::vector<aes::Block> pts(n_traces);
    std::vector<aes::Block> cts(n_traces);
    std::vector<double> values(n_traces);
    CpaEngine engine({power::all_power_models.begin(),
                      power::all_power_models.end()});
    aes::RoundTrace trace;
    for (std::size_t t = 0; t < n_traces; ++t) {
      pts[t] = random_block(rng);
      cts[t] = cipher.encrypt_trace(pts[t], trace);
      values[t] = aes::hamming_weight(trace.post_add_round_key[0]) +
                  aes::hamming_weight(trace.post_sub_bytes[9]) +
                  rng.gaussian(0.0, 5.0);
      engine.add_trace(pts[t], cts[t], values[t]);
    }
    for (const power::PowerModel model : power::all_power_models) {
      for (std::size_t i = 0; i < 16; ++i) {
        const std::array<double, 256> want =
            per_bin_predictor_correlations(model, pts, cts, values, i);
        const ByteRanking got = engine.analyze_byte(model, i);
        for (std::size_t g = 0; g < 256; ++g) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.correlation[g]),
                    std::bit_cast<std::uint64_t>(want[g]))
              << power::power_model_name(model) << ", " << n_traces
              << " traces, byte " << i << ", guess " << g;
        }
      }
    }
  }
}

TEST(CpaEngine, BatchFeedEqualsLoopFeedBitForBit) {
  util::Xoshiro256 rng(42);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);

  constexpr std::size_t n_traces = 1000;
  std::vector<aes::Block> pts(n_traces);
  std::vector<aes::Block> cts(n_traces);
  std::vector<double> values(n_traces);
  for (std::size_t t = 0; t < n_traces; ++t) {
    pts[t] = random_block(rng);
    cts[t] = cipher.encrypt(pts[t]);
    values[t] = rng.gaussian(2.0, 1.0);
  }

  CpaEngine looped({power::PowerModel::rd0_hw});
  for (std::size_t t = 0; t < n_traces; ++t) {
    looped.add_trace(pts[t], cts[t], values[t]);
  }
  CpaEngine batched({power::PowerModel::rd0_hw});
  batched.add_trace_batch(pts, cts, values);

  EXPECT_EQ(batched.trace_count(), looped.trace_count());
  const ByteRanking a = looped.analyze_byte(power::PowerModel::rd0_hw, 3);
  const ByteRanking b = batched.analyze_byte(power::PowerModel::rd0_hw, 3);
  for (int g = 0; g < 256; ++g) {
    ASSERT_DOUBLE_EQ(a.correlation[static_cast<std::size_t>(g)],
                     b.correlation[static_cast<std::size_t>(g)]);
  }
}

// Satellite: CPA correlations and ranks from every supported SIMD backend
// match the scalar fallback bit-for-bit on the same trace stream, across
// all configured models.
TEST(CpaEngine, AllSimdBackendsMatchScalarBitForBit) {
  namespace simd = util::simd;
  util::Xoshiro256 rng(77);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);

  constexpr std::size_t n_traces = 2000;
  std::vector<aes::Block> pts(n_traces);
  std::vector<aes::Block> cts(n_traces);
  std::vector<double> values(n_traces);
  for (std::size_t t = 0; t < n_traces; ++t) {
    pts[t] = random_block(rng);
    cts[t] = cipher.encrypt(pts[t]);
    values[t] = rng.gaussian(2.0, 1.0);
  }
  const std::vector<power::PowerModel> models = {
      power::PowerModel::rd0_hw, power::PowerModel::rd10_hw,
      power::PowerModel::rd10_hd};
  const auto feed = [&] {
    CpaEngine engine(models);
    // Uneven batch sizes to exercise the kernels' head/body/tail.
    std::size_t i = 0;
    for (const std::size_t len :
         {std::size_t{701}, std::size_t{3}, n_traces - 704}) {
      engine.add_trace_batch(std::span(pts).subspan(i, len),
                             std::span(cts).subspan(i, len),
                             std::span(values).subspan(i, len));
      i += len;
    }
    return engine;
  };
  simd::force_backend(simd::Backend::scalar);
  const CpaEngine reference = feed();
  for (const simd::Backend backend : simd::supported_backends()) {
    simd::force_backend(backend);
    const CpaEngine engine = feed();
    for (const power::PowerModel model : models) {
      for (std::size_t byte = 0; byte < 16; byte += 5) {
        const ByteRanking want = reference.analyze_byte(model, byte);
        const ByteRanking got = engine.analyze_byte(model, byte);
        for (int g = 0; g < 256; ++g) {
          ASSERT_EQ(got.correlation[static_cast<std::size_t>(g)],
                    want.correlation[static_cast<std::size_t>(g)])
              << simd::backend_name(backend) << " byte " << byte
              << " guess " << g;
        }
        ASSERT_EQ(got.rank_of(0x42), want.rank_of(0x42));
      }
    }
  }
  simd::reset_backend();
}

TEST(CpaEngine, MergeRejectsMismatchedModelLists) {
  CpaEngine a({power::PowerModel::rd0_hw});
  CpaEngine b({power::PowerModel::rd10_hw});
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(CpaEngine, MergeIntoEmptyEngineEqualsCopy) {
  util::Xoshiro256 rng(43);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);
  CpaEngine fed({power::PowerModel::rd0_hw});
  for (int t = 0; t < 500; ++t) {
    const aes::Block pt = random_block(rng);
    fed.add_trace(pt, cipher.encrypt(pt), rng.gaussian(0.0, 1.0));
  }
  CpaEngine empty({power::PowerModel::rd0_hw});
  empty.merge(fed);
  const ByteRanking a = fed.analyze_byte(power::PowerModel::rd0_hw, 0);
  const ByteRanking b = empty.analyze_byte(power::PowerModel::rd0_hw, 0);
  for (int g = 0; g < 256; ++g) {
    ASSERT_DOUBLE_EQ(a.correlation[static_cast<std::size_t>(g)],
                     b.correlation[static_cast<std::size_t>(g)]);
  }
}

TEST(CpaEngine, EmptyEngineReturnsZeroCorrelations) {
  CpaEngine engine({power::PowerModel::rd0_hw});
  const ByteRanking ranking =
      engine.analyze_byte(power::PowerModel::rd0_hw, 0);
  for (const double c : ranking.correlation) {
    EXPECT_DOUBLE_EQ(c, 0.0);
  }
}

}  // namespace
}  // namespace psc::core
