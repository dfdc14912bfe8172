#include "core/cpa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/simd.h"

namespace psc::core {
namespace {

// Pearson correlation of paired samples, computed directly (two passes):
// the brute-force reference. 0 when either side has no variance.
double direct_correlation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mean_x += x[i];
    mean_y += y[i];
  }
  mean_x /= n;
  mean_y /= n;
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mean_x) * (y[i] - mean_y);
    sxx += (x[i] - mean_x) * (x[i] - mean_x);
    syy += (y[i] - mean_y) * (y[i] - mean_y);
  }
  return sxx > 0.0 && syy > 0.0 ? sxy / std::sqrt(sxx * syy) : 0.0;
}

aes::Block random_block(util::Xoshiro256& rng) {
  aes::Block b;
  rng.fill_bytes(b);
  return b;
}

// One trace through the batch path, as a one-row batch.
void add_one(CpaEngine& engine, const aes::Block& pt, const aes::Block& ct,
             double value) {
  engine.add_trace_batch({&pt, 1}, {&ct, 1}, {&value, 1});
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
    add_one(engine, random_block(rng), random_block(rng), 1.0);
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

TEST(ByteRanking, NanRanksLastAndIsNeverBest) {
  ByteRanking ranking;
  for (int g = 0; g < 256; ++g) {
    ranking.correlation[static_cast<std::size_t>(g)] = g / 1000.0;
  }
  ranking.correlation[3] = std::nan("");
  ranking.correlation[255] = std::nan("");
  EXPECT_EQ(ranking.best_guess(), 254);
  EXPECT_EQ(ranking.rank_of(254), 1);
  EXPECT_EQ(ranking.rank_of(0), 254);
  EXPECT_EQ(ranking.rank_of(3), 256);
  EXPECT_EQ(ranking.rank_of(255), 256);

  ranking.correlation.fill(std::nan(""));
  EXPECT_EQ(ranking.best_guess(), 0);
  EXPECT_EQ(ranking.rank_of(0), 256);
}

// One NaN channel value makes every correlation NaN. That is no evidence
// for any guess: on every backend each true key byte ranks last and none
// counts as recovered.
TEST(CpaEngine, NanChannelRecoversNothing) {
  namespace simd = util::simd;
  util::Xoshiro256 rng(2000);
  aes::Aes128 cipher(random_block(rng));
  constexpr std::size_t n_traces = 2000;
  std::vector<aes::Block> pts(n_traces);
  std::vector<aes::Block> cts(n_traces);
  std::vector<double> values(n_traces);
  aes::RoundTrace trace;
  for (std::size_t t = 0; t < n_traces; ++t) {
    pts[t] = random_block(rng);
    cts[t] = cipher.encrypt_trace(pts[t], trace);
    values[t] = aes::hamming_weight(trace.post_add_round_key[0]) +
                rng.gaussian(0.0, 1.0);
  }
  values[7] = std::nan("");
  for (const simd::Backend backend : simd::supported_backends()) {
    simd::force_backend(backend);
    CpaEngine engine({power::PowerModel::rd0_hw});
    engine.add_trace_batch(pts, cts, values);
    const ModelResult result =
        engine.analyze(power::PowerModel::rd0_hw, cipher.round_keys());
    for (std::size_t i = 0; i < 16; ++i) {
      for (const double c : result.bytes[i].correlation) {
        ASSERT_TRUE(std::isnan(c)) << simd::backend_name(backend);
      }
      EXPECT_EQ(result.true_ranks[i], 256) << simd::backend_name(backend);
    }
    EXPECT_EQ(result.recovered_bytes, 0) << simd::backend_name(backend);
    EXPECT_EQ(result.near_recovered_bytes, 0) << simd::backend_name(backend);
    EXPECT_DOUBLE_EQ(result.ge_bits, 128.0) << simd::backend_name(backend);
  }
  simd::reset_backend();
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
    add_one(engine, pt, ct, leak);
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
    add_one(engine, pt, ct, leak);
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
    add_one(engine, pts[static_cast<std::size_t>(t)],
            cts[static_cast<std::size_t>(t)],
            values[static_cast<std::size_t>(t)]);
  }

  for (const std::size_t byte_index : {std::size_t{0}, std::size_t{7}}) {
    const ByteRanking fast = engine.analyze_byte(model, byte_index);
    for (int g = 0; g < 256; g += 13) {
      std::vector<double> predicted(n_traces);
      for (int t = 0; t < n_traces; ++t) {
        predicted[static_cast<std::size_t>(t)] =
            static_cast<double>(power::predict(
                model, pts[static_cast<std::size_t>(t)],
                cts[static_cast<std::size_t>(t)], byte_index,
                static_cast<std::uint8_t>(g)));
      }
      EXPECT_NEAR(fast.correlation[static_cast<std::size_t>(g)],
                  direct_correlation(predicted, values), 1e-9)
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
    add_one(engine, pt, ct, aes::hamming_weight(trace.post_add_round_key[9]));
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
    add_one(engine, pt, cipher.encrypt(pt), rng.gaussian(0.0, 1.0));
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
    add_one(monolithic, pt, ct, leak);
    add_one(shards[t % n_shards], pt, ct, leak);
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

// Reference analyze_byte at one byte position: bins the traces by every
// model's known byte(s), then per guess calls the power::predict_*
// function once per non-empty bin in ascending bin order and sums m * c,
// m * m * c and m * sum. Fed one trace at a time, so a stream of any
// length can be checked without holding it.
class PerBinReference {
 public:
  explicit PerBinReference(std::size_t byte_index)
      : byte_(byte_index), src_(aes::shift_rows_source(byte_index)) {}

  void add(const aes::Block& pt, const aes::Block& ct, double value) {
    util::simd::accumulate_moments(&value, 1, n_++, moments_);
    pt_.add(pt[byte_], value);
    ct_.add(ct[byte_], value);
    pair_.add(std::size_t{ct[byte_]} * 256 + ct[src_], value);
  }

  std::array<double, 256> correlations(power::PowerModel model) const {
    const double n = static_cast<double>(n_);
    const double sum_t = util::simd::reduce_stripes(moments_.sum);
    const double sum_tt = util::simd::reduce_stripes(moments_.sumsq);
    const Bins& bins = model == power::PowerModel::rd10_hd ? pair_
                       : power::power_model_inputs(model).uses_plaintext
                           ? pt_
                           : ct_;
    std::vector<std::size_t> used;  // the non-empty bins, ascending
    for (std::size_t bin = 0; bin < bins.counts.size(); ++bin) {
      if (bins.counts[bin] != 0) {
        used.push_back(bin);
      }
    }
    std::array<double, 256> out{};
    for (int g = 0; g < 256; ++g) {
      const auto guess = static_cast<std::uint8_t>(g);
      double sum_m = 0.0;
      double sum_mm = 0.0;
      double sum_mt = 0.0;
      for (const std::size_t bin : used) {
        const std::uint32_t c = bins.counts[bin];
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
        sum_mt += m * bins.sums[bin];
      }
      const double cov = n * sum_mt - sum_m * sum_t;
      const double var_m = n * sum_mm - sum_m * sum_m;
      const double var_t = n * sum_tt - sum_t * sum_t;
      out[static_cast<std::size_t>(g)] =
          var_m <= 0.0 || var_t <= 0.0 ? 0.0
                                       : cov / std::sqrt(var_m * var_t);
    }
    return out;
  }

  // The largest single-byte bin count, plaintext or ciphertext.
  std::uint32_t max_single_byte_count() const {
    return std::max(*std::max_element(pt_.counts.begin(), pt_.counts.end()),
                    *std::max_element(ct_.counts.begin(), ct_.counts.end()));
  }

 private:
  struct Bins {
    explicit Bins(std::size_t size) : counts(size, 0), sums(size, 0.0) {}
    void add(std::size_t bin, double value) {
      ++counts[bin];
      sums[bin] += value;
    }
    std::vector<std::uint32_t> counts;
    std::vector<double> sums;
  };

  std::size_t byte_;
  std::size_t src_;
  std::uint64_t n_ = 0;
  util::simd::MomentStripes moments_;
  Bins pt_{256};
  Bins ct_{256};
  Bins pair_{65536};
};

void expect_bit_equal(const std::array<double, 256>& want,
                      const ByteRanking& got, const std::string& what) {
  for (std::size_t g = 0; g < 256; ++g) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.correlation[g]),
              std::bit_cast<std::uint64_t>(want[g]))
        << what << ", guess " << g;
  }
}

// Every model's analyze_byte equals the per-bin predictor loop bit for
// bit, with the engine fed on every supported SIMD backend and analyzed on
// every analysis instance the CPU runs (detail::analysis_widths), on:
//  * a sparse histogram (single-byte bins and most pair bins empty);
//  * a dense one;
//  * a channel of negative values, where a bin predicted m = 0 adds
//    0 * sum = -0.0;
//  * engines of zero and one trace (n < 2);
//  * one fixed plaintext, so every trace falls in one bin per position
//    and every guess has var_m = 0;
//  * a channel of -0.0, +0.0 and +-1.0, whose bins collect signed zeros
//    and exactly cancelling sums;
//  * a stream whose fixed-plaintext part puts more than 2^24 traces in
//    one bin per position, checked for every single-byte model.
TEST(CpaEngine, AnalyzeMatchesPerBinPredictorBitForBit) {
  namespace simd = util::simd;
  const std::vector<simd::Backend> backends = simd::supported_backends();
  const std::vector<std::size_t> widths = detail::analysis_widths();
  enum class Channel { leakage, one_bin, signed_zeros };
  struct Case {
    std::size_t traces;
    double offset;
    Channel channel;
  };
  for (const Case c :
       {Case{300, 0.0, Channel::leakage}, Case{50000, 0.0, Channel::leakage},
        Case{1000, -100.0, Channel::leakage}, Case{0, 0.0, Channel::leakage},
        Case{1, 0.0, Channel::leakage}, Case{2000, 0.0, Channel::one_bin},
        Case{3000, 0.0, Channel::signed_zeros}}) {
    util::Xoshiro256 rng(c.traces);
    aes::Aes128 cipher(random_block(rng));
    const aes::Block fixed =
        c.channel == Channel::one_bin ? random_block(rng) : aes::Block{};
    std::vector<aes::Block> pts(c.traces);
    std::vector<aes::Block> cts(c.traces);
    std::vector<double> values(c.traces);
    std::vector<PerBinReference> refs;
    for (std::size_t i = 0; i < 16; ++i) {
      refs.emplace_back(i);
    }
    aes::RoundTrace trace;
    for (std::size_t t = 0; t < c.traces; ++t) {
      pts[t] = c.channel == Channel::one_bin ? fixed : random_block(rng);
      cts[t] = cipher.encrypt_trace(pts[t], trace);
      if (c.channel == Channel::signed_zeros) {
        constexpr std::array<double, 4> zeros_and_ones = {-0.0, 0.0, 1.0,
                                                          -1.0};
        values[t] = zeros_and_ones[rng.uniform_u64(4)];
      } else {
        values[t] = aes::hamming_weight(trace.post_add_round_key[0]) +
                    aes::hamming_weight(trace.post_sub_bytes[9]) +
                    rng.gaussian(0.0, 5.0) + c.offset;
      }
      for (PerBinReference& ref : refs) {
        ref.add(pts[t], cts[t], values[t]);
      }
    }
    std::vector<std::array<double, 256>> want;
    for (const power::PowerModel model : power::all_power_models) {
      for (const PerBinReference& ref : refs) {
        want.push_back(ref.correlations(model));
      }
    }
    for (const simd::Backend backend : backends) {
      simd::force_backend(backend);
      CpaEngine engine({power::all_power_models.begin(),
                        power::all_power_models.end()});
      engine.add_trace_batch(pts, cts, values);
      for (const std::size_t width : widths) {
        std::size_t w = 0;
        for (const power::PowerModel model : power::all_power_models) {
          for (std::size_t i = 0; i < 16; ++i) {
            expect_bit_equal(
                want[w++],
                detail::analyze_byte_at_width(engine, model, i, width),
                std::string(power::power_model_name(model)) + ", " +
                    std::to_string(c.traces) + " traces, offset " +
                    std::to_string(c.offset) + ", channel " +
                    std::to_string(static_cast<int>(c.channel)) + ", " +
                    std::string(simd::backend_name(backend)) + ", width " +
                    std::to_string(width) + ", byte " + std::to_string(i));
          }
        }
      }
    }
    simd::reset_backend();
  }

  // 4096 random-plaintext traces, then 2^24 + 1 of one fixed plaintext in
  // 64k-trace chunks, fed to one engine per backend as they are drawn.
  const std::vector<power::PowerModel> single_byte_models = {
      power::PowerModel::rd0_hw, power::PowerModel::rd10_hw,
      power::PowerModel::rd1_sbox_hw};
  const std::array<std::size_t, 3> positions = {0, 6, 15};
  util::Xoshiro256 rng(24);
  aes::Aes128 cipher(random_block(rng));
  std::vector<CpaEngine> engines(backends.size(),
                                 CpaEngine(single_byte_models));
  std::vector<PerBinReference> refs;
  for (const std::size_t i : positions) {
    refs.emplace_back(i);
  }
  const aes::Block fixed = random_block(rng);
  const aes::Block fixed_ct = cipher.encrypt(fixed);
  constexpr std::size_t random_traces = 4096;
  constexpr std::size_t total = random_traces + (std::size_t{1} << 24) + 1;
  constexpr std::size_t chunk = 65536;
  std::vector<aes::Block> pts;
  std::vector<aes::Block> cts;
  std::vector<double> values;
  for (std::size_t begin = 0; begin < total; begin += chunk) {
    const std::size_t len = std::min(chunk, total - begin);
    pts.resize(len);
    cts.resize(len);
    values.resize(len);
    for (std::size_t t = 0; t < len; ++t) {
      const bool random = begin + t < random_traces;
      pts[t] = random ? random_block(rng) : fixed;
      cts[t] = random ? cipher.encrypt(pts[t]) : fixed_ct;
      values[t] = aes::hamming_weight(pts[t]) - 64.0 +
                  rng.uniform(-10.0, 10.0);
      for (PerBinReference& ref : refs) {
        ref.add(pts[t], cts[t], values[t]);
      }
    }
    for (std::size_t b = 0; b < backends.size(); ++b) {
      simd::force_backend(backends[b]);
      engines[b].add_trace_batch(pts, cts, values);
    }
  }
  simd::reset_backend();
  for (std::size_t p = 0; p < positions.size(); ++p) {
    ASSERT_GT(refs[p].max_single_byte_count(), std::uint32_t{1} << 24);
    for (const power::PowerModel model : single_byte_models) {
      const std::array<double, 256> want = refs[p].correlations(model);
      for (std::size_t b = 0; b < backends.size(); ++b) {
        for (const std::size_t width : widths) {
          expect_bit_equal(
              want,
              detail::analyze_byte_at_width(engines[b], model, positions[p],
                                            width),
              std::string(power::power_model_name(model)) +
                  ", bin above 2^24, " +
                  std::string(simd::backend_name(backends[b])) + ", width " +
                  std::to_string(width) + ", byte " +
                  std::to_string(positions[p]));
        }
      }
    }
  }
}

// Absolute anchor: the FNV-1a digest, per model, of the bit patterns of
// every analyze_byte correlation (16 positions x 256 guesses, in order)
// of one seeded 20,000-trace engine, fed on every supported SIMD backend
// and analyzed on every analysis instance the CPU runs. The per-bin test
// above pins the engine to a reference
// loop; this pins the numbers themselves. After an intentional change to
// them, copy the actual digest from the failure output.
TEST(CpaEngine, AnalyzeDigestsArePinned) {
  namespace simd = util::simd;
  const std::array<std::uint64_t, 4> want = {
      0x37ad55b6e63f4a57ull,  // rd0_hw
      0x2aa3d31e7e836b99ull,  // rd10_hw
      0x7e1b9015a566a013ull,  // rd10_hd
      0xb68b7e7fed9fbf4full,  // rd1_sbox_hw
  };
  constexpr std::size_t n_traces = 20000;
  util::Xoshiro256 rng(35);
  aes::Aes128 cipher(random_block(rng));
  std::vector<aes::Block> pts(n_traces);
  std::vector<aes::Block> cts(n_traces);
  std::vector<double> values(n_traces);
  aes::RoundTrace trace;
  for (std::size_t t = 0; t < n_traces; ++t) {
    pts[t] = random_block(rng);
    cts[t] = cipher.encrypt_trace(pts[t], trace);
    values[t] = aes::hamming_weight(trace.post_add_round_key[0]) +
                aes::hamming_distance(trace.post_add_round_key[9],
                                      trace.post_add_round_key[10]) +
                rng.gaussian(0.0, 8.0);
  }
  for (const simd::Backend backend : simd::supported_backends()) {
    simd::force_backend(backend);
    CpaEngine engine({power::all_power_models.begin(),
                      power::all_power_models.end()});
    engine.add_trace_batch(pts, cts, values);
    for (const std::size_t width : detail::analysis_widths()) {
      for (std::size_t m = 0; m < power::all_power_models.size(); ++m) {
        const power::PowerModel model = power::all_power_models[m];
        std::uint64_t hash = 0xcbf29ce484222325ull;
        for (std::size_t i = 0; i < 16; ++i) {
          for (const double c :
               detail::analyze_byte_at_width(engine, model, i, width)
                   .correlation) {
            const auto bits = std::bit_cast<std::uint64_t>(c);
            for (int b = 0; b < 8; ++b) {
              hash =
                  (hash ^ ((bits >> (8 * b)) & 0xffu)) * 0x100000001b3ull;
            }
          }
        }
        char actual[32];
        std::snprintf(actual, sizeof actual, "0x%016llx",
                      static_cast<unsigned long long>(hash));
        EXPECT_EQ(hash, want[m])
            << power::power_model_name(model) << " on "
            << simd::backend_name(backend) << ", width " << width
            << ": actual digest " << actual;
      }
    }
  }
  simd::reset_backend();
}

// The transform behind the single-byte models' exact sums needs each
// prediction table to be an XOR shift of its guess-0 row:
// T(g, v) = T(0, v ^ g) for every guess g and known byte v.
TEST(CpaEngine, SingleByteModelTablesAreXorShifts) {
  for (const auto predict :
       {power::predict_rd0_hw, power::predict_rd10_hw,
        power::predict_rd1_sbox_hw}) {
    for (int g = 0; g < 256; ++g) {
      for (int v = 0; v < 256; ++v) {
        ASSERT_EQ(predict(static_cast<std::uint8_t>(v),
                          static_cast<std::uint8_t>(g)),
                  predict(static_cast<std::uint8_t>(v ^ g), 0))
            << "guess " << g << ", byte " << v;
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
    add_one(looped, pts[t], cts[t], values[t]);
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
    add_one(fed, pt, cipher.encrypt(pt), rng.gaussian(0.0, 1.0));
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
