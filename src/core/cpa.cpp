#include "core/cpa.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "aes/sbox.h"
#include "core/guessing_entropy.h"

namespace psc::core {

namespace {

// Pearson correlation from accumulated sums.
double correlation_from_sums(double n, double sum_m, double sum_mm,
                             double sum_mt, double sum_t,
                             double sum_tt) noexcept {
  const double cov = n * sum_mt - sum_m * sum_t;
  const double var_m = n * sum_mm - sum_m * sum_m;
  const double var_t = n * sum_tt - sum_t * sum_t;
  if (var_m <= 0.0 || var_t <= 0.0) {
    return 0.0;
  }
  return cov / std::sqrt(var_m * var_t);
}

// A 256-point integer vector in Walsh-Hadamard (XOR-convolution) space.
using Spectrum = std::array<std::int64_t, 256>;

// In-place unnormalized Walsh-Hadamard transform. Applying it twice
// multiplies by 256, and it turns XOR convolution into a pointwise
// product: WHT(a * b) = WHT(a) . WHT(b), where (a * b)[g] is
// sum_v a[v] b[v ^ g].
void walsh_hadamard(Spectrum& a) noexcept {
  for (std::size_t h = 1; h < a.size(); h <<= 1) {
    for (std::size_t i = 0; i < a.size(); i += 2 * h) {
      for (std::size_t j = i; j < i + h; ++j) {
        const std::int64_t x = a[j];
        const std::int64_t y = a[j + h];
        a[j] = x + y;
        a[j + h] = x - y;
      }
    }
  }
}

// Guesses scored per pass over a byte position's bins: eight independent
// sum_mt chains, one per lane.
constexpr std::size_t guess_block = 8;

// Two guess lanes as one GCC/Clang vector (SSE2 on x86-64, NEON on
// AArch64). Lane arithmetic is elementwise IEEE multiply and add, two
// roundings under -ffp-contract=off, so each lane computes exactly what a
// scalar chain would.
using LanePair = double __attribute__((vector_size(16)));

// Tables of a single-byte model whose prediction for known byte v under
// guess g is f(v ^ g), built once per process on first use from
// f(x) = Predictor(x, 0).
struct SingleByteTables {
  // WHT of f and of f^2: the exact integer sums of m and m^2 over a count
  // histogram are XOR convolutions of the counts with these.
  Spectrum m_spectrum{};
  Spectrum mm_spectrum{};
  // The prediction table transposed so that a guess block's eight lanes
  // are contiguous doubles. With x = v ^ g0 for a block starting at
  // g0 (a multiple of 8), lane j predicts f(x ^ j), and x ^ j keeps the
  // high five bits of x: lanes[x & 7][(x & ~7) + j] = f(x ^ j). Eight
  // 256-entry rows (16 KB) thus cover all 256 x 256 (v, g) pairs.
  alignas(64) std::array<std::array<double, 256>, guess_block> lanes{};
};

template <int (*Predictor)(std::uint8_t, std::uint8_t)>
const SingleByteTables& single_byte_tables() {
  static const SingleByteTables tables = [] {
    SingleByteTables t;
    std::array<int, 256> f{};
    for (std::size_t x = 0; x < 256; ++x) {
      f[x] = Predictor(static_cast<std::uint8_t>(x), 0);
      t.m_spectrum[x] = f[x];
      t.mm_spectrum[x] = f[x] * f[x];
    }
    walsh_hadamard(t.m_spectrum);
    walsh_hadamard(t.mm_spectrum);
    for (std::size_t b = 0; b < guess_block; ++b) {
      for (std::size_t x = 0; x < 256; ++x) {
        t.lanes[b][x] =
            f[(x & ~(guess_block - 1)) | ((x ^ b) & (guess_block - 1))];
      }
    }
    return t;
  }();
  return tables;
}

// sum_mt of guesses g0 .. g0 + 7 (g0 a multiple of 8): each lane adds
// m * sum over the bins in ascending v, exactly the per-guess loop's
// order, with the eight lanes in four independent vector chains.
// Kept out of line: inlined into analyze_byte, GCC spills two of the
// four accumulators to the stack.
[[gnu::noinline]] std::array<double, guess_block> block_sum_mt(
    const SingleByteTables& tables, const double* hist_sum,
    std::size_t g0) noexcept {
  LanePair a0 = {};
  LanePair a1 = {};
  LanePair a2 = {};
  LanePair a3 = {};
  for (std::size_t v = 0; v < 256; ++v) {
    const std::size_t x = v ^ g0;
    const LanePair* m = reinterpret_cast<const LanePair*>(
        &tables.lanes[x & (guess_block - 1)][x & ~(guess_block - 1)]);
    const LanePair s = {hist_sum[v], hist_sum[v]};
    a0 += m[0] * s;
    a1 += m[1] * s;
    a2 += m[2] * s;
    a3 += m[3] * s;
  }
  return {a0[0], a0[1], a1[0], a1[1], a2[0], a2[1], a3[0], a3[1]};
}

// Hamming weight of every byte value: Rd10-HD's HW(lri ^ ct_src).
constexpr std::array<std::uint8_t, 256> byte_weights = [] {
  std::array<std::uint8_t, 256> w{};
  for (std::size_t b = 0; b < 256; ++b) {
    w[b] = static_cast<std::uint8_t>(
        aes::hamming_weight(static_cast<std::uint8_t>(b)));
  }
  return w;
}();

}  // namespace

int ByteRanking::rank_of(std::uint8_t candidate) const noexcept {
  const double own = correlation[candidate];
  int rank = 1;
  for (int g = 0; g < 256; ++g) {
    if (g != candidate && correlation[static_cast<std::size_t>(g)] > own) {
      ++rank;
    }
  }
  return rank;
}

std::uint8_t ByteRanking::best_guess() const noexcept {
  return static_cast<std::uint8_t>(
      std::max_element(correlation.begin(), correlation.end()) -
      correlation.begin());
}

CpaEngine::CpaEngine(std::vector<power::PowerModel> models)
    : models_(std::move(models)) {
  if (models_.empty()) {
    throw std::invalid_argument("CpaEngine: need at least one model");
  }
  for (const power::PowerModel model : models_) {
    const auto inputs = power::power_model_inputs(model);
    if (inputs.uses_plaintext) {
      need_pt_hist_ = true;
    } else if (inputs.uses_ciphertext_pair) {
      need_pair_hist_ = true;
    } else {
      need_ct_hist_ = true;
    }
  }
  if (need_pt_hist_) {
    pt_count_.assign(16 * 256, 0);
    pt_sum_.assign(16 * 256, 0.0);
  }
  if (need_ct_hist_) {
    ct_count_.assign(16 * 256, 0);
    ct_sum_.assign(16 * 256, 0.0);
  }
  if (need_pair_hist_) {
    pair_count_.assign(16 * 65536, 0);
    pair_sum_.assign(16 * 65536, 0.0);
  }
}

bool CpaEngine::has_model(power::PowerModel model) const noexcept {
  return std::find(models_.begin(), models_.end(), model) != models_.end();
}

void CpaEngine::add_trace_batch(std::span<const aes::Block> plaintexts,
                                std::span<const aes::Block> ciphertexts,
                                std::span<const double> values) {
  if (plaintexts.size() != ciphertexts.size() ||
      plaintexts.size() != values.size()) {
    throw std::invalid_argument("CpaEngine::add_trace_batch: span length "
                                "mismatch");
  }
  const std::size_t n = values.size();
  if (n == 0) {
    return;
  }
  util::simd::accumulate_moments(values.data(), n, n_, moments_);
  n_ += n;
  // Histogram updates go through the dispatched kernel. aes::Block is a
  // packed std::array<uint8_t, 16>, so a Block span is exactly the
  // 16-bytes-per-trace layout accumulate_histogram16 consumes. Per bin,
  // values arrive in trace order in both SIMD modes, so the sums are
  // bit-identical to the per-trace path.
  if (need_pt_hist_) {
    util::simd::accumulate_histogram16(plaintexts.data()->data(),
                                       values.data(), n, pt_count_.data(),
                                       pt_sum_.data());
  }
  if (need_ct_hist_) {
    util::simd::accumulate_histogram16(ciphertexts.data()->data(),
                                       values.data(), n, ct_count_.data(),
                                       ct_sum_.data());
  }
  if (need_pair_hist_) {
    for (std::size_t i = 0; i < 16; ++i) {
      const std::size_t src = aes::shift_rows_source(i);
      std::uint32_t* counts = &pair_count_[i * 65536];
      double* sums = &pair_sum_[i * 65536];
      for (std::size_t t = 0; t < n; ++t) {
        const std::size_t bin =
            static_cast<std::size_t>(ciphertexts[t][i]) * 256 +
            ciphertexts[t][src];
        ++counts[bin];
        sums[bin] += values[t];
      }
    }
  }
}

void CpaEngine::merge(const CpaEngine& other) {
  if (models_ != other.models_) {
    throw std::invalid_argument("CpaEngine::merge: model lists differ");
  }
  // Rotate other's stripes to where its values would have landed in the
  // concatenated stream (uses n_ before the count update).
  util::simd::merge_moments(moments_, n_, other.moments_);
  n_ += other.n_;
  for (std::size_t b = 0; b < pt_count_.size(); ++b) {
    pt_count_[b] += other.pt_count_[b];
    pt_sum_[b] += other.pt_sum_[b];
  }
  for (std::size_t b = 0; b < ct_count_.size(); ++b) {
    ct_count_[b] += other.ct_count_[b];
    ct_sum_[b] += other.ct_sum_[b];
  }
  for (std::size_t b = 0; b < pair_count_.size(); ++b) {
    pair_count_[b] += other.pair_count_[b];
    pair_sum_[b] += other.pair_sum_[b];
  }
}

ByteRanking CpaEngine::analyze_byte(power::PowerModel model,
                                    std::size_t byte_index) const {
  if (!has_model(model)) {
    throw std::invalid_argument("CpaEngine: model not configured");
  }
  ByteRanking out;
  if (n_ < 2) {
    return out;
  }
  const double n = static_cast<double>(n_);
  const double sum_t = util::simd::reduce_stripes(moments_.sum);
  const double sum_tt = util::simd::reduce_stripes(moments_.sumsq);

  const auto inputs = power::power_model_inputs(model);
  if (inputs.uses_ciphertext_pair) {
    const std::uint32_t* counts = &pair_count_[byte_index * 65536];
    const double* sums = &pair_sum_[byte_index * 65536];
    for (int g = 0; g < 256; ++g) {
      double sum_m = 0.0;
      double sum_mm = 0.0;
      double sum_mt = 0.0;
      for (int ct_i = 0; ct_i < 256; ++ct_i) {
        const std::size_t row = static_cast<std::size_t>(ct_i) * 256;
        // The last-round input byte is fixed for the whole row.
        const std::uint8_t lri =
            aes::inv_sbox[static_cast<std::uint8_t>(ct_i ^ g)];
        for (std::size_t ct_src = 0; ct_src < 256; ++ct_src) {
          const std::uint32_t c = counts[row + ct_src];
          if (c == 0) {
            continue;
          }
          const double m = byte_weights[lri ^ ct_src];
          sum_m += m * c;
          sum_mm += m * m * c;
          sum_mt += m * sums[row + ct_src];
        }
      }
      out.correlation[static_cast<std::size_t>(g)] =
          correlation_from_sums(n, sum_m, sum_mm, sum_mt, sum_t, sum_tt);
    }
    return out;
  }

  const std::uint32_t* hist_count =
      inputs.uses_plaintext ? &pt_count_[byte_index * 256]
                            : &ct_count_[byte_index * 256];
  const double* hist_sum = inputs.uses_plaintext
                               ? &pt_sum_[byte_index * 256]
                               : &ct_sum_[byte_index * 256];
  const SingleByteTables* tables = nullptr;
  switch (model) {
    case power::PowerModel::rd0_hw:
      tables = &single_byte_tables<power::predict_rd0_hw>();
      break;
    case power::PowerModel::rd1_sbox_hw:
      tables = &single_byte_tables<power::predict_rd1_sbox_hw>();
      break;
    case power::PowerModel::rd10_hw:
      tables = &single_byte_tables<power::predict_rd10_hw>();
      break;
    case power::PowerModel::rd10_hd:
      break;  // handled above
  }
  if (n_ > max_exact_traces) {
    throw std::overflow_error(
        "CpaEngine::analyze_byte: trace count beyond the exact-sum bound");
  }

  // sum_m[g] = sum_v c[v] f(v ^ g) and sum_mm[g] likewise with f^2, as
  // exact int64 XOR convolutions. Every partial stays at or below
  // 256 * n * 2^14 (|WHT(c)| <= n, |WHT(f^2)| <= 256 * 64), which
  // max_exact_traces (2^40) keeps below 2^62; the results stay below
  // 2^53, so each converts to the double a per-bin loop would sum.
  Spectrum sum_m;
  for (std::size_t v = 0; v < 256; ++v) {
    sum_m[v] = hist_count[v];
  }
  walsh_hadamard(sum_m);
  Spectrum sum_mm;
  for (std::size_t k = 0; k < 256; ++k) {
    sum_mm[k] = sum_m[k] * tables->mm_spectrum[k];
    sum_m[k] *= tables->m_spectrum[k];
  }
  walsh_hadamard(sum_m);
  walsh_hadamard(sum_mm);

  // sum_mt for a block of eight guesses per pass. Each lane adds m * sum
  // over the bins in ascending v, exactly the per-guess loop's order.
  // Empty bins are not skipped: their sum is +0.0, m >= 0 makes every
  // such term +0.0, and a sum that starts at +0.0 never becomes -0.0, so
  // the extra terms leave every lane unchanged.
  for (std::size_t g0 = 0; g0 < 256; g0 += guess_block) {
    const std::array<double, guess_block> sum_mt =
        block_sum_mt(*tables, hist_sum, g0);
    for (std::size_t j = 0; j < guess_block; ++j) {
      const std::size_t g = g0 + j;
      out.correlation[g] = correlation_from_sums(
          n, static_cast<double>(sum_m[g] / 256),
          static_cast<double>(sum_mm[g] / 256), sum_mt[j], sum_t, sum_tt);
    }
  }
  return out;
}

ModelResult CpaEngine::analyze(
    power::PowerModel model,
    const std::array<aes::Block, aes::num_rounds + 1>& true_round_keys)
    const {
  ModelResult result;
  result.model = model;
  for (std::size_t i = 0; i < 16; ++i) {
    result.bytes[i] = analyze_byte(model, i);
    const std::uint8_t truth =
        power::true_key_byte(model, true_round_keys, i);
    result.scored_key[i] = truth;
    result.true_ranks[i] = result.bytes[i].rank_of(truth);
    result.best_round_key[i] = result.bytes[i].best_guess();
    if (result.true_ranks[i] == 1) {
      ++result.recovered_bytes;
    }
    if (result.true_ranks[i] <= 10) {
      ++result.near_recovered_bytes;
    }
  }
  result.ge_bits = guessing_entropy_bits(result.true_ranks);
  result.mean_rank = mean_rank(result.true_ranks);
  result.implied_master_key =
      power::recovered_round(model) == 0
          ? result.best_round_key
          : aes::Aes128::master_key_from_round10(result.best_round_key);
  return result;
}

}  // namespace psc::core
