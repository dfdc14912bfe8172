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

// Hypothesis table of a single-byte model, built once per process on
// first use: entry g * 256 + v is Predictor(v, g), the prediction for
// known byte v under guess g. uint8_t entries keep it at 64 KB.
template <int (*Predictor)(std::uint8_t, std::uint8_t)>
const std::uint8_t* hypothesis_table() {
  static const std::array<std::uint8_t, 256 * 256> table = [] {
    std::array<std::uint8_t, 256 * 256> t{};
    for (std::size_t g = 0; g < 256; ++g) {
      for (std::size_t v = 0; v < 256; ++v) {
        t[g * 256 + v] = static_cast<std::uint8_t>(
            Predictor(static_cast<std::uint8_t>(v),
                      static_cast<std::uint8_t>(g)));
      }
    }
    return t;
  }();
  return table.data();
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

void CpaEngine::add_trace(const aes::Block& plaintext,
                          const aes::Block& ciphertext,
                          double value) noexcept {
  // Stripe by the global trace index (n_ before this trace) so per-trace
  // and batch feeding build identical moment state.
  util::simd::accumulate_moments(&value, 1, n_, moments_);
  ++n_;
  if (need_pt_hist_) {
    for (std::size_t i = 0; i < 16; ++i) {
      const std::size_t bin = i * 256 + plaintext[i];
      ++pt_count_[bin];
      pt_sum_[bin] += value;
    }
  }
  if (need_ct_hist_) {
    for (std::size_t i = 0; i < 16; ++i) {
      const std::size_t bin = i * 256 + ciphertext[i];
      ++ct_count_[bin];
      ct_sum_[bin] += value;
    }
  }
  if (need_pair_hist_) {
    for (std::size_t i = 0; i < 16; ++i) {
      const std::size_t bin =
          i * 65536 +
          static_cast<std::size_t>(ciphertext[i]) * 256 +
          ciphertext[aes::shift_rows_source(i)];
      ++pair_count_[bin];
      pair_sum_[bin] += value;
    }
  }
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
  // values arrive in trace order on every backend, so the sums are
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
  const std::uint8_t* table = nullptr;
  switch (model) {
    case power::PowerModel::rd0_hw:
      table = hypothesis_table<power::predict_rd0_hw>();
      break;
    case power::PowerModel::rd1_sbox_hw:
      table = hypothesis_table<power::predict_rd1_sbox_hw>();
      break;
    case power::PowerModel::rd10_hw:
      table = hypothesis_table<power::predict_rd10_hw>();
      break;
    case power::PowerModel::rd10_hd:
      break;  // handled above
  }
  for (std::size_t g = 0; g < 256; ++g) {
    const std::uint8_t* predictions = table + g * 256;
    double sum_m = 0.0;
    double sum_mm = 0.0;
    double sum_mt = 0.0;
    for (std::size_t v = 0; v < 256; ++v) {
      const std::uint32_t c = hist_count[v];
      if (c == 0) {
        continue;
      }
      const double m = predictions[v];
      sum_m += m * c;
      sum_mm += m * m * c;
      sum_mt += m * hist_sum[v];
    }
    out.correlation[g] =
        correlation_from_sums(n, sum_m, sum_mm, sum_mt, sum_t, sum_tt);
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
