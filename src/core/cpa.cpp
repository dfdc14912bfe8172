#include "core/cpa.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "aes/sbox.h"
#include "core/guessing_entropy.h"

namespace psc::core {

namespace {

// Vec<T, W>: W lanes of T as one GCC/Clang vector. The analysis below is
// written once over these and instantiated at W = 2 (SSE2 on x86-64, NEON
// on AArch64), 4 (AVX2) and 8 (AVX-512F); the compiler lowers each
// operation to the widest registers its instance may use. Lane arithmetic
// is elementwise IEEE multiply, add, divide and sqrt, each correctly
// rounded and never fused (-ffp-contract=off), and integer add, subtract
// and multiply modulo 2^64, so every lane computes exactly what a scalar
// loop would, at every W. Explicit specializations: GCC ignores
// vector_size on a type that depends on a template parameter.
template <typename T, std::size_t W>
struct VecType;
#define PSC_CPA_VEC(T, W)                                              \
  template <>                                                          \
  struct VecType<T, W> {                                               \
    using type = T __attribute__((vector_size(W * sizeof(T))));        \
  }
PSC_CPA_VEC(double, 2);
PSC_CPA_VEC(double, 4);
PSC_CPA_VEC(double, 8);
PSC_CPA_VEC(std::int64_t, 2);
PSC_CPA_VEC(std::int64_t, 4);
PSC_CPA_VEC(std::int64_t, 8);
PSC_CPA_VEC(std::uint64_t, 2);
PSC_CPA_VEC(std::uint64_t, 4);
PSC_CPA_VEC(std::uint64_t, 8);
#undef PSC_CPA_VEC
template <typename T, std::size_t W>
using Vec = typename VecType<T, W>::type;

// The body's functions are always inlined, so each instance's wrapper
// compiles all of it under the wrapper's target ISA.
#define PSC_CPA_INLINE [[gnu::always_inline]] inline

// A 256-point integer vector in Walsh-Hadamard (XOR-convolution) space.
using Spectrum = std::array<std::int64_t, 256>;

// A 256-point vector of integers modulo 2^64.
using RingSpectrum = std::array<std::uint64_t, 256>;

// In-place unnormalized Walsh-Hadamard transform. Applying it twice
// multiplies by 256, and it turns XOR convolution into a pointwise
// product: WHT(a * b) = WHT(a) . WHT(b), where (a * b)[g] is
// sum_v a[v] b[v ^ g]. On uint64 it runs modulo 2^64, and at every W it
// gives the same values: only the order of the integer stages differs.
// The log2 W stages inside a vector pair lane j with lane j ^ h by a
// shuffle and keep x + y in the low lane and x - y in the high one; the
// others run between whole vectors.
template <std::size_t W, typename T>
PSC_CPA_INLINE void walsh_hadamard(std::array<T, 256>& a) noexcept {
  using V = Vec<T, W>;
  using Mask = Vec<std::int64_t, W>;
  constexpr std::size_t n = 256 / W;
  V v[n];
  std::memcpy(v, a.data(), sizeof v);
  for (std::size_t h = 1; h < W; h <<= 1) {
    Mask partner;
    Mask pick;
    for (std::size_t j = 0; j < W; ++j) {
      partner[j] = static_cast<std::int64_t>(j ^ h);
      pick[j] = static_cast<std::int64_t>((j & h) != 0 ? W + j : j);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const V t = __builtin_shuffle(v[i], partner);
      v[i] = __builtin_shuffle(v[i] + t, t - v[i], pick);
    }
  }
  for (std::size_t h = 1; h < n; h <<= 1) {
    for (std::size_t i = 0; i < n; i += 2 * h) {
      for (std::size_t j = i; j < i + h; ++j) {
        const V x = v[j];
        v[j] = x + v[j + h];
        v[j + h] = x - v[j + h];
      }
    }
  }
  std::memcpy(a.data(), v, sizeof v);
}

// Guesses per row group of the transposed prediction tables.
constexpr std::size_t guess_block = 8;

// Tables of a model whose prediction for known byte v under lane x is
// f(v ^ x), built once per process on first use from f(x) = Predictor(x,
// 0). For the single-byte models the lane is the guess; for Rd10-HD it is
// the last-round input byte and f is the Hamming weight.
struct SingleByteTables {
  // WHT of f and of f^2: the exact integer sums of m and m^2 over a count
  // histogram are XOR convolutions of the counts with these.
  Spectrum m_spectrum{};
  Spectrum mm_spectrum{};
  // The prediction table transposed so that a group of eight guesses'
  // lanes are contiguous doubles. With x = v ^ g0 for a group starting at
  // g0 (a multiple of 8), lane j predicts f(x ^ j), and x ^ j keeps the
  // high five bits of x: lanes[x & 7][(x & ~7) + j] = f(x ^ j). Eight
  // 256-entry rows (16 KB) thus cover all 256 x 256 (v, g) pairs, and
  // row 0 is f itself.
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
    walsh_hadamard<2>(t.m_spectrum);
    walsh_hadamard<2>(t.mm_spectrum);
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

// Rd10-HD's weight HW(lri ^ ct_src) as a predictor of lane lri.
int byte_weight(std::uint8_t x, std::uint8_t g) noexcept {
  return aes::hamming_weight(static_cast<std::uint8_t>(x ^ g));
}

// The tables of a single-byte model.
const SingleByteTables& tables_of(power::PowerModel model) {
  switch (model) {
    case power::PowerModel::rd0_hw:
      return single_byte_tables<power::predict_rd0_hw>();
    case power::PowerModel::rd1_sbox_hw:
      return single_byte_tables<power::predict_rd1_sbox_hw>();
    case power::PowerModel::rd10_hw:
      return single_byte_tables<power::predict_rd10_hw>();
    case power::PowerModel::rd10_hd:
      break;  // pair_sums
  }
  throw std::invalid_argument("CpaEngine: not a single-byte model");
}

// Rd10-HD's exact sum_m and sum_mm as XOR convolutions over the 256
// pair-histogram rows. Row ct_i with counts c (over ct_src) gives guess
// g the row term sum_s c[s] f(lri ^ s), lri = InvSBox(ct_i ^ g), with f
// = HW or HW^2. In Walsh-Hadamard space that is
//   (1/256) sum_k WHT(c)[k] WHT(f)[k] chi_k(lri),
// where chi_k(x) = (-1)^popcount(k & x) and WHT(f) vanishes above
// weight 1 (HW) or 2 (HW^2). So only the 37 coefficients of weight <= 2
// of each row matter, and for each such k the sum over rows,
//   sum_ct_i V_k[ct_i] phi_k(ct_i ^ g),  V_k[ct_i] = WHT(c_ct_i)[k],
//   phi_k(u) = chi_k(InvSBox(u)),
// is an XOR convolution over ct_i. Hence
//   65536 sum_mm = WHT(sum_k WHT(V_k) . mm[k]),
//   mm[k] = WHT(HW^2)[k] WHT(phi_k),
// and likewise sum_m with m[k] over the 9 terms of weight <= 1. The
// arithmetic runs modulo 2^64: each step is a ring operation, and
// 65536 sum_mm <= 2^16 * 64 n stays below 2^62 for n <= max_exact_traces,
// so the residues are the exact sums, which are below 2^53 and convert
// to the doubles a per-bin loop would sum.
struct PairSpectra {
  static constexpr std::size_t terms = 37;        // weight <= 2
  static constexpr std::size_t linear_terms = 9;  // weight <= 1, first
  std::array<std::uint8_t, terms> index{};
  std::array<RingSpectrum, linear_terms> m{};
  std::array<RingSpectrum, terms> mm{};
};

const PairSpectra& pair_spectra() {
  static const PairSpectra spectra = [] {
    PairSpectra p;
    std::size_t i = 0;
    for (const int weight : {0, 1, 2}) {
      for (std::size_t k = 0; k < 256; ++k) {
        if (std::popcount(k) == weight) {
          p.index[i++] = static_cast<std::uint8_t>(k);
        }
      }
    }
    const SingleByteTables& weights = single_byte_tables<byte_weight>();
    for (i = 0; i < PairSpectra::terms; ++i) {
      const std::size_t k = p.index[i];
      RingSpectrum phi;
      for (std::size_t u = 0; u < 256; ++u) {
        phi[u] = std::popcount(k & aes::inv_sbox[u]) % 2 == 0
                     ? 1
                     : ~std::uint64_t{0};
      }
      walsh_hadamard<2>(phi);
      for (std::size_t u = 0; u < 256; ++u) {
        p.mm[i][u] =
            static_cast<std::uint64_t>(weights.mm_spectrum[k]) * phi[u];
        if (i < PairSpectra::linear_terms) {
          p.m[i][u] =
              static_cast<std::uint64_t>(weights.m_spectrum[k]) * phi[u];
        }
      }
    }
    return p;
  }();
  return spectra;
}

// The three correlation sums of all 256 guesses at one byte position.
struct GuessSums {
  alignas(64) std::array<double, 256> m{};
  alignas(64) std::array<double, 256> mm{};
  alignas(64) std::array<double, 256> mt{};
};

// acc[j] += f(v ^ g0 ^ j) * hist_sum[v] for v = 0 .. 255 in ascending
// order and the 8W lanes j of the block at g0 (a multiple of 8W), each
// lane a separate multiply-then-add chain: the per-guess loop's order.
// Vector k holds lanes Wk .. Wk + W - 1, which lie in the eight-guess
// group b = Wk / 8 at offset Wk % 8. Group b of x = v ^ g0 predicts
// f(y ^ j) with y = x ^ 8b, which the lanes table holds at
// lanes[x & 7][(y & ~7) + j], and y & ~7 is
// (x & ~(8W - 1)) + ((x & (8W - 8)) ^ 8b): one aligned load per vector.
// Empty bins are not skipped: their sum is +0.0, m >= 0 makes every such
// term +0.0, and a chain that starts at +0.0 never becomes -0.0, so the
// extra terms leave every lane unchanged.
template <std::size_t W>
PSC_CPA_INLINE void block_sum_mt(const SingleByteTables& tables,
                                 const double* hist_sum, std::size_t g0,
                                 double* acc) noexcept {
  using V = Vec<double, W>;
  constexpr std::size_t block = guess_block * W;
  V a[8];
  std::memcpy(a, acc, sizeof a);
  // v = high + mid + low runs in ascending order; with mid unrolled,
  // every load offset is a constant.
  for (std::size_t high = 0; high < 256; high += block) {
    const std::size_t x_high = high ^ g0;  // x & ~(8W - 1)
#pragma GCC unroll 8
    for (std::size_t mid = 0; mid < block; mid += 8) {  // x & (8W - 8)
#pragma GCC unroll 1
      for (std::size_t low = 0; low < 8; ++low) {  // x & 7
        const double* row = &tables.lanes[low][x_high];
        const double s = hist_sum[high + mid + low];
#pragma GCC unroll 8
        for (std::size_t k = 0; k < 8; ++k) {
          const std::size_t b = W * k / 8;
          a[k] += *reinterpret_cast<const V*>(row + (mid ^ (8 * b)) +
                                              W * k % 8) *
                  s;
        }
      }
    }
  }
  std::memcpy(acc, a, sizeof a);
}

// sum_m, sum_mm and sum_mt of every guess for a single-byte model over
// one position's 256-bin histogram.
template <std::size_t W>
PSC_CPA_INLINE void single_byte_sums(const SingleByteTables& tables,
                                     const std::uint32_t* hist_count,
                                     const double* hist_sum,
                                     GuessSums& sums) {
  // 256 times sum_m[g] = sum_v c[v] f(v ^ g), and likewise sum_mm with
  // f^2: exact int64 XOR convolutions. Every partial stays at or below
  // 256 * N * 2^14 for N counted traces (|WHT(c)| <= N,
  // |WHT(f^2)| <= 256 * 64), which max_exact_traces (2^40) keeps below
  // 2^62, and the results below 2^53, so each converts to the double a
  // per-bin loop would sum.
  Spectrum sum_m;
  Spectrum sum_mm;
  for (std::size_t v = 0; v < 256; ++v) {
    sum_m[v] = hist_count[v];
  }
  walsh_hadamard<W>(sum_m);
  for (std::size_t k = 0; k < 256; ++k) {
    sum_mm[k] = sum_m[k] * tables.mm_spectrum[k];
    sum_m[k] *= tables.m_spectrum[k];
  }
  walsh_hadamard<W>(sum_m);
  walsh_hadamard<W>(sum_mm);
  for (std::size_t g = 0; g < 256; ++g) {
    sums.m[g] = static_cast<double>(sum_m[g] / 256);
    sums.mm[g] = static_cast<double>(sum_mm[g] / 256);
  }
  for (std::size_t g0 = 0; g0 < 256; g0 += guess_block * W) {
    block_sum_mt<W>(tables, hist_sum, g0, &sums.mt[g0]);
  }
}

// The same for Rd10-HD over one position's 65536-bin pair histogram.
template <std::size_t W>
PSC_CPA_INLINE void pair_sums(const std::uint32_t* counts,
                              const double* bin_sums, GuessSums& sums) {
  // HW(lri ^ ct_src) is f(ct_src ^ lri) with f the Hamming weight, so a
  // pair-histogram row is a single-byte histogram whose lane is lri.
  const SingleByteTables& weights = single_byte_tables<byte_weight>();

  // Exact integer sum_m and sum_mm (see PairSpectra), with every row's
  // spectrum taken once.
  const PairSpectra& spectra = pair_spectra();
  std::array<RingSpectrum, PairSpectra::terms> rows{};
  std::array<bool, 256> row_used{};
  for (std::size_t ct_i = 0; ct_i < 256; ++ct_i) {
    const std::uint32_t* row = counts + ct_i * 256;
    row_used[ct_i] =
        std::any_of(row, row + 256, [](std::uint32_t c) { return c != 0; });
    if (!row_used[ct_i]) {
      continue;
    }
    RingSpectrum c;
    std::copy(row, row + 256, c.begin());
    walsh_hadamard<W>(c);
    for (std::size_t i = 0; i < PairSpectra::terms; ++i) {
      rows[i][ct_i] = c[spectra.index[i]];
    }
  }
  RingSpectrum sum_m{};
  RingSpectrum sum_mm{};
  for (std::size_t i = 0; i < PairSpectra::terms; ++i) {
    walsh_hadamard<W>(rows[i]);
    for (std::size_t k = 0; k < 256; ++k) {
      sum_mm[k] += rows[i][k] * spectra.mm[i][k];
    }
    if (i < PairSpectra::linear_terms) {
      for (std::size_t k = 0; k < 256; ++k) {
        sum_m[k] += rows[i][k] * spectra.m[i][k];
      }
    }
  }
  walsh_hadamard<W>(sum_m);
  walsh_hadamard<W>(sum_mm);
  for (std::size_t g = 0; g < 256; ++g) {
    sums.m[g] = static_cast<double>(sum_m[g] >> 16);
    sums.mm[g] = static_cast<double>(sum_mm[g] >> 16);
  }

  // Per row, a block of 8W consecutive lri values runs as one
  // block_sum_mt pass over that row's bins; lane lri belongs to guess
  // SBox(lri) ^ ct_i, whose chain is gathered in and scattered back.
  // Rows run in ascending ct_i and bins in ascending ct_src, so every
  // guess adds its bins in ascending pair order. Empty rows add only +0.0
  // terms (see block_sum_mt) and are skipped.
  constexpr std::size_t block = guess_block * W;
  alignas(64) std::array<double, block> chains;
  for (std::size_t ct_i = 0; ct_i < 256; ++ct_i) {
    if (!row_used[ct_i]) {
      continue;
    }
    for (std::size_t l0 = 0; l0 < 256; l0 += block) {
      for (std::size_t j = 0; j < block; ++j) {
        chains[j] = sums.mt[aes::sbox[l0 + j] ^ ct_i];
      }
      block_sum_mt<W>(weights, bin_sums + ct_i * 256, l0, chains.data());
      for (std::size_t j = 0; j < block; ++j) {
        sums.mt[aes::sbox[l0 + j] ^ ct_i] = chains[j];
      }
    }
  }
}

// Pearson correlation cov / sqrt(var_m * var_t) of every guess, W per
// vector, or 0 where either variance is <= 0. The compares are ordered,
// so a NaN variance gives NaN, as a scalar `if (var <= 0)` would.
template <std::size_t W>
PSC_CPA_INLINE void finish(double n, double sum_t, double sum_tt,
                           const GuessSums& sums,
                           std::array<double, 256>& out) noexcept {
  using V = Vec<double, W>;
  const double var_t = n * sum_tt - sum_t * sum_t;
  if (var_t <= 0.0) {
    out.fill(0.0);
    return;
  }
  for (std::size_t g = 0; g < 256; g += W) {
    const V m = *reinterpret_cast<const V*>(&sums.m[g]);
    const V mm = *reinterpret_cast<const V*>(&sums.mm[g]);
    const V mt = *reinterpret_cast<const V*>(&sums.mt[g]);
    const V cov = n * mt - m * sum_t;
    const V var_m = n * mm - m * m;
    V root = var_m * var_t;
    // Per lane: GCC has no vector sqrt for a generic vector, and under
    // -fmath-errno it keeps the loop scalar.
    for (std::size_t j = 0; j < W; ++j) {
      root[j] = std::sqrt(root[j]);
    }
    const V r = cov / root;
    const V zero = {};
    const V c = var_m <= 0.0 ? zero : r;
    std::memcpy(&out[g], &c, sizeof c);
  }
}

// One byte position's histogram and the channel's moments.
struct ByteInput {
  power::PowerModel model;
  const std::uint32_t* counts;
  const double* sums;
  double n;
  double sum_t;
  double sum_tt;
};

// The analysis of one byte position at W lanes.
template <std::size_t W>
PSC_CPA_INLINE void analyze(const ByteInput& in, ByteRanking& out) {
  GuessSums sums;
  if (in.model == power::PowerModel::rd10_hd) {
    pair_sums<W>(in.counts, in.sums, sums);
  } else {
    single_byte_sums<W>(tables_of(in.model), in.counts, in.sums, sums);
  }
  finish<W>(in.n, in.sum_t, in.sum_tt, sums, out.correlation);
}

// The instances, one per ISA. The baseline runs under PSC_SIMD=scalar,
// in PSC_FORCE_SCALAR builds and on every CPU; `native` runs the widest
// the CPU has.
void analyze_x2(const ByteInput& in, ByteRanking& out) { analyze<2>(in, out); }
#if defined(PSC_SIMD_X86)
__attribute__((target("avx2"))) void analyze_x4(const ByteInput& in,
                                                ByteRanking& out) {
  analyze<4>(in, out);
}
__attribute__((target("avx512f"))) void analyze_x8(const ByteInput& in,
                                                   ByteRanking& out) {
  analyze<8>(in, out);
}
#endif

// detail::analysis_widths(), taken once; `native` runs the last.
const std::vector<std::size_t>& cpu_widths() {
  static const std::vector<std::size_t> widths = detail::analysis_widths();
  return widths;
}

#undef PSC_CPA_INLINE

}  // namespace

int ByteRanking::rank_of(std::uint8_t candidate) const noexcept {
  const double own = correlation[candidate];
  // A NaN correlation is no evidence for its guess: it ranks last. (Every
  // comparison with NaN is false, so it would otherwise rank first.)
  if (std::isnan(own)) {
    return 256;
  }
  int rank = 1;
  for (int g = 0; g < 256; ++g) {
    if (g != candidate && correlation[static_cast<std::size_t>(g)] > own) {
      ++rank;
    }
  }
  return rank;
}

std::uint8_t ByteRanking::best_guess() const noexcept {
  // The first largest correlation, skipping NaN; guess 0 if all are NaN.
  std::size_t best = 0;
  bool found = false;
  for (std::size_t g = 0; g < 256; ++g) {
    if (!std::isnan(correlation[g]) &&
        (!found || correlation[g] > correlation[best])) {
      best = g;
      found = true;
    }
  }
  return static_cast<std::uint8_t>(best);
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
  return detail::analyze_byte_at_width(
      *this, model, byte_index,
      util::simd::active_backend() == util::simd::Backend::scalar
          ? 2
          : cpu_widths().back());
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

namespace detail {

std::vector<std::size_t> analysis_widths() {
  std::vector<std::size_t> widths = {2};
#if defined(PSC_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) {
    widths.push_back(4);
  }
  if (__builtin_cpu_supports("avx512f")) {
    widths.push_back(8);
  }
#endif
  return widths;
}

ByteRanking analyze_byte_at_width(const CpaEngine& engine,
                                  power::PowerModel model,
                                  std::size_t byte_index, std::size_t width) {
  const std::vector<std::size_t>& widths = cpu_widths();
  if (std::find(widths.begin(), widths.end(), width) == widths.end()) {
    throw std::invalid_argument("CpaEngine: no analysis instance of width " +
                                std::to_string(width));
  }
  if (!engine.has_model(model)) {
    throw std::invalid_argument("CpaEngine: model not configured");
  }
  ByteRanking out;
  if (engine.n_ < 2) {
    return out;
  }
  if (engine.n_ > CpaEngine::max_exact_traces) {
    throw std::overflow_error(
        "CpaEngine::analyze_byte: trace count beyond the exact-sum bound");
  }
  ByteInput in{model,
               nullptr,
               nullptr,
               static_cast<double>(engine.n_),
               util::simd::reduce_stripes(engine.moments_.sum),
               util::simd::reduce_stripes(engine.moments_.sumsq)};
  if (model == power::PowerModel::rd10_hd) {
    in.counts = &engine.pair_count_[byte_index * 65536];
    in.sums = &engine.pair_sum_[byte_index * 65536];
  } else if (power::power_model_inputs(model).uses_plaintext) {
    in.counts = &engine.pt_count_[byte_index * 256];
    in.sums = &engine.pt_sum_[byte_index * 256];
  } else {
    in.counts = &engine.ct_count_[byte_index * 256];
    in.sums = &engine.ct_sum_[byte_index * 256];
  }
  switch (width) {
#if defined(PSC_SIMD_X86)
    case 8:
      analyze_x8(in, out);
      break;
    case 4:
      analyze_x4(in, out);
      break;
#endif
    default:
      analyze_x2(in, out);
      break;
  }
  return out;
}

}  // namespace detail

}  // namespace psc::core
