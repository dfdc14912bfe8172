#include "core/cpa.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "aes/sbox.h"
#include "core/guessing_entropy.h"

#if defined(PSC_SIMD_X86)
#include <immintrin.h>
#endif

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
// sum_v a[v] b[v ^ g]. On uint64 it runs modulo 2^64.
template <typename T>
void walsh_hadamard(std::array<T, 256>& a) noexcept {
  for (std::size_t h = 1; h < a.size(); h <<= 1) {
    for (std::size_t i = 0; i < a.size(); i += 2 * h) {
      for (std::size_t j = i; j < i + h; ++j) {
        const T x = a[j];
        const T y = a[j + h];
        a[j] = x + y;
        a[j + h] = x - y;
      }
    }
  }
}

#if defined(PSC_SIMD_X86)
// walsh_hadamard of 256 64-bit integers on AVX-512, all 32 zmm registers
// of them at once: the three in-register stages by lane permutes, the
// five others between registers. Integer add and subtract in another
// stage order, so every value is the portable body's (modulo 2^64 for
// uint64, exactly for the bounded int64 uses). The full-mask maskz
// permutes keep GCC from seeing an uninitialized pass-through operand.
template <typename T>
__attribute__((target("avx512f"))) void wide_walsh_hadamard(
    std::array<T, 256>& a) noexcept {
  static_assert(sizeof(T) == 8);
  __m512i* p = reinterpret_cast<__m512i*>(a.data());
  __m512i v[32];
#pragma GCC unroll 32
  for (std::size_t i = 0; i < 32; ++i) {
    v[i] = _mm512_loadu_si512(p + i);
    __m512i t = _mm512_maskz_permutex_epi64(0xff, v[i], 0xb1);  // j ^ 1
    v[i] = _mm512_mask_blend_epi64(0xaa, _mm512_add_epi64(v[i], t),
                                   _mm512_sub_epi64(t, v[i]));
    t = _mm512_maskz_permutex_epi64(0xff, v[i], 0x4e);  // j ^ 2
    v[i] = _mm512_mask_blend_epi64(0xcc, _mm512_add_epi64(v[i], t),
                                   _mm512_sub_epi64(t, v[i]));
    t = _mm512_maskz_shuffle_i64x2(0xff, v[i], v[i], 0x4e);  // j ^ 4
    v[i] = _mm512_mask_blend_epi64(0xf0, _mm512_add_epi64(v[i], t),
                                   _mm512_sub_epi64(t, v[i]));
  }
#pragma GCC unroll 5
  for (std::size_t h = 1; h < 32; h <<= 1) {
#pragma GCC unroll 32
    for (std::size_t j = 0; j < 32; ++j) {
      if ((j & h) == 0) {
        const __m512i x = v[j];
        v[j] = _mm512_add_epi64(x, v[j + h]);
        v[j + h] = _mm512_sub_epi64(x, v[j + h]);
      }
    }
  }
#pragma GCC unroll 32
  for (std::size_t i = 0; i < 32; ++i) {
    _mm512_storeu_si512(p + i, v[i]);
  }
}
#endif  // PSC_SIMD_X86

// walsh_hadamard on the AVX-512 body when `wide`.
template <typename T>
void walsh_hadamard(std::array<T, 256>& a, bool wide) noexcept {
#if defined(PSC_SIMD_X86)
  if (wide) {
    wide_walsh_hadamard(a);
    return;
  }
#endif
  (void)wide;
  walsh_hadamard(a);
}

// Guesses scored per pass over a byte position's bins by the portable
// body: eight independent sum_mt chains, one per lane.
constexpr std::size_t guess_block = 8;

// Two guess lanes as one GCC/Clang vector (SSE2 on x86-64, NEON on
// AArch64). Lane arithmetic is elementwise IEEE multiply and add, two
// roundings under -ffp-contract=off, so each lane computes exactly what a
// scalar chain would.
using LanePair = double __attribute__((vector_size(16)));

// Tables of a model whose prediction for known byte v under lane x is
// f(v ^ x), built once per process on first use from f(x) = Predictor(x,
// 0). For the single-byte models the lane is the guess; for Rd10-HD it is
// the last-round input byte and f is the Hamming weight.
struct SingleByteTables {
  // WHT of f and of f^2: the exact integer sums of m and m^2 over a count
  // histogram are XOR convolutions of the counts with these.
  Spectrum m_spectrum{};
  Spectrum mm_spectrum{};
  // The prediction table transposed so that a guess block's eight lanes
  // are contiguous doubles. With x = v ^ g0 for a block starting at
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

// Rd10-HD's weight HW(lri ^ ct_src) as a predictor of lane lri.
int byte_weight(std::uint8_t x, std::uint8_t g) noexcept {
  return aes::hamming_weight(static_cast<std::uint8_t>(x ^ g));
}

// 256 times sum_v counts[v] f(v ^ x) into sum_m[x], and likewise with f^2
// into sum_mm[x]: exact int64 XOR convolutions. Every partial stays at or
// below 256 * N * 2^14 for N counted traces (|WHT(c)| <= N,
// |WHT(f^2)| <= 256 * 64), which max_exact_traces (2^40) keeps below
// 2^62.
void xor_convolve(const std::uint32_t* counts, const SingleByteTables& t,
                  bool wide, Spectrum& sum_m, Spectrum& sum_mm) noexcept {
  for (std::size_t v = 0; v < 256; ++v) {
    sum_m[v] = counts[v];
  }
  walsh_hadamard(sum_m, wide);
  for (std::size_t k = 0; k < 256; ++k) {
    sum_mm[k] = sum_m[k] * t.mm_spectrum[k];
    sum_m[k] *= t.m_spectrum[k];
  }
  walsh_hadamard(sum_m, wide);
  walsh_hadamard(sum_mm, wide);
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

// A 256-point vector of integers modulo 2^64.
using RingSpectrum = std::array<std::uint64_t, 256>;

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
      walsh_hadamard(phi);
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

// The three correlation sums of all 256 guesses at one byte position,
// laid out for the vector finish.
struct GuessSums {
  alignas(64) std::array<double, 256> m{};
  alignas(64) std::array<double, 256> mm{};
  alignas(64) std::array<double, 256> mt{};
};

#if defined(PSC_SIMD_X86)
// Guesses scored per pass by the AVX-512 body: eight zmm chains of eight.
constexpr std::size_t wide_block = 64;

// The AVX-512 bodies run unless dispatch is pinned to the portable ones
// (PSC_SIMD=scalar or util::simd::force_backend(Backend::scalar)).
bool use_avx512() noexcept {
  static const bool cpu_has_avx512 = __builtin_cpu_supports("avx512f") != 0;
  return cpu_has_avx512 &&
         util::simd::active_backend() != util::simd::Backend::scalar;
}

// acc[j] += f(v ^ g0 ^ j) * hist_sum[v] for v = 0 .. 255 in ascending
// order and the 64 lanes j of the block at g0 (a multiple of 64), each
// lane a separate multiply-then-add chain, as block_sum_mt's. Lane
// 8b + j of x = v ^ g0 predicts f(y ^ j) with y = x ^ 8b, which the lanes
// table holds at lanes[x & 7][(y & ~7) + j], and y & ~7 is
// (x & ~63) + ((x & 56) ^ 8b): one aligned load per sub-block.
__attribute__((target("avx512f"))) void wide_block_sum_mt(
    const SingleByteTables& tables, const double* hist_sum, std::size_t g0,
    double* acc) noexcept {
  __m512d a[8];
#pragma GCC unroll 8
  for (std::size_t b = 0; b < 8; ++b) {
    a[b] = _mm512_load_pd(acc + 8 * b);
  }
  // v = high + mid + low runs in ascending order; with mid unrolled,
  // every sub-block offset is a constant.
  for (std::size_t high = 0; high < 256; high += 64) {
    const std::size_t x_high = high ^ g0;  // x & ~63
#pragma GCC unroll 8
    for (std::size_t mid = 0; mid < 64; mid += 8) {  // x & 56
#pragma GCC unroll 1
      for (std::size_t low = 0; low < 8; ++low) {  // x & 7
        const double* row = &tables.lanes[low][x_high];
        const __m512d s = _mm512_set1_pd(hist_sum[high + mid + low]);
#pragma GCC unroll 8
        for (std::size_t b = 0; b < 8; ++b) {
          a[b] = _mm512_add_pd(
              a[b], _mm512_mul_pd(_mm512_load_pd(row + (mid ^ (8 * b))), s));
        }
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t b = 0; b < 8; ++b) {
    _mm512_store_pd(acc + 8 * b, a[b]);
  }
}

// correlation_from_sums for all 256 guesses, eight per vector, with the
// same operations in the same order. `var_m <= 0.0` is an ordered
// compare, so a NaN variance yields NaN here as in the scalar finish.
__attribute__((target("avx512f"))) void wide_finish(
    double n, double sum_t, double sum_tt, const GuessSums& sums,
    std::array<double, 256>& out) noexcept {
  const double var_t = n * sum_tt - sum_t * sum_t;
  const __m512d vn = _mm512_set1_pd(n);
  const __m512d vt = _mm512_set1_pd(sum_t);
  const __m512d vvar_t = _mm512_set1_pd(var_t);
  const __m512d zero = _mm512_setzero_pd();
  const __mmask8 t_flat = var_t <= 0.0 ? 0xff : 0x00;
  for (std::size_t g = 0; g < 256; g += 8) {
    const __m512d m = _mm512_load_pd(&sums.m[g]);
    const __m512d mm = _mm512_load_pd(&sums.mm[g]);
    const __m512d mt = _mm512_load_pd(&sums.mt[g]);
    const __m512d cov =
        _mm512_sub_pd(_mm512_mul_pd(vn, mt), _mm512_mul_pd(m, vt));
    const __m512d var_m =
        _mm512_sub_pd(_mm512_mul_pd(vn, mm), _mm512_mul_pd(m, m));
    // The full-mask maskz form: the unmasked _mm512_sqrt_pd leaves GCC's
    // pass-through operand formally uninitialized (-Wuninitialized).
    const __m512d r = _mm512_div_pd(
        cov, _mm512_maskz_sqrt_pd(0xff, _mm512_mul_pd(var_m, vvar_t)));
    const __mmask8 flat =
        _mm512_cmp_pd_mask(var_m, zero, _CMP_LE_OQ) | t_flat;
    _mm512_storeu_pd(&out[g], _mm512_mask_blend_pd(flat, r, zero));
  }
}
#endif  // PSC_SIMD_X86

// sum_m, sum_mm and sum_mt of every guess for a single-byte model over
// one position's 256-bin histogram.
void single_byte_sums(power::PowerModel model, const std::uint32_t* hist_count,
                      const double* hist_sum, bool wide, GuessSums& sums) {
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
      break;  // pair_sums
  }

  // sum_m[g] = sum_v c[v] f(v ^ g) and sum_mm[g] likewise with f^2. The
  // results stay below 2^53, so each converts to the double a per-bin
  // loop would sum.
  Spectrum sum_m;
  Spectrum sum_mm;
  xor_convolve(hist_count, *tables, wide, sum_m, sum_mm);
  for (std::size_t g = 0; g < 256; ++g) {
    sums.m[g] = static_cast<double>(sum_m[g] / 256);
    sums.mm[g] = static_cast<double>(sum_mm[g] / 256);
  }

  // sum_mt a block of guesses per pass. Each lane adds m * sum over the
  // bins in ascending v, exactly the per-guess loop's order. Empty bins
  // are not skipped: their sum is +0.0, m >= 0 makes every such term
  // +0.0, and a sum that starts at +0.0 never becomes -0.0, so the extra
  // terms leave every lane unchanged.
#if defined(PSC_SIMD_X86)
  if (wide) {
    for (std::size_t g0 = 0; g0 < 256; g0 += wide_block) {
      wide_block_sum_mt(*tables, hist_sum, g0, &sums.mt[g0]);
    }
    return;
  }
#endif
  (void)wide;
  for (std::size_t g0 = 0; g0 < 256; g0 += guess_block) {
    const std::array<double, guess_block> block =
        block_sum_mt(*tables, hist_sum, g0);
    std::copy(block.begin(), block.end(), sums.mt.begin() + g0);
  }
}

// The same for Rd10-HD over one position's 65536-bin pair histogram.
void pair_sums(const std::uint32_t* counts, const double* bin_sums, bool wide,
               GuessSums& sums) {
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
    walsh_hadamard(c, wide);
    for (std::size_t i = 0; i < PairSpectra::terms; ++i) {
      rows[i][ct_i] = c[spectra.index[i]];
    }
  }
  RingSpectrum sum_m{};
  RingSpectrum sum_mm{};
  for (std::size_t i = 0; i < PairSpectra::terms; ++i) {
    walsh_hadamard(rows[i], wide);
    for (std::size_t k = 0; k < 256; ++k) {
      sum_mm[k] += rows[i][k] * spectra.mm[i][k];
    }
    if (i < PairSpectra::linear_terms) {
      for (std::size_t k = 0; k < 256; ++k) {
        sum_m[k] += rows[i][k] * spectra.m[i][k];
      }
    }
  }
  walsh_hadamard(sum_m, wide);
  walsh_hadamard(sum_mm, wide);
  for (std::size_t g = 0; g < 256; ++g) {
    sums.m[g] = static_cast<double>(sum_m[g] >> 16);
    sums.mm[g] = static_cast<double>(sum_mm[g] >> 16);
  }

#if defined(PSC_SIMD_X86)
  if (wide) {
    // Per row, a block of 64 consecutive lri values runs as one wide
    // pass over that row's bins; lane lri belongs to guess
    // SBox(lri) ^ ct_i, whose chain is gathered in and scattered back.
    // Rows run in ascending ct_i and bins in ascending ct_src, the
    // per-guess loop's order. Empty bins (and rows) add +0.0 terms, as
    // in single_byte_sums, so they need no skip.
    alignas(64) std::array<double, wide_block> chains;
    for (std::size_t ct_i = 0; ct_i < 256; ++ct_i) {
      if (!row_used[ct_i]) {
        continue;
      }
      for (std::size_t l0 = 0; l0 < 256; l0 += wide_block) {
        for (std::size_t j = 0; j < wide_block; ++j) {
          chains[j] = sums.mt[aes::sbox[l0 + j] ^ ct_i];
        }
        wide_block_sum_mt(weights, bin_sums + ct_i * 256, l0,
                          chains.data());
        for (std::size_t j = 0; j < wide_block; ++j) {
          sums.mt[aes::sbox[l0 + j] ^ ct_i] = chains[j];
        }
      }
    }
    return;
  }
#endif
  (void)wide;
  const std::array<double, 256>& weight = weights.lanes[0];
  for (std::size_t g = 0; g < 256; ++g) {
    double sum_mt = 0.0;
    for (std::size_t ct_i = 0; ct_i < 256; ++ct_i) {
      const std::size_t row = ct_i * 256;
      // The last-round input byte is fixed for the whole row.
      const std::uint8_t lri = aes::inv_sbox[ct_i ^ g];
      for (std::size_t ct_src = 0; ct_src < 256; ++ct_src) {
        if (counts[row + ct_src] == 0) {
          continue;
        }
        sum_mt += weight[lri ^ ct_src] * bin_sums[row + ct_src];
      }
    }
    sums.mt[g] = sum_mt;
  }
}

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
  if (!has_model(model)) {
    throw std::invalid_argument("CpaEngine: model not configured");
  }
  ByteRanking out;
  if (n_ < 2) {
    return out;
  }
  if (n_ > max_exact_traces) {
    throw std::overflow_error(
        "CpaEngine::analyze_byte: trace count beyond the exact-sum bound");
  }
  const double n = static_cast<double>(n_);
  const double sum_t = util::simd::reduce_stripes(moments_.sum);
  const double sum_tt = util::simd::reduce_stripes(moments_.sumsq);
#if defined(PSC_SIMD_X86)
  const bool wide = use_avx512();
#else
  constexpr bool wide = false;
#endif

  GuessSums sums;
  if (model == power::PowerModel::rd10_hd) {
    pair_sums(&pair_count_[byte_index * 65536],
              &pair_sum_[byte_index * 65536], wide, sums);
  } else if (power::power_model_inputs(model).uses_plaintext) {
    single_byte_sums(model, &pt_count_[byte_index * 256],
                     &pt_sum_[byte_index * 256], wide, sums);
  } else {
    single_byte_sums(model, &ct_count_[byte_index * 256],
                     &ct_sum_[byte_index * 256], wide, sums);
  }

#if defined(PSC_SIMD_X86)
  if (wide) {
    wide_finish(n, sum_t, sum_tt, sums, out.correlation);
    return out;
  }
#endif
  for (std::size_t g = 0; g < 256; ++g) {
    out.correlation[g] = correlation_from_sums(
        n, sums.m[g], sums.mm[g], sums.mt[g], sum_t, sum_tt);
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
