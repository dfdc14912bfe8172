#include "power/noise.h"

#include <cmath>

#include "util/simd.h"

#if defined(PSC_SIMD_X86)
#include <immintrin.h>
#endif

namespace psc::power {

double Quantizer::apply(double value) const noexcept {
  if (step_ <= 0.0) {
    return value;
  }
  return std::round(value / step_) * step_;
}

namespace {

#if defined(PSC_SIMD_X86)
// round(x / step) * step on four lanes at a time; returns how many values
// it did (the rest go through the scalar apply).
//
// std::round rounds half away from zero; no AVX rounding mode does. The
// lanes therefore truncate, and move one unit away from zero where the
// dropped fraction |q - trunc(q)| is at least 0.5. That fraction is exact
// for every finite q (below 2^52 it is the low bits of q; from 2^52 on q
// is an integer and the fraction is 0), so each lane equals std::round
// bit for bit, sign of zero included: -0.3 keeps trunc's -0.0, because
// the unit is blended in, not added as +0.0. Infinities give an
// inf - inf = NaN fraction that fails the comparison and stay put; NaN
// propagates.
__attribute__((target("avx2"))) std::size_t quantize_span_avx2(
    double* values, std::size_t n, double step) noexcept {
  const __m256d vstep = _mm256_set1_pd(step);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d q = _mm256_div_pd(_mm256_loadu_pd(values + i), vstep);
    const __m256d r =
        _mm256_round_pd(q, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d fraction = _mm256_andnot_pd(sign, _mm256_sub_pd(q, r));
    const __m256d away = _mm256_cmp_pd(fraction, half, _CMP_GE_OQ);
    const __m256d unit = _mm256_or_pd(_mm256_and_pd(q, sign), one);
    const __m256d rounded =
        _mm256_blendv_pd(r, _mm256_add_pd(r, unit), away);
    _mm256_storeu_pd(values + i, _mm256_mul_pd(rounded, vstep));
  }
  return i;
}
#endif  // PSC_SIMD_X86

}  // namespace

void Quantizer::apply(std::span<double> values) const noexcept {
  if (step_ <= 0.0) {
    return;
  }
  std::size_t i = 0;
#if defined(PSC_SIMD_X86)
  if (util::simd::avx2_active()) {
    i = quantize_span_avx2(values.data(), values.size(), step_);
  }
#endif
  for (; i < values.size(); ++i) {
    values[i] = apply(values[i]);
  }
}

}  // namespace psc::power
