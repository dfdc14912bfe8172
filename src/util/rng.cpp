#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/simd.h"

#if defined(PSC_SIMD_X86)
#include <immintrin.h>
#endif

namespace psc::util {

namespace {

// The polar method's last step for `pairs` accepted candidates: factor
// f = sqrt(-2 ln s / s), deviates u*f then v*f, interleaved into `out`.
void polar_finish_scalar(const double* u, const double* v, const double* s,
                         const double* log_s, std::size_t pairs,
                         double* out) noexcept {
  for (std::size_t k = 0; k < pairs; ++k) {
    const double factor = std::sqrt(-2.0 * log_s[k] / s[k]);
    out[2 * k] = u[k] * factor;
    out[2 * k + 1] = v[k] * factor;
  }
}

#if defined(PSC_SIMD_X86)
// Four pairs per step: the same multiply, divide, square root and
// multiplies as the scalar body, each correctly rounded per lane. Returns
// how many pairs it did.
__attribute__((target("avx2"))) std::size_t polar_finish_avx2(
    const double* u, const double* v, const double* s, const double* log_s,
    std::size_t pairs, double* out) noexcept {
  const __m256d minus_two = _mm256_set1_pd(-2.0);
  std::size_t k = 0;
  for (; k + 4 <= pairs; k += 4) {
    const __m256d factor = _mm256_sqrt_pd(
        _mm256_div_pd(_mm256_mul_pd(minus_two, _mm256_loadu_pd(log_s + k)),
                      _mm256_loadu_pd(s + k)));
    const __m256d du = _mm256_mul_pd(_mm256_loadu_pd(u + k), factor);
    const __m256d dv = _mm256_mul_pd(_mm256_loadu_pd(v + k), factor);
    const __m256d lo = _mm256_unpacklo_pd(du, dv);  // u0 v0 u2 v2
    const __m256d hi = _mm256_unpackhi_pd(du, dv);  // u1 v1 u3 v3
    _mm256_storeu_pd(out + 2 * k, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(out + 2 * k + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }
  return k;
}
#endif  // PSC_SIMD_X86

void polar_finish(const double* u, const double* v, const double* s,
                  const double* log_s, std::size_t pairs,
                  double* out) noexcept {
  std::size_t k = 0;
#if defined(PSC_SIMD_X86)
  if (util::simd::avx2_active()) {
    k = polar_finish_avx2(u, v, s, log_s, pairs, out);
  }
#endif
  polar_finish_scalar(u + k, v + k, s + k, log_s + k, pairs - k, out + 2 * k);
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : state_) {
    word = sm();
  }
}

double Xoshiro256::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

std::uint64_t Xoshiro256::uniform_u64(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method with rejection.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Xoshiro256::gaussian_pair() noexcept {
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

void Xoshiro256::fill_gaussian(std::span<double> out) noexcept {
  double* dst = out.data();
  std::size_t left = out.size();
  if (left > 0 && has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    *dst++ = cached_gaussian_;
    --left;
  }
  // Accepted pairs per block: small enough to stay on the stack.
  constexpr std::size_t block = 64;
  std::array<double, block> u;
  std::array<double, block> v;
  std::array<double, block> s;
  std::array<double, block> log_s;
  std::array<std::uint64_t, 4> state = state_;
  while (left > 0) {
    const std::size_t pairs = std::min(block, (left + 1) / 2);
    // The candidate is always written and kept only when accepted, the
    // rejection test of gaussian() without a branch.
    for (std::size_t k = 0; k < pairs;) {
      const double cu = -1.0 + 2.0 * unit_interval(next(state));
      const double cv = -1.0 + 2.0 * unit_interval(next(state));
      const double cs = cu * cu + cv * cv;
      u[k] = cu;
      v[k] = cv;
      s[k] = cs;
      k += static_cast<std::size_t>(!((cs >= 1.0) | (cs == 0.0)));
    }
    for (std::size_t k = 0; k < pairs; ++k) {
      log_s[k] = std::log(s[k]);
    }
    const std::size_t full = std::min(pairs, left / 2);
    polar_finish(u.data(), v.data(), s.data(), log_s.data(), full, dst);
    if (full < pairs) {
      // One deviate wanted from the last pair: the other is cached, as
      // gaussian() leaves it.
      const double factor = std::sqrt(-2.0 * log_s[full] / s[full]);
      dst[2 * full] = u[full] * factor;
      cached_gaussian_ = v[full] * factor;
      has_cached_gaussian_ = true;
    }
    const std::size_t written = std::min(2 * pairs, left);
    dst += written;
    left -= written;
  }
  state_ = state;
}

void Xoshiro256::fill_bytes(std::span<std::uint8_t> out) noexcept {
  std::size_t i = 0;
  while (i + 8 <= out.size()) {
    const std::uint64_t word = (*this)();
    for (std::size_t b = 0; b < 8; ++b) {
      out[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
    i += 8;
  }
  if (i < out.size()) {
    const std::uint64_t word = (*this)();
    for (std::size_t b = 0; i < out.size(); ++i, ++b) {
      out[i] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
}

Xoshiro256 Xoshiro256::fork() noexcept {
  return Xoshiro256((*this)());
}

Xoshiro256 Xoshiro256::split(std::uint64_t stream_id) const noexcept {
  // Hash the full 256-bit state and the stream id down to a 64-bit child
  // seed with the SplitMix64 finalizer; Xoshiro256's own seeding expands it
  // back to 256 bits. The finalizer's avalanche keeps children of adjacent
  // ids (0, 1, 2, ...) decorrelated.
  auto mix = [](std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::uint64_t acc = 0x243f6a8885a308d3ULL;  // pi's fraction: arbitrary
  for (const std::uint64_t word : state_) {
    acc = mix(acc ^ word) + 0x9e3779b97f4a7c15ULL;
  }
  acc = mix(acc ^ (stream_id + 0x9e3779b97f4a7c15ULL));
  return Xoshiro256(acc);
}

void Xoshiro256::long_jump() noexcept {
  static constexpr std::array<std::uint64_t, 4> kLongJump = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};

  std::array<std::uint64_t, 4> acc{};
  for (const std::uint64_t jump : kLongJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ULL << b)) {
        for (std::size_t w = 0; w < 4; ++w) {
          acc[w] ^= state_[w];
        }
      }
      (void)(*this)();
    }
  }
  state_ = acc;
  has_cached_gaussian_ = false;
}

}  // namespace psc::util
