#include "util/crc32.h"

#include <array>

#include "util/simd.h"

#if defined(PSC_SIMD_X86)
#include <immintrin.h>
#endif

namespace psc::util {

namespace {

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr auto table = make_table();

#if defined(PSC_SIMD_X86)
__m128i load16(const std::byte* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// One 128-bit fold step: a.lo * k.lo ^ a.hi * k.hi ^ next.
__attribute__((target("pclmul"))) inline __m128i fold16(
    __m128i a, __m128i k, __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                     _mm_clmulepi64_si128(a, k, 0x11)),
                       next);
}

// Carry-less-multiply folding (Intel, "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction", 2009), bit-reflected domain:
// four 128-bit lanes fold 64 bytes per step, collapse into one lane,
// fold the remaining 16-byte blocks, then reduce 128 -> 64 -> 32 bits
// (Barrett). Takes and returns the raw register (pre-/post-inversion
// left to the caller); n is a multiple of 16 and at least 64. The
// constants are x^k mod P for the fold distances, P' = 0x1db710641 and
// mu' = 0x1f7011641, all bit-reflected.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_pclmul(
    std::uint32_t crc, const std::byte* p, std::size_t n) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold16(x1, k1k2, load16(p));
    x2 = fold16(x2, k1k2, load16(p + 16));
    x3 = fold16(x3, k1k2, load16(p + 32));
    x4 = fold16(x4, k1k2, load16(p + 48));
  }
  x1 = fold16(x1, k3k4, x2);
  x1 = fold16(x1, k3k4, x3);
  x1 = fold16(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) {
    x1 = fold16(x1, k3k4, load16(p));
  }

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

// PCLMULQDQ folding runs unless dispatch is pinned to the portable
// bodies (PSC_SIMD=scalar or util::simd::force_backend(Backend::scalar)).
bool use_pclmul() noexcept {
  static const bool cpu_has_pclmul = __builtin_cpu_supports("pclmul") != 0 &&
                                     __builtin_cpu_supports("sse4.1") != 0;
  return cpu_has_pclmul && simd::active_backend() != simd::Backend::scalar;
}
#endif  // PSC_SIMD_X86

}  // namespace

void Crc32::update(std::span<const std::byte> data) noexcept {
  std::uint32_t c = state_;
#if defined(PSC_SIMD_X86)
  if (data.size() >= 64 && use_pclmul()) {
    const std::size_t folded = data.size() & ~std::size_t{15};
    c = fold_pclmul(c, data.data(), folded);
    data = data.subspan(folded);
  }
#endif
  for (const std::byte b : data) {
    c = table[(c ^ static_cast<std::uint32_t>(b)) & 0xffu] ^ (c >> 8);
  }
  state_ = c;
}

std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

}  // namespace psc::util
