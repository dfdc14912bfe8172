#include "util/codec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/simd.h"

namespace psc::util {

namespace {

// Grid indices are bounded to the integers a double represents exactly:
// beyond 2^53, k and k+1 collide in fl(k * step) and the bit-verify
// below could pass for the wrong k.
constexpr double max_grid_index = 9007199254740992.0;  // 2^53

void put_u32le(std::byte* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
}
void put_u64le(std::byte* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
}
std::uint32_t get_u32le(const std::byte* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint32_t>(p[i]);
  }
  return v;
}
std::uint64_t get_u64le(const std::byte* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint64_t>(p[i]);
  }
  return v;
}

// `c` rounded to `digits` significant decimal digits, as the nearest
// double to that decimal — exactly the value a source literal like 1e-6
// or 5e-3 denotes, which is what power::Quantizer was constructed with.
double snap_decimal(double c, int digits) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*e", digits - 1, c);
  return std::strtod(buf, nullptr);
}

// fl(k * step), optionally pushed through the float32 truncation the SMC
// read path applies — the two expressions a recorded grid value can be.
double reconstruct(std::int64_t k, double step, bool f32) noexcept {
  const double v = static_cast<double>(k) * step;
  return f32 ? static_cast<double>(static_cast<float>(v)) : v;
}

// True when every value is exactly reconstruct(k, step, f32) for an
// integer k within the exact range; fills ks on success.
bool extract_grid(const double* values, std::size_t n, double step, bool f32,
                  std::vector<std::int64_t>& ks) {
  if (!(step > 0.0) || !std::isfinite(step)) {
    return false;
  }
  ks.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double q = values[i] / step;
    if (!(std::fabs(q) < max_grid_index)) {  // also rejects NaN
      return false;
    }
    const std::int64_t k = std::llround(q);
    // Float truncation can shift a value across the rounding midpoint of
    // its own grid cell (f32 ulp > step/2 for large values), so the true
    // k may sit one off the quotient; bit-verify the neighbors too.
    bool matched = false;
    for (const std::int64_t kc :
         {k, f32 ? k - 1 : k, f32 ? k + 1 : k}) {
      if (std::bit_cast<std::uint64_t>(reconstruct(kc, step, f32)) ==
          std::bit_cast<std::uint64_t>(values[i])) {
        ks[i] = kc;
        matched = true;
        break;
      }
    }
    if (!matched) {
      return false;
    }
  }
  return true;
}

// delta_bitpack_encode's working memory, kept per thread and reused, so
// encoding a chunk column allocates nothing once the buffers have grown
// to the column size.
struct EncodeScratch {
  // Open-addressed set of the column's bit patterns (linear probing,
  // power-of-two size, at most half full). A NaN pattern marks an empty
  // slot: the encoder rejects non-finite columns before it gets here.
  std::vector<std::uint64_t> slots;
  std::vector<double> distinct;  // the set's members, in first-seen order
  std::vector<std::int64_t> ks;  // grid indices of the column
};

thread_local EncodeScratch encode_scratch;

constexpr std::uint64_t empty_slot = ~std::uint64_t{0};

// Fills scratch.distinct with the distinct bit patterns of values[0..n),
// n > 0; +0.0 and -0.0 are distinct patterns.
void collect_distinct(const double* values, std::size_t n,
                      EncodeScratch& scratch) {
  const unsigned bits = static_cast<unsigned>(std::bit_width(2 * n - 1));
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  scratch.slots.assign(mask + 1, empty_slot);
  scratch.distinct.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const auto key = std::bit_cast<std::uint64_t>(values[i]);
    // Fibonacci hashing: the top bits of key * 2^64/phi.
    std::size_t slot = static_cast<std::size_t>(
        (key * 0x9e3779b97f4a7c15ULL) >> (64 - bits));
    while (scratch.slots[slot] != empty_slot && scratch.slots[slot] != key) {
      slot = (slot + 1) & mask;
    }
    if (scratch.slots[slot] == empty_slot) {
      scratch.slots[slot] = key;
      scratch.distinct.push_back(values[i]);
    }
  }
}

std::uint64_t zigzag(std::int64_t d) noexcept {
  return (static_cast<std::uint64_t>(d) << 1) ^
         static_cast<std::uint64_t>(d >> 63);
}
std::int64_t unzigzag(std::uint64_t z) noexcept {
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

}  // namespace

bool delta_bitpack_encode(const double* values, std::size_t n,
                          std::vector<std::byte>& out) {
  if (n == 0) {
    return false;  // nothing to shrink
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(values[i])) {
      return false;
    }
  }

  // Step recovery: the smallest gap between adjacent distinct values is
  // within an ulp of a small multiple of the true step; snapping it to
  // 1-3 significant decimal digits reproduces the quantizer's literal.
  // Wrong guesses are harmless — extract_grid bit-verifies every value.
  // Only the distinct values are sorted: duplicates add nothing but zero
  // gaps, so min_gap and min_abs equal those of the whole sorted column.
  EncodeScratch& scratch = encode_scratch;
  collect_distinct(values, n, scratch);
  std::vector<double>& sorted = scratch.distinct;
  std::sort(sorted.begin(), sorted.end());
  double candidates[4];
  std::size_t n_candidates = 0;
  double min_gap = 0.0;
  double min_abs = std::fabs(sorted[0]);
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    const double gap = sorted[i] - sorted[i - 1];
    if (gap > 0.0 && (min_gap == 0.0 || gap < min_gap)) {
      min_gap = gap;
    }
    min_abs = std::min(min_abs, std::fabs(sorted[i]));
  }
  if (min_gap > 0.0) {
    candidates[n_candidates++] = snap_decimal(min_gap, 1);
    candidates[n_candidates++] = snap_decimal(min_gap, 2);
    candidates[n_candidates++] = snap_decimal(min_gap, 3);
    candidates[n_candidates++] = min_gap;
  } else {
    // All values equal: the value itself is its own grid (k = 1), or
    // any step at all when the column is exactly zero.
    candidates[n_candidates++] = min_abs > 0.0 ? min_abs : 1.0;
  }

  // Prefer the plain grid (cheaper decode); fall back to the
  // float32-truncated grid recorded sensor columns actually live on.
  std::vector<std::int64_t>& ks = scratch.ks;
  bool have_grid = false;
  bool f32 = false;
  for (const bool try_f32 : {false, true}) {
    for (std::size_t c = 0; c < n_candidates && !have_grid; ++c) {
      have_grid = extract_grid(values, n, candidates[c], try_f32, ks);
      if (have_grid) {
        // Remember which candidate matched by leaving it in slot 0.
        candidates[0] = candidates[c];
        f32 = try_f32;
      }
    }
    if (have_grid) {
      break;
    }
  }
  if (!have_grid) {
    return false;
  }
  const double step = candidates[0];

  unsigned width = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t z = zigzag(ks[i] - ks[i - 1]);
    if (z != 0) {
      width = std::max(
          width, static_cast<unsigned>(64 - std::countl_zero(z)));
    }
  }
  if (width > delta_bitpack_max_width) {
    return false;
  }
  const std::size_t encoded = delta_bitpack_encoded_bytes(n, width);
  if (encoded >= n * sizeof(double)) {
    return false;  // compression would not pay
  }

  out.assign(encoded, std::byte{0});
  put_u32le(out.data(), static_cast<std::uint32_t>(n));
  put_u32le(out.data() + 4, width | (f32 ? delta_bitpack_f32_flag : 0u));
  put_u64le(out.data() + 8, std::bit_cast<std::uint64_t>(step));
  put_u64le(out.data() + 16, static_cast<std::uint64_t>(ks[0]));
  if (width > 0) {
    std::byte* packed = out.data() + delta_bitpack_header_bytes;
    std::size_t bit = 0;
    for (std::size_t i = 1; i < n; ++i, bit += width) {
      std::uint64_t z = zigzag(ks[i] - ks[i - 1]);
      std::size_t b = bit >> 3;
      unsigned used = static_cast<unsigned>(bit & 7);
      unsigned left = width;
      while (left > 0) {
        packed[b] |= static_cast<std::byte>((z << used) & 0xff);
        const unsigned consumed = 8 - used;
        z >>= consumed;
        left -= std::min(left, consumed);
        used = 0;
        ++b;
      }
    }
  }
  return true;
}

bool delta_bitpack_decode(const std::byte* in, std::size_t size,
                          double* values, std::size_t n) {
  if (size < delta_bitpack_header_bytes) {
    return false;
  }
  if (get_u32le(in) != n) {
    return false;
  }
  const std::uint32_t width_field = get_u32le(in + 4);
  const std::uint32_t width = width_field & 0xff;
  const bool f32 = (width_field & delta_bitpack_f32_flag) != 0;
  if (width > delta_bitpack_max_width ||
      (width_field & ~(0xffu | delta_bitpack_f32_flag)) != 0) {
    return false;
  }
  if (size != delta_bitpack_encoded_bytes(n, width)) {
    return false;
  }
  if (n == 0) {
    return true;
  }
  const double step = std::bit_cast<double>(get_u64le(in + 8));
  std::int64_t k = static_cast<std::int64_t>(get_u64le(in + 16));
  values[0] = reconstruct(k, step, f32);

  const std::byte* packed = in + delta_bitpack_header_bytes;
  const std::size_t packed_bytes = size - delta_bitpack_header_bytes;
  // Unpack in cache-friendly stack blocks through the dispatched SIMD
  // kernel; the prefix sum and the single fl(k * step) multiply per value
  // mirror the quantizer exactly (bit-exactness contract, see header).
  constexpr std::size_t block = 1024;
  std::uint64_t zs[block];
  std::size_t i = 1;
  while (i < n) {
    const std::size_t take = std::min(block, n - i);
    simd::unpack_bits(packed, packed_bytes,
                      static_cast<std::uint64_t>(i - 1) * width, width, zs,
                      take);
    for (std::size_t j = 0; j < take; ++j) {
      k += unzigzag(zs[j]);
      values[i + j] = reconstruct(k, step, f32);
    }
    i += take;
  }
  return true;
}

}  // namespace psc::util
