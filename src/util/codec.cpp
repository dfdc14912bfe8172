#include "util/codec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

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

// llround(q) for |q| < 2^53: truncation is exact there, and so is the
// remainder q - t, so adjusting by it rounds half away from zero. The
// adjustment is arithmetic, not a branch: the remainder's sign and size
// are random from value to value, and a branch on them mispredicts.
std::int64_t round_half_away(double q) noexcept {
  const auto k = static_cast<std::int64_t>(q);
  const double rem = q - static_cast<double>(k);
  return k + (rem >= 0.5) - (rem <= -0.5);
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
    const std::int64_t k = round_half_away(q);
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
  // Open-addressed map from the column's bit patterns to their distinct
  // ids (linear probing, power-of-two size, at most half full). A NaN
  // pattern marks an empty slot: the encoder rejects non-finite columns
  // before it gets here.
  std::vector<std::uint64_t> slots;
  std::vector<std::uint32_t> slot_ids;
  std::vector<double> distinct;  // the map's members, in first-seen order
  std::vector<std::uint32_t> ids;  // distinct id of each column value
  std::vector<std::uint64_t> keys;  // radix sort buffers
  std::vector<std::uint64_t> keys_tmp;
  std::vector<std::int64_t> kd;  // grid index of each distinct value
  std::vector<std::uint64_t> zs;  // zigzagged deltas, zs[i] for i >= 1
};

thread_local EncodeScratch encode_scratch;

constexpr std::uint64_t empty_slot = ~std::uint64_t{0};
constexpr std::uint64_t sign_bit = std::uint64_t{1} << 63;

// Fills scratch.distinct with the distinct bit patterns of values[0..n),
// n > 0, and scratch.ids with each value's index into it; +0.0 and -0.0
// are distinct patterns.
void collect_distinct(const double* values, std::size_t n,
                      EncodeScratch& scratch) {
  const unsigned bits = static_cast<unsigned>(std::bit_width(2 * n - 1));
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  scratch.slots.assign(mask + 1, empty_slot);
  scratch.slot_ids.resize(mask + 1);
  scratch.distinct.clear();
  scratch.ids.resize(n);
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
      scratch.slot_ids[slot] =
          static_cast<std::uint32_t>(scratch.distinct.size());
      scratch.distinct.push_back(values[i]);
    }
    scratch.ids[i] = scratch.slot_ids[slot];
  }
}

// Order-preserving integer image of a finite double: flipping every bit
// of a negative value and the sign bit of a positive one makes unsigned
// key order value order, with -0.0 just below +0.0.
std::uint64_t sort_key(double v) noexcept {
  const auto b = std::bit_cast<std::uint64_t>(v);
  return b ^ (static_cast<std::uint64_t>(static_cast<std::int64_t>(b) >> 63) |
              sign_bit);
}
double from_sort_key(std::uint64_t key) noexcept {
  return std::bit_cast<double>((key & sign_bit) != 0 ? key ^ sign_bit : ~key);
}

// The sort keys of scratch.distinct, ascending: an LSD radix sort by
// bytes that skips every byte position all keys share. Returns the
// buffer holding the result.
const std::uint64_t* sort_distinct(EncodeScratch& scratch) {
  const std::size_t m = scratch.distinct.size();
  scratch.keys.resize(m);
  scratch.keys_tmp.resize(m);
  std::uint64_t* src = scratch.keys.data();
  std::uint64_t* dst = scratch.keys_tmp.data();
  std::uint64_t differ = 0;
  for (std::size_t i = 0; i < m; ++i) {
    src[i] = sort_key(scratch.distinct[i]);
    differ |= src[i] ^ src[0];
  }
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((differ >> shift) & 0xff) == 0) {
      continue;
    }
    std::uint32_t start[256] = {};
    for (std::size_t i = 0; i < m; ++i) {
      ++start[(src[i] >> shift) & 0xff];
    }
    std::uint32_t sum = 0;
    for (std::uint32_t& s : start) {
      const std::uint32_t count = s;
      s = sum;
      sum += count;
    }
    for (std::size_t i = 0; i < m; ++i) {
      dst[start[(src[i] >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

std::uint64_t zigzag(std::int64_t d) noexcept {
  return (static_cast<std::uint64_t>(d) << 1) ^
         static_cast<std::uint64_t>(d >> 63);
}
std::int64_t unzigzag(std::uint64_t z) noexcept {
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

// Packs zs[0..count) at `width` bits each (1..56), LSB first, into
// ceil(count * width / 8) bytes at `out`: whole 64-bit words leave a
// register accumulator as they fill, then the tail bytes.
void pack_bits(const std::uint64_t* zs, std::size_t count, unsigned width,
               std::byte* out) noexcept {
  std::uint64_t acc = 0;
  unsigned fill = 0;
  for (std::size_t i = 0; i < count; ++i) {
    acc |= zs[i] << fill;
    fill += width;
    if (fill >= 64) {
      put_u64le(out, acc);
      out += 8;
      fill -= 64;
      // The bits of zs[i] that did not fit; fill < width, so the shift
      // is in 1..56 and drops exactly the bits already stored.
      acc = zs[i] >> (width - fill);
    }
  }
  for (unsigned b = 0; b < fill; b += 8) {
    *out++ = static_cast<std::byte>((acc >> b) & 0xff);
  }
}

}  // namespace

bool delta_bitpack_encode(const double* values, std::size_t n,
                          std::vector<std::byte>& out) {
  if (n == 0 || n > std::numeric_limits<std::uint32_t>::max()) {
    return false;  // nothing to shrink, or more than the u32 count holds
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
  // gaps, so min_gap and min_abs equal those of the whole sorted column
  // (and so does -0.0 sorting below +0.0: their gap is zero either way).
  EncodeScratch& scratch = encode_scratch;
  collect_distinct(values, n, scratch);
  const std::size_t m = scratch.distinct.size();
  const std::uint64_t* sorted = sort_distinct(scratch);
  double candidates[4];
  std::size_t n_candidates = 0;
  double min_gap = 0.0;
  double prev = from_sort_key(sorted[0]);
  double min_abs = std::fabs(prev);
  for (std::size_t i = 1; i < m; ++i) {
    const double v = from_sort_key(sorted[i]);
    const double gap = v - prev;
    if (gap > 0.0 && (min_gap == 0.0 || gap < min_gap)) {
      min_gap = gap;
    }
    min_abs = std::min(min_abs, std::fabs(v));
    prev = v;
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
  // Only the distinct values are gridded: a value's k depends on its
  // bits alone, and the column is on a grid exactly when each of its
  // distinct values is.
  std::vector<std::int64_t>& kd = scratch.kd;
  bool have_grid = false;
  bool f32 = false;
  for (const bool try_f32 : {false, true}) {
    for (std::size_t c = 0; c < n_candidates && !have_grid; ++c) {
      have_grid =
          extract_grid(scratch.distinct.data(), m, candidates[c], try_f32, kd);
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

  const std::uint32_t* ids = scratch.ids.data();
  scratch.zs.resize(n);
  std::uint64_t* zs = scratch.zs.data();
  std::uint64_t any = 0;
  const std::int64_t k0 = kd[ids[0]];
  std::int64_t k_prev = k0;
  for (std::size_t i = 1; i < n; ++i) {
    const std::int64_t k = kd[ids[i]];
    zs[i] = zigzag(k - k_prev);
    any |= zs[i];
    k_prev = k;
  }
  const auto width = static_cast<unsigned>(std::bit_width(any));
  if (width > delta_bitpack_max_width) {
    return false;
  }
  const std::size_t encoded = delta_bitpack_encoded_bytes(n, width);
  if (encoded >= n * sizeof(double)) {
    return false;  // compression would not pay
  }

  out.resize(encoded);
  put_u32le(out.data(), static_cast<std::uint32_t>(n));
  put_u32le(out.data() + 4, width | (f32 ? delta_bitpack_f32_flag : 0u));
  put_u64le(out.data() + 8, std::bit_cast<std::uint64_t>(step));
  put_u64le(out.data() + 16, static_cast<std::uint64_t>(k0));
  if (width > 0) {
    pack_bits(zs + 1, n - 1, width, out.data() + delta_bitpack_header_bytes);
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
