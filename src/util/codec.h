// Column codecs for the PSTR v2 trace store: lossless, bit-exact
// compression of quantized sensor columns.
//
// Every channel value the measurement path produces has passed
// power::Quantizer::apply — it is fl(k * step) for an integer k and the
// sensor's quantization step (powermetrics-class counters quantize at
// 1e-6 W, SMC floats at 1e-3..1e-2). delta_bitpack_encode recovers the
// step from the data, maps each double back to its integer grid index k,
// delta-encodes the k stream (sensor streams are a slow baseline plus
// bounded noise, so deltas are small), zigzags the signed deltas and
// packs them at the minimal fixed bit width. Decoding is a prefix sum
// and one multiply per value: fl(k * step) — exactly the expression the
// quantizer evaluated, so round-tripping is bit-exact, not just
// value-approximate.
//
// SMC clients read float32-encoded sensor values, so recorded columns
// are usually fl64(fl32(k * step)) rather than fl64(k * step) (see
// victim/fast_trace.cpp). The encoder detects that grid too and sets a
// flag in the block; decoding then applies the same float truncation
// after the multiply, keeping the round trip bit-exact.
//
// The encoder trusts nothing: every value must verify bit-for-bit
// against its reconstruction (k = llround(v/step); bit_cast(k*step) ==
// bit_cast(v)) or the column is rejected and the caller stores it raw
// (ColumnCodec::identity). Corrupt encoded input never produces UB —
// decode bounds-checks the block and returns false — and the store
// layer additionally CRCs the *decoded* bytes, so a bit flip inside a
// compressed payload surfaces as a loud StoreError either way.
//
// The encoder works in six steps, all in one portable function whose
// working memory is per-thread scratch sized to the column:
//   1. distinct ids: an open-addressed hash map gives each distinct bit
//      pattern an id, and records the id of every value;
//   2. sort: an LSD radix sort of the distinct values' order-preserving
//      integer keys, passing only over the key bytes that differ;
//   3. step candidates: the smallest gap between adjacent sorted values,
//      snapped to 1, 2 and 3 significant decimal digits, and unsnapped;
//   4. grid: each distinct value (not each row) is mapped to its k and
//      bit-verified — a value's k depends on its bits alone, so the
//      column is on the grid exactly when its distinct values are;
//   5. deltas: row i's k is the k of its distinct id; the width is the
//      bit width of the OR of all zigzagged deltas;
//   6. packing: fields gather in a 64-bit register and leave it as
//      little-endian 8-byte words, then the tail bytes.
//
// The packed little-endian bit stream is unpacked through the
// runtime-dispatched util::simd::unpack_bits kernel (AVX2 gathers on
// x86), which is why widths are capped at 56 bits: every field then
// fits one shifted 8-byte window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace psc::util {

// Encoded block layout (all little-endian):
//   u32 count   values encoded
//   u32 width   low byte: bits per packed zigzag delta (0..56; 0 = all
//               deltas zero); bit 8: float32-truncated grid (values are
//               fl64(fl32(k * step))); higher bits must be zero
//   u64 step    IEEE-754 bits of the recovered quantization step
//   i64 k0      grid index of the first value
//   ceil((count-1) * width / 8) packed bytes
inline constexpr std::size_t delta_bitpack_header_bytes = 24;
inline constexpr unsigned delta_bitpack_max_width = 56;
inline constexpr std::uint32_t delta_bitpack_f32_flag = 0x100;

// Bytes of a width-w encoding of n values (the size encode would write).
inline constexpr std::size_t delta_bitpack_encoded_bytes(
    std::size_t n, unsigned width) noexcept {
  const std::size_t packed = n == 0 ? 0 : (n - 1) * width;
  return delta_bitpack_header_bytes + (packed + 7) / 8;
}

// Encodes values[0..n) into `out` (replacing its contents). Returns true
// only when the encoding is bit-exact for every value AND strictly
// smaller than the raw column (n * 8 bytes); on false `out` is
// unspecified and the caller must store the column raw.
bool delta_bitpack_encode(const double* values, std::size_t n,
                          std::vector<std::byte>& out);

// Decodes an encoded block of exactly `size` bytes into values[0..n).
// Returns false (touching no more than the first n outputs) when the
// block is structurally invalid: short/oversized, count != n, width out
// of range. Bit flips that keep the structure valid decode to different
// bytes, which the store layer's payload CRC rejects.
bool delta_bitpack_decode(const std::byte* in, std::size_t size,
                          double* values, std::size_t n);

}  // namespace psc::util
