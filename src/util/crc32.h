// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-chunk
// integrity check of the PSTR trace store and of PSCB bus frames.
// Streamable: feed a payload in pieces through Crc32 or hash it whole
// with crc32(). crc32("123456789") == 0xCBF43926, the standard check
// value.
//
// Two bodies compute the same value. The portable one is a byte-at-a-time
// table loop, the reference. On x86-64 a PCLMULQDQ folding body
// (carry-less multiplies, 64 bytes per step, then a Barrett reduction)
// takes every update of at least 64 bytes, up to its last whole 16-byte
// block, and the table loop finishes the tail. The folding body runs
// when the CPU has PCLMULQDQ and SSE4.1 and the util::simd mode is not
// `scalar` (see util/simd.h); PSC_SIMD=scalar and -DPSC_FORCE_SCALAR=ON
// builds run the table loop alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace psc::util {

// Incremental CRC over a byte stream.
class Crc32 {
 public:
  void update(std::span<const std::byte> data) noexcept;
  void update(const void* data, std::size_t size) noexcept {
    update(std::span(static_cast<const std::byte*>(data), size));
  }

  // The CRC of everything fed so far.
  std::uint32_t value() const noexcept { return state_ ^ 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

// One-shot CRC of a contiguous buffer.
std::uint32_t crc32(std::span<const std::byte> data) noexcept;
inline std::uint32_t crc32(const void* data, std::size_t size) noexcept {
  return crc32(std::span(static_cast<const std::byte*>(data), size));
}

}  // namespace psc::util
