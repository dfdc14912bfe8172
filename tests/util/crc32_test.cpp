#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string_view>
#include <vector>

#include "util/rng.h"
#include "util/simd.h"

namespace psc::util {
namespace {

// The definition, one bit at a time: the reference every body of
// util::crc32 (byte table, PCLMULQDQ folding) must reproduce.
std::uint32_t crc_bitwise(const std::byte* p, std::size_t n) {
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= static_cast<std::uint32_t>(p[i]);
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xffffffffu;
}

// Bytes of a fixed 64-bit LCG stream, independent of util::rng.
std::vector<std::byte> lcg_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> out(n);
  std::uint64_t x = seed;
  for (std::byte& b : out) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<std::byte>(x >> 56);
  }
  return out;
}

// Runs `body` once per SIMD mode this build supports, then restores
// automatic dispatch.
template <typename Body>
void for_each_backend(Body&& body) {
  for (const simd::Backend backend : simd::supported_backends()) {
    simd::force_backend(backend);
    SCOPED_TRACE(std::string(simd::backend_name(backend)));
    body();
  }
  simd::reset_backend();
}

std::uint32_t crc_of(std::string_view s) {
  return crc32(s.data(), s.size());
}

TEST(Crc32, StandardCheckValue) {
  // The CRC-32/ISO-HDLC check value every implementation must reproduce.
  EXPECT_EQ(crc_of("123456789"), 0xcbf43926u);
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc_of(""), 0x00000000u);
  EXPECT_EQ(crc_of("a"), 0xe8b7be43u);
  EXPECT_EQ(crc_of("abc"), 0x352441c2u);
}

TEST(Crc32, StreamingMatchesOneShot) {
  const std::string_view data = "the quick brown fox jumps over the lazy dog";
  Crc32 crc;
  for (std::size_t i = 0; i < data.size(); i += 7) {
    const std::size_t n = std::min<std::size_t>(7, data.size() - i);
    crc.update(data.data() + i, n);
  }
  EXPECT_EQ(crc.value(), crc_of(data));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::byte> data(1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 131);
  }
  const std::uint32_t clean = crc32(data);
  data[517] ^= std::byte{0x08};
  EXPECT_NE(crc32(data), clean);
}

TEST(Crc32, MatchesBitwiseDefinitionAtEveryLengthAndOffset) {
  // Lengths 0..1100 cross the 16-byte block and 64-byte fold thresholds
  // many times over; offsets 0..15 cover every load alignment.
  const std::vector<std::byte> data = lcg_bytes(1100 + 16, 1);
  for_each_backend([&] {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (std::size_t n = 0; n <= 1100; ++n) {
        const std::byte* p = data.data() + offset;
        const std::uint32_t want = crc_bitwise(p, n);
        ASSERT_EQ(crc32(p, n), want) << "offset " << offset << " n " << n;
        Crc32 crc;
        crc.update(p, n);
        ASSERT_EQ(crc.value(), want) << "offset " << offset << " n " << n;
      }
    }
  });
}

TEST(Crc32, RandomStreamingSplitsMatchBitwiseDefinition) {
  // Piece sizes drawn around the 16- and 64-byte thresholds, so the
  // folding body and the byte-table tail hand the register back and
  // forth mid-stream.
  const std::vector<std::byte> data = lcg_bytes(4096, 2);
  const std::uint32_t want = crc_bitwise(data.data(), data.size());
  for_each_backend([&] {
    Xoshiro256 rng(3);
    for (int trial = 0; trial < 500; ++trial) {
      Crc32 crc;
      std::size_t at = 0;
      while (at < data.size()) {
        const std::size_t centre = rng.uniform_u64(2) == 0 ? 16 : 64;
        const std::size_t piece = std::min<std::size_t>(
            centre - 3 + rng.uniform_u64(7) + 64 * rng.uniform_u64(3),
            data.size() - at);
        crc.update(data.data() + at, piece);
        at += piece;
      }
      ASSERT_EQ(crc.value(), want) << "trial " << trial;
    }
  });
}

TEST(Crc32, PinsOneMegabyteBuffer) {
  // Absolute anchor: the CRC of a fixed 1 MiB stream, recorded from the
  // byte-table body.
  const std::vector<std::byte> data = lcg_bytes(1 << 20, 42);
  for_each_backend([&] {
    EXPECT_EQ(crc32(data), 0x9b3baf93u);
    Crc32 crc;
    crc.update(std::span(data).first(333'333));
    crc.update(std::span(data).subspan(333'333));
    EXPECT_EQ(crc.value(), 0x9b3baf93u);
  });
}

}  // namespace
}  // namespace psc::util
