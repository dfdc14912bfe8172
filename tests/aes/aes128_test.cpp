#include "aes/aes128.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "aes/sbox.h"
#include "util/hex.h"
#include "util/rng.h"
#include "util/simd.h"

namespace psc::aes {
namespace {

Block block_from_hex(const char* hex) {
  Block b{};
  EXPECT_TRUE(util::from_hex_exact(hex, b));
  return b;
}

TEST(Aes128, Fips197AppendixBVector) {
  const Block key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block pt = block_from_hex("3243f6a8885a308d313198a2e0370734");
  const Block expected = block_from_hex("3925841d02dc09fbdc118597196a0b32");
  Aes128 cipher(key);
  EXPECT_EQ(cipher.encrypt(pt), expected);
}

TEST(Aes128, Fips197AppendixC1Vector) {
  const Block key = block_from_hex("000102030405060708090a0b0c0d0e0f");
  const Block pt = block_from_hex("00112233445566778899aabbccddeeff");
  const Block expected = block_from_hex("69c4e0d86a7b0430d8cdb78070b4c55a");
  Aes128 cipher(key);
  EXPECT_EQ(cipher.encrypt(pt), expected);
}

TEST(Aes128, KeyScheduleMatchesFips197) {
  // FIPS-197 appendix A.1 key expansion for 2b7e1516...
  const Block key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const auto keys = Aes128::expand_key(key);
  EXPECT_EQ(keys[0], key);
  EXPECT_EQ(keys[1], block_from_hex("a0fafe1788542cb123a339392a6c7605"));
  EXPECT_EQ(keys[2], block_from_hex("f2c295f27a96b9435935807a7359f67f"));
  EXPECT_EQ(keys[10], block_from_hex("d014f9a8c9ee2589e13f0cc8b6630ca6"));
}

TEST(Aes128, MasterKeyFromRound10MatchesForward) {
  const Block key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const auto keys = Aes128::expand_key(key);
  EXPECT_EQ(Aes128::master_key_from_round10(keys[10]), key);
}

TEST(Aes128, TraceMatchesPlainEncrypt) {
  const Block key = block_from_hex("000102030405060708090a0b0c0d0e0f");
  const Block pt = block_from_hex("00112233445566778899aabbccddeeff");
  Aes128 cipher(key);
  RoundTrace trace;
  const Block ct = cipher.encrypt_trace(pt, trace);
  EXPECT_EQ(ct, cipher.encrypt(pt));
  EXPECT_EQ(trace.post_add_round_key[num_rounds], ct);
}

TEST(Aes128, TraceRound0IsWhitenedPlaintext) {
  const Block key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block pt = block_from_hex("3243f6a8885a308d313198a2e0370734");
  Aes128 cipher(key);
  RoundTrace trace;
  cipher.encrypt_trace(pt, trace);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(trace.post_add_round_key[0][i],
              static_cast<std::uint8_t>(pt[i] ^ key[i]));
  }
}

TEST(Aes128, TraceSubBytesConsistent) {
  const Block key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block pt = block_from_hex("3243f6a8885a308d313198a2e0370734");
  Aes128 cipher(key);
  RoundTrace trace;
  cipher.encrypt_trace(pt, trace);
  // post_sub_bytes[0] is SubBytes applied to post_add_round_key[0].
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(trace.post_sub_bytes[0][i], sbox[trace.post_add_round_key[0][i]]);
  }
}

// FIPS-197 appendix B, every round: post_add_round_key[r] is the "start
// of round" state of round r + 1 (r = 10: the output) and
// post_sub_bytes[r] the "after SubBytes" state of round r + 1. Pinned on
// the dispatched body (AES-NI where the CPU has it) and on the portable
// byte-wise body that PSC_SIMD=scalar selects.
TEST(Aes128, TraceMatchesFips197AppendixBEveryRound) {
  namespace simd = util::simd;
  const Block key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block pt = block_from_hex("3243f6a8885a308d313198a2e0370734");
  const char* const start_of_round[num_rounds + 1] = {
      "193de3bea0f4e22b9ac68d2ae9f84808", "a49c7ff2689f352b6b5bea43026a5049",
      "aa8f5f0361dde3ef82d24ad26832469a", "486c4eee671d9d0d4de3b138d65f58e7",
      "e0927fe8c86363c0d9b1355085b8be01", "f1006f55c1924cef7cc88b325db5d50c",
      "260e2e173d41b77de86472a9fdd28b25", "5a4142b11949dc1fa3e019657a8c040c",
      "ea835cf00445332d655d98ad8596b0c5", "eb40f21e592e38848ba113e71bc342d2",
      "3925841d02dc09fbdc118597196a0b32"};
  const char* const after_sub_bytes[num_rounds] = {
      "d42711aee0bf98f1b8b45de51e415230", "49ded28945db96f17f39871a7702533b",
      "ac73cf7befc111df13b5d6b545235ab8", "52502f2885a45ed7e311c807f6cf6a94",
      "e14fd29be8fbfbba35c89653976cae7c", "a163a8fc784f29df10e83d234cd503fe",
      "f7ab31f02783a9ff9b4340d354b53d3f", "be832cc8d43b86c00ae1d44dda64f2fe",
      "87ec4a8cf26ec3d84d4c46959790e7a6", "e9098972cb31075f3d327d94af2e2cb5"};
  const Aes128 cipher(key);
  for (const bool portable : {false, true}) {
    if (portable) {
      simd::force_backend(simd::Backend::scalar);
    } else {
      simd::reset_backend();
    }
    const std::string body = portable ? "portable body" : "dispatched body";
    RoundTrace trace;
    EXPECT_EQ(cipher.encrypt_trace(pt, trace),
              block_from_hex(start_of_round[num_rounds]))
        << body;
    for (std::size_t r = 0; r <= num_rounds; ++r) {
      EXPECT_EQ(trace.post_add_round_key[r],
                block_from_hex(start_of_round[r]))
          << body << ", post_add_round_key[" << r << "]";
    }
    for (std::size_t r = 0; r < num_rounds; ++r) {
      EXPECT_EQ(trace.post_sub_bytes[r], block_from_hex(after_sub_bytes[r]))
          << body << ", post_sub_bytes[" << r << "]";
    }
  }
  simd::reset_backend();
}

// The dispatched round-trace body records byte-for-byte the same states
// as the portable one, over seeded random keys and plaintexts.
TEST(Aes128, DispatchedTraceEqualsPortableBody) {
  namespace simd = util::simd;
  constexpr std::size_t pairs = 10240;
  util::Xoshiro256 rng(197);
  std::vector<Block> keys(pairs);
  std::vector<Block> pts(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    rng.fill_bytes(keys[i]);
    rng.fill_bytes(pts[i]);
  }
  const auto traces = [&] {
    std::vector<RoundTrace> out(pairs);
    for (std::size_t i = 0; i < pairs; ++i) {
      Aes128(keys[i]).encrypt_trace(pts[i], out[i]);
    }
    return out;
  };
  simd::reset_backend();
  const std::vector<RoundTrace> dispatched = traces();
  simd::force_backend(simd::Backend::scalar);
  const std::vector<RoundTrace> portable = traces();
  simd::reset_backend();
  for (std::size_t i = 0; i < pairs; ++i) {
    ASSERT_EQ(std::memcmp(&dispatched[i], &portable[i], sizeof(RoundTrace)),
              0)
        << "pair " << i;
  }
}

// count_round_states writes, in both SIMD modes and for every block size
// up to the capacity (vector groups of four and the tail), the ciphertexts
// of encrypt and the bit counts of encrypt_trace's states.
TEST(Aes128, CountedRoundStatesMatchTrace) {
  namespace simd = util::simd;
  util::Xoshiro256 rng(198);
  Block key;
  rng.fill_bytes(key);
  const Aes128 cipher(key);
  std::vector<Block> pts(RoundCounts::capacity);
  for (Block& pt : pts) {
    rng.fill_bytes(pt);
  }
  auto counts = std::make_unique<RoundCounts>();
  for (const simd::Backend backend : simd::supported_backends()) {
    simd::force_backend(backend);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}, std::size_t{4},
                                std::size_t{7}, RoundCounts::capacity}) {
      std::vector<Block> cts(n);
      cipher.count_round_states({pts.data(), n}, cts, *counts);
      for (std::size_t t = 0; t < n; ++t) {
        RoundTrace trace;
        ASSERT_EQ(cts[t], cipher.encrypt_trace(pts[t], trace));
        const auto& bits = counts->bits;
        for (std::size_t r = 0; r <= num_rounds; ++r) {
          ASSERT_EQ(bits[RoundCounts::ark(r)][t],
                    hamming_weight(trace.post_add_round_key[r]))
              << simd::backend_name(backend) << ": n " << n << ", trace "
              << t << ", round " << r;
        }
        for (std::size_t r = 0; r < num_rounds; ++r) {
          ASSERT_EQ(bits[RoundCounts::sbox(r)][t],
                    hamming_weight(trace.post_sub_bytes[r]));
        }
        ASSERT_EQ(bits[RoundCounts::plaintext][t], hamming_weight(pts[t]));
        ASSERT_EQ(bits[RoundCounts::last_round_hd][t],
                  hamming_distance(trace.post_add_round_key[num_rounds - 1],
                                   trace.post_add_round_key[num_rounds]));
      }
    }
  }
  simd::reset_backend();
}

TEST(Aes128, LastRoundStructure) {
  // ct = ShiftRows(SubBytes(s9)) ^ rk10, where s9 = post_add_round_key[9].
  const Block key = block_from_hex("000102030405060708090a0b0c0d0e0f");
  const Block pt = block_from_hex("00112233445566778899aabbccddeeff");
  Aes128 cipher(key);
  RoundTrace trace;
  const Block ct = cipher.encrypt_trace(pt, trace);
  Block s = trace.post_add_round_key[9];
  sub_bytes(s);
  shift_rows(s);
  add_round_key(s, cipher.round_keys()[10]);
  EXPECT_EQ(s, ct);
}

TEST(RoundPrimitives, ShiftRowsMovesRowsNotRow0) {
  Block state{};
  for (std::size_t i = 0; i < 16; ++i) {
    state[i] = static_cast<std::uint8_t>(i);
  }
  Block shifted = state;
  shift_rows(shifted);
  // Row 0 (indices 0,4,8,12) is unchanged.
  for (const std::size_t i : {0u, 4u, 8u, 12u}) {
    EXPECT_EQ(shifted[i], state[i]);
  }
  // Row 1 shifts left by one column: position 1 gets old column 1 row 1 = 5.
  EXPECT_EQ(shifted[1], state[5]);
  EXPECT_EQ(shifted[5], state[9]);
  EXPECT_EQ(shifted[13], state[1]);
}

TEST(RoundPrimitives, ShiftRowsSourceIsPermutation) {
  std::array<bool, 16> seen{};
  for (std::size_t i = 0; i < 16; ++i) {
    seen[shift_rows_source(i)] = true;
  }
  for (const bool hit : seen) {
    EXPECT_TRUE(hit);
  }
}

TEST(RoundPrimitives, MixColumnsKnownColumn) {
  // Canonical single-column test vector: db 13 53 45 -> 8e 4d a1 bc.
  Block state{};
  state[0] = 0xdb;
  state[1] = 0x13;
  state[2] = 0x53;
  state[3] = 0x45;
  mix_columns(state);
  EXPECT_EQ(state[0], 0x8e);
  EXPECT_EQ(state[1], 0x4d);
  EXPECT_EQ(state[2], 0xa1);
  EXPECT_EQ(state[3], 0xbc);
}

TEST(Hamming, ByteWeight) {
  EXPECT_EQ(hamming_weight(std::uint8_t{0x00}), 0);
  EXPECT_EQ(hamming_weight(std::uint8_t{0xff}), 8);
  EXPECT_EQ(hamming_weight(std::uint8_t{0x0f}), 4);
  EXPECT_EQ(hamming_weight(std::uint8_t{0xa5}), 4);
}

static_assert(hamming_weight(std::uint8_t{0x00}) == 0);
static_assert(hamming_weight(std::uint8_t{0x80}) == 1);
static_assert(hamming_weight(std::uint8_t{0x5a}) == 4);
static_assert(hamming_weight(std::uint8_t{0xff}) == 8);

TEST(Hamming, BlockWeightAndDistance) {
  Block zeros{};
  Block ones;
  ones.fill(0xff);
  EXPECT_EQ(hamming_weight(zeros), 0);
  EXPECT_EQ(hamming_weight(ones), 128);
  EXPECT_EQ(hamming_distance(zeros, ones), 128);
  EXPECT_EQ(hamming_distance(ones, ones), 0);
}

// Set bits counted one at a time, over all 128 bits of the block.
int bit_loop_weight(const Block& block) {
  int bits = 0;
  for (const std::uint8_t byte : block) {
    for (int b = 0; b < 8; ++b) {
      bits += (byte >> b) & 1;
    }
  }
  return bits;
}

TEST(Hamming, BlockWeightAndDistanceMatchBitLoop) {
  util::Xoshiro256 rng(128);
  for (int i = 0; i < 10000; ++i) {
    Block a;
    Block b;
    rng.fill_bytes(a);
    rng.fill_bytes(b);
    Block diff;
    for (std::size_t j = 0; j < diff.size(); ++j) {
      diff[j] = static_cast<std::uint8_t>(a[j] ^ b[j]);
    }
    ASSERT_EQ(hamming_weight(a), bit_loop_weight(a)) << "block " << i;
    ASSERT_EQ(hamming_distance(a, b), bit_loop_weight(diff)) << "block " << i;
  }
}

// Property sweeps over random keys/plaintexts.
class AesRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AesRoundTrip, KeyScheduleInversion) {
  util::Xoshiro256 rng(GetParam() + 1000);
  Block key;
  rng.fill_bytes(key);
  const auto keys = Aes128::expand_key(key);
  EXPECT_EQ(Aes128::master_key_from_round10(keys[10]), key);
}

TEST_P(AesRoundTrip, TraceCiphertextConsistent) {
  util::Xoshiro256 rng(GetParam() + 2000);
  Block key;
  Block pt;
  rng.fill_bytes(key);
  rng.fill_bytes(pt);
  Aes128 cipher(key);
  RoundTrace trace;
  EXPECT_EQ(cipher.encrypt_trace(pt, trace), cipher.encrypt(pt));
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, AesRoundTrip,
                         ::testing::Range<std::uint64_t>(0, 16));

}  // namespace
}  // namespace psc::aes
