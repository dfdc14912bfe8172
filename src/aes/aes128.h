// AES-128 (FIPS-197) with full intermediate-state capture.
//
// The simulator needs more than encrypt: the leakage model consumes
// the true intermediate round states of every encryption, and the CPA
// attack needs the key schedule in both directions (a round-10 key recovered
// by a last-round attack must be inverted to the master key). The state is
// kept as a flat 16-byte block in FIPS input order (byte i holds state
// element s[i%4][i/4], i.e. columns are consecutive 4-byte groups).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

namespace psc::aes {

using Block = std::array<std::uint8_t, 16>;

// Number of AES-128 rounds.
inline constexpr int num_rounds = 10;

// All intermediate states of one encryption, for leakage evaluation.
//   post_add_round_key[r] : state after AddRoundKey of round r (r=0 is the
//                           initial whitening; r=10 is the ciphertext).
//   post_sub_bytes[r-1]   : state after SubBytes of round r (r=1..10).
struct RoundTrace {
  std::array<Block, num_rounds + 1> post_add_round_key{};
  std::array<Block, num_rounds> post_sub_bytes{};
};

// Bit counts of the round states of up to `capacity` encryptions, the
// inputs of every leakage sum. Stored term-major, bits[term][trace], so
// that the sums run one vector lane per trace; 64 traces keep a whole
// block of the simulated device's scratch in L1 (measured as fast as 256
// and lighter on a campaign's peak RSS). The terms of trace t:
//   bits[ark(r)][t]         HW(post_add_round_key[r]), r = 0..10
//   bits[sbox(r)][t]        HW(post_sub_bytes[r]), r = 0..9
//   bits[plaintext][t]      HW(plaintext)
//   bits[last_round_hd][t]  HD(post_add_round_key[9], post_add_round_key[10])
// Every count is at most 128, so a byte holds it.
struct RoundCounts {
  static constexpr std::size_t capacity = 64;
  static constexpr std::size_t terms = 2 * num_rounds + 3;
  static constexpr std::size_t ark(std::size_t r) noexcept { return r; }
  static constexpr std::size_t sbox(std::size_t r) noexcept {
    return num_rounds + 1 + r;
  }
  static constexpr std::size_t plaintext = 2 * num_rounds + 1;
  static constexpr std::size_t last_round_hd = 2 * num_rounds + 2;

  alignas(32) std::array<std::array<std::uint8_t, capacity>, terms> bits;
};

// AES-128 block cipher with a fixed key.
class Aes128 {
 public:
  // Expands the 16-byte key into all 11 round keys.
  explicit Aes128(const Block& key) noexcept;

  // Encrypts one block.
  Block encrypt(const Block& plaintext) const noexcept;

  // Encrypts one block and records all intermediate states in `trace`.
  // Returns the ciphertext (== trace.post_add_round_key[10]).
  //
  // Dispatch: on x86-64, when the CPU has AES-NI and SSSE3 and
  // util::simd::active_backend() is not `scalar`, a target("aes,ssse3")
  // body runs: each AESENC (AESENCLAST for round 10) output is a
  // post_add_round_key state, and AESENCLAST with a zero round key
  // followed by an inverse-ShiftRows PSHUFB gives each post_sub_bytes
  // state. Otherwise (PSC_SIMD=scalar, other CPUs, PSC_FORCE_SCALAR
  // builds) the portable byte-wise body runs. Both record byte-identical
  // traces; tests/aes/aes128_test.cpp pins each to FIPS-197 appendix B
  // and to each other.
  Block encrypt_trace(const Block& plaintext, RoundTrace& trace) const noexcept;

  // Encrypts plaintexts[t] into ciphertexts[t] for every t <
  // plaintexts.size() (at most RoundCounts::capacity; the spans have equal
  // size) and writes the bit counts of the states encrypt_trace would
  // record into `counts`, without recording the states.
  //
  // Dispatch: on x86-64, when the CPU has AES-NI, POPCNT and SSE4.1 and
  // util::simd::active_backend() is not `scalar`, four blocks run
  // interleaved through AESENC and are counted with POPCNT straight from
  // the registers. HW(post_sub_bytes) is the count of AESENCLAST(s, 0),
  // because ShiftRows only moves bytes. Otherwise each block runs through
  // encrypt_trace and the portable popcount. Counts are integers, so both
  // bodies write the same bytes.
  void count_round_states(std::span<const Block> plaintexts,
                          std::span<Block> ciphertexts,
                          RoundCounts& counts) const noexcept;

  // Round keys rk[0..10]; rk[0] is the master key.
  const std::array<Block, num_rounds + 1>& round_keys() const noexcept {
    return round_keys_;
  }

  // Forward key expansion (exposed for tests and for key-schedule
  // inversion checks).
  static std::array<Block, num_rounds + 1> expand_key(
      const Block& key) noexcept;

  // Reconstructs the master key from the round-10 key by running the key
  // schedule backwards. A last-round CPA recovers rk[10]; this maps it to
  // the AES-128 key the victim loaded.
  static Block master_key_from_round10(const Block& round10_key) noexcept;

 private:
  std::array<Block, num_rounds + 1> round_keys_{};
};

// In-place forward round primitives of the portable body, exposed so that
// tests can check round structure with the exact same transforms.
void sub_bytes(Block& state) noexcept;
void shift_rows(Block& state) noexcept;
void mix_columns(Block& state) noexcept;
void add_round_key(Block& state, const Block& round_key) noexcept;

// Index of the state byte that ShiftRows moves *into* position i: after
// ShiftRows, out[i] == in[shift_rows_source(i)].
constexpr std::size_t shift_rows_source(std::size_t i) noexcept {
  const std::size_t row = i % 4;
  const std::size_t col = i / 4;
  return row + 4 * ((col + row) % 4);
}

// Hamming weight of one byte.
constexpr int hamming_weight(std::uint8_t b) noexcept {
  return std::popcount(b);
}

// Hamming distance between two blocks (0..128), as two 64-bit popcounts.
// Always inlined, so that a caller compiled for POPCNT (the dispatched
// body of power::LeakageEvaluator::encryption_energy) counts with the
// instruction and every other caller with the portable code.
[[gnu::always_inline]] inline int hamming_distance(const Block& a,
                                                   const Block& b) noexcept {
  std::uint64_t wa[2];
  std::uint64_t wb[2];
  std::memcpy(wa, a.data(), sizeof wa);
  std::memcpy(wb, b.data(), sizeof wb);
  return std::popcount(wa[0] ^ wb[0]) + std::popcount(wa[1] ^ wb[1]);
}

// Hamming weight of a 16-byte block (0..128).
[[gnu::always_inline]] inline int hamming_weight(const Block& block) noexcept {
  return hamming_distance(block, Block{});
}

}  // namespace psc::aes
