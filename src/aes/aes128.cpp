#include "aes/aes128.h"

#include "aes/sbox.h"
#include "util/simd.h"

#if defined(PSC_SIMD_X86)
#include <immintrin.h>
#endif

namespace psc::aes {

namespace {

constexpr std::array<std::uint8_t, 11> rcon = {0x00, 0x01, 0x02, 0x04,
                                               0x08, 0x10, 0x20, 0x40,
                                               0x80, 0x1b, 0x36};

// Words of the expanded key, little-endian over the byte stream: word i is
// bytes [4i, 4i+4) of the concatenated round keys.
using Word = std::array<std::uint8_t, 4>;

Word sub_word(Word w) noexcept {
  for (auto& b : w) {
    b = sbox[b];
  }
  return w;
}

Word rot_word(Word w) noexcept {
  return {w[1], w[2], w[3], w[0]};
}

Word xor_word(Word a, const Word& b) noexcept {
  for (std::size_t i = 0; i < 4; ++i) {
    a[i] ^= b[i];
  }
  return a;
}

Word get_word(const std::array<Block, num_rounds + 1>& keys,
              std::size_t i) noexcept {
  const Block& blk = keys[i / 4];
  const std::size_t off = (i % 4) * 4;
  return {blk[off], blk[off + 1], blk[off + 2], blk[off + 3]};
}

void set_word(std::array<Block, num_rounds + 1>& keys, std::size_t i,
              const Word& w) noexcept {
  Block& blk = keys[i / 4];
  const std::size_t off = (i % 4) * 4;
  for (std::size_t b = 0; b < 4; ++b) {
    blk[off + b] = w[b];
  }
}

#if defined(PSC_SIMD_X86)
__m128i load_block(const Block& block) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(block.data()));
}

void store_block(Block& block, __m128i v) noexcept {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(block.data()), v);
}

// AESENC is SubBytes, ShiftRows, MixColumns, AddRoundKey and AESENCLAST
// drops MixColumns, so each output is a post_add_round_key state.
// AESENCLAST with a zero key is ShiftRows(SubBytes(s)); the PSHUFB mask
// undoes the ShiftRows (out[i] = in[mask[i]], the inverse permutation of
// shift_rows_source), leaving the post_sub_bytes state.
__attribute__((target("aes,ssse3"))) Block encrypt_trace_aesni(
    const std::array<Block, num_rounds + 1>& round_keys,
    const Block& plaintext, RoundTrace& trace) noexcept {
  const __m128i inv_shift_rows_mask =
      _mm_setr_epi8(0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3);
  const __m128i zero = _mm_setzero_si128();
  __m128i state = _mm_xor_si128(load_block(plaintext),
                                load_block(round_keys[0]));
  store_block(trace.post_add_round_key[0], state);
  for (std::size_t round = 1; round <= num_rounds; ++round) {
    store_block(trace.post_sub_bytes[round - 1],
                _mm_shuffle_epi8(_mm_aesenclast_si128(state, zero),
                                 inv_shift_rows_mask));
    const __m128i key = load_block(round_keys[round]);
    state = round < num_rounds ? _mm_aesenc_si128(state, key)
                               : _mm_aesenclast_si128(state, key);
    store_block(trace.post_add_round_key[round], state);
  }
  Block ciphertext;
  store_block(ciphertext, state);
  return ciphertext;
}

// AES-NI runs unless dispatch is pinned to the portable bodies
// (PSC_SIMD=scalar or util::simd::force_backend(Backend::scalar)).
bool use_aesni() noexcept {
  static const bool cpu_has_aesni = __builtin_cpu_supports("aes") != 0 &&
                                    __builtin_cpu_supports("ssse3") != 0;
  return cpu_has_aesni &&
         util::simd::active_backend() != util::simd::Backend::scalar;
}

__attribute__((target("popcnt,sse4.1"))) inline std::uint8_t bit_count(
    __m128i v) noexcept {
  return static_cast<std::uint8_t>(
      _mm_popcnt_u64(static_cast<std::uint64_t>(_mm_cvtsi128_si64(v))) +
      _mm_popcnt_u64(static_cast<std::uint64_t>(_mm_extract_epi64(v, 1))));
}

// `lanes` blocks starting at trace t, interleaved round by round so the
// AESENC latencies overlap.
template <std::size_t lanes>
__attribute__((target("aes,popcnt,sse4.1"))) inline void count_lanes_aesni(
    const std::array<Block, num_rounds + 1>& round_keys, const Block* pts,
    Block* cts, RoundCounts& counts, std::size_t t) noexcept {
  auto& bits = counts.bits;
  const __m128i zero = _mm_setzero_si128();
  const __m128i key0 = load_block(round_keys[0]);
  __m128i state[lanes];
  __m128i round9[lanes];
  for (std::size_t l = 0; l < lanes; ++l) {
    const __m128i pt = load_block(pts[t + l]);
    bits[RoundCounts::plaintext][t + l] = bit_count(pt);
    state[l] = _mm_xor_si128(pt, key0);
    bits[RoundCounts::ark(0)][t + l] = bit_count(state[l]);
  }
  for (std::size_t round = 1; round <= num_rounds; ++round) {
    const __m128i key = load_block(round_keys[round]);
    for (std::size_t l = 0; l < lanes; ++l) {
      bits[RoundCounts::sbox(round - 1)][t + l] =
          bit_count(_mm_aesenclast_si128(state[l], zero));
      if (round < num_rounds) {
        state[l] = _mm_aesenc_si128(state[l], key);
      } else {
        round9[l] = state[l];
        state[l] = _mm_aesenclast_si128(state[l], key);
      }
      bits[RoundCounts::ark(round)][t + l] = bit_count(state[l]);
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    bits[RoundCounts::last_round_hd][t + l] =
        bit_count(_mm_xor_si128(round9[l], state[l]));
    store_block(cts[t + l], state[l]);
  }
}

__attribute__((target("aes,popcnt,sse4.1"))) void count_round_states_aesni(
    const std::array<Block, num_rounds + 1>& round_keys, const Block* pts,
    Block* cts, std::size_t n, RoundCounts& counts) noexcept {
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    count_lanes_aesni<4>(round_keys, pts, cts, counts, t);
  }
  for (; t < n; ++t) {
    count_lanes_aesni<1>(round_keys, pts, cts, counts, t);
  }
}

// The counting body runs under the same switch, on CPUs that also have
// POPCNT and SSE4.1 (for the upper-word extract).
bool use_aesni_popcnt() noexcept {
  static const bool cpu_has_popcnt = __builtin_cpu_supports("popcnt") != 0 &&
                                     __builtin_cpu_supports("sse4.1") != 0;
  return cpu_has_popcnt && use_aesni();
}
#endif  // PSC_SIMD_X86

}  // namespace

void sub_bytes(Block& state) noexcept {
  for (auto& b : state) {
    b = sbox[b];
  }
}

void shift_rows(Block& state) noexcept {
  Block out;
  for (std::size_t i = 0; i < 16; ++i) {
    out[i] = state[shift_rows_source(i)];
  }
  state = out;
}

void mix_columns(Block& state) noexcept {
  for (std::size_t c = 0; c < 4; ++c) {
    const std::uint8_t a0 = state[4 * c];
    const std::uint8_t a1 = state[4 * c + 1];
    const std::uint8_t a2 = state[4 * c + 2];
    const std::uint8_t a3 = state[4 * c + 3];
    state[4 * c] = static_cast<std::uint8_t>(xtime(a0) ^ xtime(a1) ^ a1 ^ a2 ^
                                             a3);
    state[4 * c + 1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ xtime(a2) ^
                                                 a2 ^ a3);
    state[4 * c + 2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^
                                                 xtime(a3) ^ a3);
    state[4 * c + 3] = static_cast<std::uint8_t>(xtime(a0) ^ a0 ^ a1 ^ a2 ^
                                                 xtime(a3));
  }
}

void add_round_key(Block& state, const Block& round_key) noexcept {
  for (std::size_t i = 0; i < 16; ++i) {
    state[i] ^= round_key[i];
  }
}

std::array<Block, num_rounds + 1> Aes128::expand_key(
    const Block& key) noexcept {
  std::array<Block, num_rounds + 1> keys{};
  keys[0] = key;
  for (std::size_t i = 4; i < 44; ++i) {
    Word temp = get_word(keys, i - 1);
    if (i % 4 == 0) {
      temp = sub_word(rot_word(temp));
      temp[0] ^= rcon[i / 4];
    }
    set_word(keys, i, xor_word(temp, get_word(keys, i - 4)));
  }
  return keys;
}

Block Aes128::master_key_from_round10(const Block& round10_key) noexcept {
  std::array<Block, num_rounds + 1> keys{};
  keys[num_rounds] = round10_key;
  // Walk the schedule backwards: w[i-4] = w[i] ^ f(w[i-1]). Descending i
  // guarantees both operands are already known.
  for (std::size_t i = 43; i >= 4; --i) {
    Word temp = get_word(keys, i - 1);
    if (i % 4 == 0) {
      temp = sub_word(rot_word(temp));
      temp[0] ^= rcon[i / 4];
    }
    set_word(keys, i - 4, xor_word(temp, get_word(keys, i)));
  }
  return keys[0];
}

Aes128::Aes128(const Block& key) noexcept : round_keys_(expand_key(key)) {}

Block Aes128::encrypt(const Block& plaintext) const noexcept {
  Block state = plaintext;
  add_round_key(state, round_keys_[0]);
  for (int round = 1; round < num_rounds; ++round) {
    sub_bytes(state);
    shift_rows(state);
    mix_columns(state);
    add_round_key(state, round_keys_[static_cast<std::size_t>(round)]);
  }
  sub_bytes(state);
  shift_rows(state);
  add_round_key(state, round_keys_[num_rounds]);
  return state;
}

Block Aes128::encrypt_trace(const Block& plaintext,
                            RoundTrace& trace) const noexcept {
#if defined(PSC_SIMD_X86)
  if (use_aesni()) {
    return encrypt_trace_aesni(round_keys_, plaintext, trace);
  }
#endif
  Block state = plaintext;
  add_round_key(state, round_keys_[0]);
  trace.post_add_round_key[0] = state;
  for (int round = 1; round < num_rounds; ++round) {
    sub_bytes(state);
    trace.post_sub_bytes[static_cast<std::size_t>(round - 1)] = state;
    shift_rows(state);
    mix_columns(state);
    add_round_key(state, round_keys_[static_cast<std::size_t>(round)]);
    trace.post_add_round_key[static_cast<std::size_t>(round)] = state;
  }
  sub_bytes(state);
  trace.post_sub_bytes[num_rounds - 1] = state;
  shift_rows(state);
  add_round_key(state, round_keys_[num_rounds]);
  trace.post_add_round_key[num_rounds] = state;
  return state;
}

void Aes128::count_round_states(std::span<const Block> plaintexts,
                                std::span<Block> ciphertexts,
                                RoundCounts& counts) const noexcept {
  const std::size_t n = plaintexts.size();
#if defined(PSC_SIMD_X86)
  if (use_aesni_popcnt()) {
    count_round_states_aesni(round_keys_, plaintexts.data(),
                             ciphertexts.data(), n, counts);
    return;
  }
#endif
  auto& bits = counts.bits;
  RoundTrace trace;
  for (std::size_t t = 0; t < n; ++t) {
    ciphertexts[t] = encrypt_trace(plaintexts[t], trace);
    for (std::size_t r = 0; r <= num_rounds; ++r) {
      bits[RoundCounts::ark(r)][t] = static_cast<std::uint8_t>(
          hamming_weight(trace.post_add_round_key[r]));
    }
    for (std::size_t r = 0; r < num_rounds; ++r) {
      bits[RoundCounts::sbox(r)][t] =
          static_cast<std::uint8_t>(hamming_weight(trace.post_sub_bytes[r]));
    }
    bits[RoundCounts::plaintext][t] =
        static_cast<std::uint8_t>(hamming_weight(plaintexts[t]));
    bits[RoundCounts::last_round_hd][t] =
        static_cast<std::uint8_t>(hamming_distance(
            trace.post_add_round_key[num_rounds - 1],
            trace.post_add_round_key[num_rounds]));
  }
}

}  // namespace psc::aes
