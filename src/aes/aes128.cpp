#include "aes/aes128.h"

#include <bit>
#include <cstring>

#include "aes/sbox.h"

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

// The block as two 64-bit words: two popcounts instead of sixteen.
std::array<std::uint64_t, 2> block_words(const Block& block) noexcept {
  std::array<std::uint64_t, 2> words;
  std::memcpy(words.data(), block.data(), sizeof words);
  return words;
}

}  // namespace

void sub_bytes(Block& state) noexcept {
  for (auto& b : state) {
    b = sbox[b];
  }
}

void inv_sub_bytes(Block& state) noexcept {
  for (auto& b : state) {
    b = inv_sbox[b];
  }
}

void shift_rows(Block& state) noexcept {
  Block out;
  for (std::size_t i = 0; i < 16; ++i) {
    out[i] = state[shift_rows_source(i)];
  }
  state = out;
}

void inv_shift_rows(Block& state) noexcept {
  Block out;
  for (std::size_t i = 0; i < 16; ++i) {
    out[shift_rows_source(i)] = state[i];
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

void inv_mix_columns(Block& state) noexcept {
  for (std::size_t c = 0; c < 4; ++c) {
    const std::uint8_t a0 = state[4 * c];
    const std::uint8_t a1 = state[4 * c + 1];
    const std::uint8_t a2 = state[4 * c + 2];
    const std::uint8_t a3 = state[4 * c + 3];
    state[4 * c] = static_cast<std::uint8_t>(gf_mul(a0, 0x0e) ^
                                             gf_mul(a1, 0x0b) ^
                                             gf_mul(a2, 0x0d) ^
                                             gf_mul(a3, 0x09));
    state[4 * c + 1] = static_cast<std::uint8_t>(gf_mul(a0, 0x09) ^
                                                 gf_mul(a1, 0x0e) ^
                                                 gf_mul(a2, 0x0b) ^
                                                 gf_mul(a3, 0x0d));
    state[4 * c + 2] = static_cast<std::uint8_t>(gf_mul(a0, 0x0d) ^
                                                 gf_mul(a1, 0x09) ^
                                                 gf_mul(a2, 0x0e) ^
                                                 gf_mul(a3, 0x0b));
    state[4 * c + 3] = static_cast<std::uint8_t>(gf_mul(a0, 0x0b) ^
                                                 gf_mul(a1, 0x0d) ^
                                                 gf_mul(a2, 0x09) ^
                                                 gf_mul(a3, 0x0e));
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

Block Aes128::decrypt(const Block& ciphertext) const noexcept {
  Block state = ciphertext;
  add_round_key(state, round_keys_[num_rounds]);
  inv_shift_rows(state);
  inv_sub_bytes(state);
  for (int round = num_rounds - 1; round >= 1; --round) {
    add_round_key(state, round_keys_[static_cast<std::size_t>(round)]);
    inv_mix_columns(state);
    inv_shift_rows(state);
    inv_sub_bytes(state);
  }
  add_round_key(state, round_keys_[0]);
  return state;
}

int hamming_weight(const Block& block) noexcept {
  const auto [lo, hi] = block_words(block);
  return std::popcount(lo) + std::popcount(hi);
}

int hamming_distance(const Block& a, const Block& b) noexcept {
  const auto [a_lo, a_hi] = block_words(a);
  const auto [b_lo, b_hi] = block_words(b);
  return std::popcount(a_lo ^ b_lo) + std::popcount(a_hi ^ b_hi);
}

}  // namespace psc::aes
