// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every stochastic component of the simulator (sensor noise, scheduler jitter,
// plaintext generation) draws from an explicitly seeded generator so that a
// whole campaign is reproducible from a single seed. The engines are
// SplitMix64 (seeding / cheap streams) and Xoshiro256** (main engine),
// both public-domain algorithms by Steele/Lea and Blackman/Vigna.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstddef>
#include <limits>
#include <span>

namespace psc::util {

// SplitMix64: a tiny 64-bit generator. Primarily used to expand a single
// 64-bit seed into the larger state of Xoshiro256 and to derive independent
// child seeds for subsystems.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  constexpr explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr result_type operator()() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

 private:
  std::uint64_t state_;
};

// Xoshiro256**: fast, high-quality 64-bit generator with 256-bit state.
// Satisfies the UniformRandomBitGenerator requirements.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  // Expands `seed` into the full state via SplitMix64 (the recommended
  // seeding procedure from the authors).
  explicit Xoshiro256(std::uint64_t seed) noexcept;

  result_type operator()() noexcept { return next(state_); }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  // Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() noexcept { return unit_interval((*this)()); }

  // Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept;

  // Uniform integer in [0, bound) without modulo bias. Requires bound > 0.
  std::uint64_t uniform_u64(std::uint64_t bound) noexcept;

  // Standard normal deviate (Marsaglia polar method; one deviate cached).
  // Every other call returns the cached deviate inline.
  double gaussian() noexcept {
    if (has_cached_gaussian_) {
      has_cached_gaussian_ = false;
      return cached_gaussian_;
    }
    return gaussian_pair();
  }

  // Normal deviate with the given mean and standard deviation.
  double gaussian(double mean, double sigma) noexcept {
    return mean + sigma * gaussian();
  }

  // Fills `out` with standard normal deviates: the same values, and the
  // same generator state afterwards (cached second deviate included), as
  // out.size() calls of gaussian(). Polar candidates are drawn
  // branch-free (always written, kept only when accepted), each accepted
  // pair makes one std::log call, and the square root, divide and
  // multiplies run four pairs per AVX2 instruction unless the active
  // util::simd mode is `scalar`. Both bodies round identically.
  void fill_gaussian(std::span<double> out) noexcept;

  // Fills `out` with independent uniform bytes.
  void fill_bytes(std::span<std::uint8_t> out) noexcept;

  // Returns a generator seeded from this one; the child stream is
  // statistically independent for all practical purposes.
  Xoshiro256 fork() noexcept;

  // Deterministic stream splitting: derives the child generator identified
  // by `stream_id` from the current state *without advancing it*. Distinct
  // ids yield statistically independent streams, and the same id always
  // yields the same stream — the primitive the parallel campaign runner's
  // per-shard reproducibility rests on (shard results are a pure function
  // of the campaign seed and the shard index, not of scheduling order).
  Xoshiro256 split(std::uint64_t stream_id) const noexcept;

  // Jump function equivalent to 2^192 calls; used to create widely
  // separated parallel streams from one seed.
  void long_jump() noexcept;

 private:
  // One Xoshiro256** step of `s`. fill_gaussian runs it on a local copy
  // of the state so the words stay in registers.
  static std::uint64_t next(std::array<std::uint64_t, 4>& s) noexcept {
    const std::uint64_t result = std::rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = std::rotl(s[3], 45);
    return result;
  }

  // Uniform double in [0, 1) from one raw output (53 bits).
  static double unit_interval(std::uint64_t x) noexcept {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  // The polar method's draw for an empty cache: returns the first deviate
  // of a fresh pair and caches the second.
  double gaussian_pair() noexcept;

  std::array<std::uint64_t, 4> state_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace psc::util
