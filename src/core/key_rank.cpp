#include "core/key_rank.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace psc::core {

namespace {

double safe_log2(double count) noexcept {
  return count < 1.0 ? 0.0 : std::log2(count);
}

}  // namespace

KeyRankEstimate estimate_key_rank(
    const std::array<ByteRanking, 16>& bytes,
    const std::array<std::uint8_t, 16>& true_key, std::size_t bins) {
  if (bins < 8) {
    throw std::invalid_argument("estimate_key_rank: need at least 8 bins");
  }

  // Global score range across all byte positions, so one bin width maps
  // consistently onto every byte's additive contribution.
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const ByteRanking& byte : bytes) {
    for (const double c : byte.correlation) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
  }
  if (!(hi > lo)) {
    // Degenerate scores (all equal): every key ties with the true key.
    KeyRankEstimate flat;
    flat.log2_rank_lower = 0.0;
    flat.log2_rank_upper = 128.0;
    flat.log2_rank = 64.0;
    return flat;
  }
  const double width = (hi - lo) / static_cast<double>(bins - 1);

  const auto bin_of = [&](double score) {
    return static_cast<std::size_t>(
        std::clamp((score - lo) / width, 0.0,
                   static_cast<double>(bins - 1)));
  };

  // Convolve the 16 per-byte histograms. Counts reach 256^16 = 2^128;
  // doubles carry them with ~2^-52 relative error, far below the bin
  // quantization error.
  std::vector<double> acc = {1.0};
  std::size_t true_bin_sum = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    std::vector<double> hist(bins, 0.0);
    for (int g = 0; g < 256; ++g) {
      hist[bin_of(bytes[i].correlation[static_cast<std::size_t>(g)])] +=
          1.0;
    }
    true_bin_sum += bin_of(bytes[i].correlation[true_key[i]]);

    // At most 256 of the bins are occupied, and only those enter the
    // convolution: a zero bin would add acc[a] * 0.0 = +0.0 to a
    // non-negative sum, which leaves it unchanged, so every sum is the
    // same as over all bins.
    std::vector<std::size_t> occupied;
    for (std::size_t b = 0; b < bins; ++b) {
      if (hist[b] != 0.0) {
        occupied.push_back(b);
      }
    }
    std::vector<double> next(acc.size() + bins - 1, 0.0);
    for (std::size_t a = 0; a < acc.size(); ++a) {
      if (acc[a] == 0.0) {
        continue;
      }
      for (const std::size_t b : occupied) {
        next[a + b] += acc[a] * hist[b];
      }
    }
    acc = std::move(next);
  }

  // Keys scoring strictly above the true key's bin sum: lower bound.
  // Adding the true bin's own mass: upper bound.
  double above = 0.0;
  for (std::size_t s = true_bin_sum + 1; s < acc.size(); ++s) {
    above += acc[s];
  }
  const double tied = acc[true_bin_sum];

  KeyRankEstimate est;
  est.log2_rank_lower = safe_log2(above + 1.0);
  est.log2_rank_upper = safe_log2(above + tied);
  est.log2_rank = safe_log2(above + 0.5 * tied + 1.0);
  return est;
}

KeyRankEstimate estimate_key_rank(const ModelResult& result,
                                  std::size_t bins) {
  std::array<std::uint8_t, 16> true_key{};
  for (std::size_t i = 0; i < 16; ++i) {
    true_key[i] = result.scored_key[i];
  }
  return estimate_key_rank(result.bytes, true_key, bins);
}

}  // namespace psc::core
