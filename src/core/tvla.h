// Test Vector Leakage Assessment (Goodwill et al.), as applied in paper
// sections 3.3/3.5/3.6: fixed-plaintext trace sets are pairwise compared
// with Welch's t-test; |t| >= 4.5 marks the sets as distinguishable.
//
// The paper's tables compare a primed and an unprimed collection of each
// of three plaintext classes (all-0s, all-1s, random), giving a 3x3 grid
// whose cells classify as true/false positive/negative.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "aes/aes128.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/stats.h"

namespace psc::core {

enum class PlaintextClass : std::size_t {
  all_zeros = 0,
  all_ones = 1,
  random_pt = 2,
};

inline constexpr std::array<PlaintextClass, 3> all_plaintext_classes = {
    PlaintextClass::all_zeros, PlaintextClass::all_ones,
    PlaintextClass::random_pt};

std::string_view plaintext_class_name(PlaintextClass cls) noexcept;

// The plaintext an attacker submits for a class; random_pt draws fresh
// bytes from `rng` per trace.
aes::Block class_plaintext(PlaintextClass cls, util::Xoshiro256& rng);

// TVLA cell classification (the paper's colour coding).
enum class TvlaCell {
  true_positive,   // different classes, distinguishable
  true_negative,   // same class, not distinguishable
  false_positive,  // same class, distinguishable
  false_negative,  // different classes, not distinguishable
};

std::string_view tvla_cell_name(TvlaCell cell) noexcept;

// 3x3 grid of t-scores: rows are primed collections (All 0s', All 1s',
// Random'), columns unprimed (All 0s, All 1s, Random) — the layout of
// Tables 3/5/6.
struct TvlaMatrix {
  std::array<std::array<double, 3>, 3> t{};

  double score(PlaintextClass primed, PlaintextClass unprimed) const {
    return t[static_cast<std::size_t>(primed)]
            [static_cast<std::size_t>(unprimed)];
  }

  TvlaCell classify(PlaintextClass primed, PlaintextClass unprimed) const;

  // Counts over all 9 cells.
  struct Counts {
    int true_positive = 0;
    int true_negative = 0;
    int false_positive = 0;
    int false_negative = 0;
  };
  Counts counts() const;

  // A channel is leakage-positive when every cross-class pair is
  // distinguishable and no same-class pair is (PHPC's behaviour).
  bool perfectly_data_dependent() const;
  // A channel shows no leakage when no cross-class pair is distinguishable
  // (PHPS / PCPU / throttled-timing behaviour).
  bool no_data_dependence() const;
};

// Streaming accumulator for one measured channel: feed values tagged with
// (class, primed-or-not), then extract the matrix. The batch path ingests
// a whole TraceBatch value column at once (see core::TvlaSink for the
// multi-channel fan-out over labeled acquisition batches).
//
// Each of the six sets keeps raw striped moment sums (util/simd.h) so the
// batch path runs on the dispatched SIMD kernels; per-value and batch
// feeding — and both SIMD modes — produce bit-identical state. The
// matrix is computed from the summarized moments via Welch's test.
class TvlaAccumulator {
 public:
  void add(PlaintextClass cls, bool primed, double value) noexcept;

  // Feeds a batch of values for one (class, collection); equivalent to
  // adding each value in order (bit-for-bit, see util/simd.h).
  void add_batch(PlaintextClass cls, bool primed,
                 std::span<const double> values) noexcept;

  // Absorbs another accumulator's partial state, as if its samples had
  // been added here. The merge step of the sharded TVLA pipeline.
  void merge(const TvlaAccumulator& other) noexcept;

  std::size_t count(PlaintextClass cls, bool primed) const noexcept;

  TvlaMatrix matrix() const noexcept;

 private:
  // One (class, collection) sample set: striped moment sums plus count.
  // Cache-line aligned via MomentStripes, so shard accumulators ingesting
  // on different workers never false-share.
  struct SetMoments {
    std::uint64_t n = 0;
    util::simd::MomentStripes moments;

    util::MomentSummary summary() const noexcept;
  };

  SetMoments& set(PlaintextClass cls, bool primed) noexcept {
    return sets_[static_cast<std::size_t>(cls)][primed ? 1 : 0];
  }
  const SetMoments& set(PlaintextClass cls, bool primed) const noexcept {
    return sets_[static_cast<std::size_t>(cls)][primed ? 1 : 0];
  }

  // [class][0]=unprimed, [class][1]=primed.
  std::array<std::array<SetMoments, 2>, 3> sets_{};
};

}  // namespace psc::core
