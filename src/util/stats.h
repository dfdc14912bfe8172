// Statistics primitives: numerically stable running moments and Welch's
// t-test (the leakage-assessment TVLA engine's statistic).
#pragma once

#include <cstddef>

namespace psc::util {

// Numerically stable running mean/variance (Welford's algorithm).
class RunningStats {
 public:
  // Adds one observation.
  void add(double x) noexcept;

  std::size_t count() const noexcept { return count_; }
  // Mean of the samples seen so far; 0 when empty.
  double mean() const noexcept { return mean_; }
  // Unbiased sample variance (divides by n-1); 0 when count < 2.
  double variance() const noexcept;
  double stddev() const noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

// Result of a Welch two-sample t-test.
struct WelchResult {
  double t = 0.0;    // t statistic (sign: mean(a) - mean(b))
  double dof = 0.0;  // Welch-Satterthwaite degrees of freedom
};

// Moment summary of one sample set — the exact inputs Welch's test needs.
// Accumulators that keep raw striped sums (util/simd.h) summarize into
// this instead of carrying Welford state.
struct MomentSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  // unbiased (n-1 denominator); 0 when count < 2
};

// Welch's unequal-variance t-test between two summarized sample sets.
// Returns t = 0 when either set has fewer than two samples or both
// variances are zero.
WelchResult welch_t_test(const MomentSummary& a,
                         const MomentSummary& b) noexcept;

// TVLA threshold from Goodwill et al.: |t| >= 4.5 indicates the two trace
// sets are distinguishable with confidence > 99.999%.
inline constexpr double tvla_threshold = 4.5;

}  // namespace psc::util
