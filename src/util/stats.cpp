#include "util/stats.h"

#include <cmath>

namespace psc::util {

void RunningStats::add(double x) noexcept {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept {
  return std::sqrt(variance());
}

WelchResult welch_t_test(const MomentSummary& a,
                         const MomentSummary& b) noexcept {
  if (a.count < 2 || b.count < 2) {
    return {};
  }
  const double na = static_cast<double>(a.count);
  const double nb = static_cast<double>(b.count);
  const double va = a.variance / na;
  const double vb = b.variance / nb;
  const double pooled = va + vb;
  if (pooled <= 0.0) {
    return {};
  }
  WelchResult r;
  r.t = (a.mean - b.mean) / std::sqrt(pooled);
  const double denom =
      va * va / (na - 1.0) + vb * vb / (nb - 1.0);
  r.dof = denom > 0.0 ? pooled * pooled / denom : na + nb - 2.0;
  return r;
}

}  // namespace psc::util
