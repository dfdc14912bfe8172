#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace psc::util {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::add_batch(std::span<const double> xs) noexcept {
  for (const double x : xs) {
    add(x);
  }
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
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
