#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

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

WelchResult welch_t_test(const RunningStats& a,
                         const RunningStats& b) noexcept {
  return welch_t_test(MomentSummary{a.count(), a.mean(), a.variance()},
                      MomentSummary{b.count(), b.mean(), b.variance()});
}

WelchResult welch_t_test(std::span<const double> a,
                         std::span<const double> b) noexcept {
  RunningStats sa;
  RunningStats sb;
  for (const double x : a) {
    sa.add(x);
  }
  for (const double x : b) {
    sb.add(x);
  }
  return welch_t_test(sa, sb);
}

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) {
    return 0.0;
  }
  double acc = 0.0;
  for (const double x : xs) {
    acc += x;
  }
  return acc / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  RunningStats s;
  for (const double x : xs) {
    s.add(x);
  }
  return s.variance();
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) {
    return 0.0;
  }
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double pos =
      clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace psc::util
