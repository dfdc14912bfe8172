// Measurement-path distortions applied between a physical rail power and
// the value a software-visible sensor reports: additive electrical noise
// and ADC quantization.
#pragma once

#include <span>

#include "util/rng.h"

namespace psc::power {

// Zero-mean Gaussian measurement noise with fixed standard deviation.
class GaussianNoise {
 public:
  explicit GaussianNoise(double sigma) noexcept : sigma_(sigma) {}

  double sigma() const noexcept { return sigma_; }

  // One noise sample.
  double sample(util::Xoshiro256& rng) const noexcept {
    return sigma_ == 0.0 ? 0.0 : rng.gaussian(0.0, sigma_);
  }

  // `value` plus one noise sample.
  double apply(double value, util::Xoshiro256& rng) const noexcept {
    return value + sample(rng);
  }

 private:
  double sigma_;
};

// Uniform mid-tread quantizer modelling sensor ADC resolution. A step of
// 1e-6 represents a uW-resolution power meter, 1e-3 a mW one.
class Quantizer {
 public:
  // step == 0 disables quantization (identity).
  explicit Quantizer(double step) noexcept : step_(step) {}

  double step() const noexcept { return step_; }

  double apply(double value) const noexcept;

  // apply() on every element of `values`, in place, bit for bit. On
  // x86-64 with AVX2, unless util::simd::active_backend() is `scalar`,
  // four lanes at a time with an exact vector round half away from zero;
  // otherwise with std::round. The simulated device quantizes each
  // sensor column with it.
  void apply(std::span<double> values) const noexcept;

 private:
  double step_;
};

}  // namespace psc::power
