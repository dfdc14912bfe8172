#include "victim/probe_array.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace psc::victim {

ProbeArrayVictim::ProbeArrayVictim(const ProbeArrayConfig& config,
                                   const aes::Block& secret,
                                   std::uint64_t seed)
    : config_(config), secret_(secret), rng_(seed) {
  if (config_.lines == 0 || config_.lines > 64) {
    throw std::invalid_argument("ProbeArrayVictim: lines must be 1..64");
  }
  if (config_.timer_granularity_ns <= 0.0 || config_.iterations <= 0) {
    throw std::invalid_argument(
        "ProbeArrayVictim: timer granularity and iterations must be "
        "positive");
  }
  if (config_.slc_pressure < 0.0 || config_.slc_pressure > 1.0) {
    throw std::invalid_argument(
        "ProbeArrayVictim: slc_pressure must be in [0, 1]");
  }
}

std::uint64_t ProbeArrayVictim::touched_lines(
    const aes::Block& input) const noexcept {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < input.size(); ++i) {
    const std::uint8_t selector =
        config_.secret_dependent
            ? static_cast<std::uint8_t>(secret_[i] ^ input[i])
            : static_cast<std::uint8_t>(i);
    mask |= std::uint64_t{1} << (selector % config_.lines);
  }
  return mask;
}

double ProbeArrayVictim::probe_line(bool cached) {
  // Held in locals: the generator's out-of-line refill could otherwise
  // make every attempt reload the config.
  const double base = cached ? config_.hit_ns : config_.miss_ns;
  const double noise_ns = config_.noise_ns;
  const double granularity = config_.timer_granularity_ns;
  const int iterations = config_.iterations;
  const int retries = config_.retries_if_zero;
  double sum = 0.0;
  for (int it = 0; it < iterations; ++it) {
    double measured = 0.0;
    // Coarse-timer read with the retry-on-zero idiom: the access is
    // re-timed until a tick boundary lands inside it (or retries run
    // out); every retry re-samples both latency jitter and timer phase.
    for (int attempt = 0; attempt <= retries; ++attempt) {
      const double latency =
          std::max(0.0, base + rng_.gaussian(0.0, noise_ns));
      const double phase = rng_.uniform01() * granularity;
      const double ticks = std::floor((latency + phase) / granularity);
      if (ticks > 0.0) {
        measured = ticks * granularity;
        break;
      }
    }
    sum += measured;
  }
  return sum / iterations;
}

void ProbeArrayVictim::observe(
    std::span<const aes::Block> inputs,
    std::span<const std::span<double>> line_columns) {
  if (line_columns.size() != config_.lines) {
    throw std::invalid_argument(
        "ProbeArrayVictim: one output column per line required");
  }
  const double slc_pressure = config_.slc_pressure;
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    const std::uint64_t touched = touched_lines(inputs[t]);
    for (std::size_t l = 0; l < line_columns.size(); ++l) {
      bool cached = (touched >> l) & 1;
      // Competing SLC occupancy may have evicted the line again before
      // the attacker's reload (EXAM's occupancy noise).
      if (cached && slc_pressure > 0.0 && rng_.uniform01() < slc_pressure) {
        cached = false;
      }
      line_columns[l][t] = probe_line(cached);
    }
  }
}

}  // namespace psc::victim
