// Reactive-limit governor: the firmware loop that throttles the P-cluster
// when a limit is hit. Reproduces the two §4 behaviours:
//
//  * Default mode: only the thermal limit exists; sustained heavy load
//    trips it before any power cap, and the governor steps the P-cluster
//    frequency down (thermal throttling).
//  * lowpowermode: the P-cluster is additionally capped at a fixed
//    frequency (1.968 GHz on M2) and a hard package power budget (4 W)
//    is enforced; exceeding it throttles the P-cluster only. E-cores are
//    never throttled (observed to stay at 2.424 GHz).
//
// Crucially, the power input of the cap is the *estimated* power (the PHPS
// model value, derived from utilization), not a measured rail — which is
// why throttling carries no data dependence (Table 6, right column).
#pragma once

#include <algorithm>
#include <cstddef>

#include "soc/dvfs.h"

namespace psc::soc {

struct GovernorConfig {
  double thermal_limit_c = 95.0;      // junction trip point
  double thermal_hysteresis_c = 3.0;  // recover below limit - hysteresis
  double lowpower_cap_w = 4.0;        // package budget in lowpowermode
  double lowpower_cap_margin_w = 0.25;  // re-raise frequency below cap-margin
  double lowpower_max_p_freq_hz = 1.968e9;  // P-cluster ceiling in lowpowermode
  // Steps between governor decisions, in seconds of simulated time.
  double decision_period_s = 0.010;
};

class Governor {
 public:
  Governor(GovernorConfig config, const DvfsLadder& p_ladder);

  void set_lowpowermode(bool enabled) noexcept;
  bool lowpowermode() const noexcept { return lowpowermode_; }

  // Feeds one simulation step; acts only every decision_period_s.
  // `estimated_power_w` is the utilization-model package power (PHPS),
  // `temperature_c` the die temperature. Inline: the DVFS-frequency
  // scenario runs one decision per step of every trace.
  void update(double estimated_power_w, double temperature_c,
              double dt_s) noexcept;

  // Current P-cluster DVFS state limit to be applied by the chip.
  std::size_t p_state_limit() const noexcept { return p_state_limit_; }

  bool thermal_throttling() const noexcept { return thermal_throttling_; }
  bool power_throttling() const noexcept { return power_throttling_; }
  bool throttling() const noexcept {
    return thermal_throttling_ || power_throttling_;
  }

  const GovernorConfig& config() const noexcept { return config_; }

 private:
  // The highest state the current mode allows.
  std::size_t max_allowed_state() const noexcept {
    return lowpowermode_ ? lowpower_max_state_ : max_state_;
  }

  GovernorConfig config_;
  // Both ceilings, resolved from the ladder once at construction.
  std::size_t max_state_;
  std::size_t lowpower_max_state_;
  bool lowpowermode_ = false;
  std::size_t p_state_limit_;
  bool thermal_throttling_ = false;
  bool power_throttling_ = false;
  double time_since_decision_s_ = 0.0;
};

inline void Governor::update(double estimated_power_w, double temperature_c,
                             double dt_s) noexcept {
  time_since_decision_s_ += dt_s;
  if (time_since_decision_s_ < config_.decision_period_s) {
    return;
  }
  time_since_decision_s_ = 0.0;

  const std::size_t ceiling = max_allowed_state();

  // Thermal limit applies in every mode.
  if (temperature_c >= config_.thermal_limit_c) {
    thermal_throttling_ = true;
    if (p_state_limit_ > 0) {
      --p_state_limit_;
    }
    return;
  }
  const bool thermal_recovered =
      temperature_c <
      config_.thermal_limit_c - config_.thermal_hysteresis_c;
  if (thermal_throttling_ && !thermal_recovered) {
    return;  // hold current limit inside the hysteresis band
  }
  thermal_throttling_ = false;

  // Power budget applies only in lowpowermode.
  if (lowpowermode_) {
    if (estimated_power_w > config_.lowpower_cap_w) {
      power_throttling_ = true;
      if (p_state_limit_ > 0) {
        --p_state_limit_;
      }
      return;
    }
    if (estimated_power_w <
        config_.lowpower_cap_w - config_.lowpower_cap_margin_w) {
      if (p_state_limit_ < ceiling) {
        ++p_state_limit_;
      }
      if (p_state_limit_ >= ceiling) {
        power_throttling_ = false;
      }
      return;
    }
    // Inside the margin band: hold (prevents limit cycling).
    return;
  }

  // No active limit: relax toward the ceiling.
  if (p_state_limit_ < ceiling) {
    ++p_state_limit_;
  }
  p_state_limit_ = std::min(p_state_limit_, ceiling);
}

}  // namespace psc::soc
