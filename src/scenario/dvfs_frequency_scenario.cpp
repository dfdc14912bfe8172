// DVFS-frequency scenario: the paper's Section 4 channel. A workload
// whose intensity depends on the victim input runs under the reactive
// governor (soc/governor.h) in lowpowermode; when its estimated package
// power exceeds the 4 W budget the governor steps the P-cluster down the
// DVFS ladder, so the cluster's frequency residency (soc/residency.h)
// encodes workload identity. The attacker samples mean frequency and the
// below-ceiling residency fraction over one observation window — the
// powermetrics view of paper Figure 2 — each with a little measurement
// noise (a real attacker estimates frequency from timing loops).
//
// Workload power tracks the applied frequency, so throttling converges to
// the equilibrium state where estimated power crosses the cap: light
// inputs never throttle, heavy inputs settle deep down the ladder, and
// random inputs hover at the cap with input-dependent depth. `leak=0`
// fixes the intensity at 0.5 regardless of input, which must erase every
// cross-class |t| (asserted in tests and the scenario bench).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "aes/aes128.h"
#include "scenario/probe.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "soc/device_profile.h"
#include "soc/governor.h"
#include "soc/residency.h"
#include "util/rng.h"

namespace psc::scenario {

namespace {

constexpr double block_bits = 128.0;

struct DvfsProbeConfig {
  soc::DeviceProfile profile;
  bool lowpower = true;
  double window_s = 0.5;       // observation window per trace
  double idle_w = 1.5;         // package power at zero intensity
  double span_w = 6.0;         // extra power at intensity 1, full frequency
  double power_noise_w = 0.15; // per-decision estimated-power jitter
  double freq_noise_hz = 5e6;  // attacker frequency-estimate jitter
  double residency_noise = 0.01;
  bool leak = true;
};

class DvfsFrequencyProbe final : public ChannelProbe {
 public:
  DvfsFrequencyProbe(const DvfsProbeConfig& config, std::uint64_t seed)
      : config_(config),
        rng_(seed),
        keys_({util::FourCc("FAVG"), util::FourCc("FRES")}),
        initial_governor_(config_.profile.governor, config_.profile.p_ladder),
        residency_(config_.profile.p_ladder) {
    initial_governor_.set_lowpowermode(config_.lowpower);
    // The frequency the workload's power model is normalized to: the
    // highest state the governor will ever apply in this mode.
    ceiling_state_ = initial_governor_.p_state_limit();
    const soc::DvfsLadder& ladder = config_.profile.p_ladder;
    const double ceiling_hz = ladder.frequency_hz(ceiling_state_);
    for (std::size_t s = 0; s <= ceiling_state_; ++s) {
      frequency_ratio_.push_back(ladder.frequency_hz(s) / ceiling_hz);
    }
    // Governor decisions per window, at least one (dvfs_config bounds it).
    steps_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               config_.window_s / config_.profile.governor.decision_period_s));
    deviates_.resize(steps_ + 2);
  }

  const std::vector<util::FourCc>& keys() const noexcept override {
    return keys_;
  }

  void sample(std::span<const aes::Block> inputs,
              std::span<aes::Block> outputs,
              std::span<const std::span<double>> columns) override {
    const double dt = config_.profile.governor.decision_period_s;
    for (std::size_t t = 0; t < inputs.size(); ++t) {
      outputs[t] = inputs[t];  // the workload produces no ciphertext

      const double intensity =
          config_.leak ? aes::hamming_weight(inputs[t]) / block_bits : 0.5;
      // The workload's power above idle at the ceiling frequency.
      const double active_w = intensity * config_.span_w;

      // One power jitter per decision step, then the two measurement
      // jitters: the row's draws, in the order a step loop makes them.
      rng_.fill_gaussian(deviates_);
      soc::Governor governor = initial_governor_;
      residency_.reset();
      for (std::size_t step = 0; step < steps_; ++step) {
        const std::size_t applied =
            std::min(governor.p_state_limit(), ceiling_state_);
        const double power = config_.idle_w +
                             active_w * frequency_ratio_[applied] +
                             config_.power_noise_w * deviates_[step];
        governor.update(power, /*temperature_c=*/45.0, dt);
        residency_.add(std::min(governor.p_state_limit(), ceiling_state_),
                       dt);
      }

      columns[0][t] = residency_.mean_frequency_hz() +
                      config_.freq_noise_hz * deviates_[steps_];
      columns[1][t] = residency_.fraction_below(ceiling_state_) +
                      config_.residency_noise * deviates_[steps_ + 1];
    }
  }

  double window_s() const noexcept override { return config_.window_s; }

 private:
  DvfsProbeConfig config_;
  util::Xoshiro256 rng_;
  std::vector<util::FourCc> keys_;
  soc::Governor initial_governor_;  // each trace starts from a copy
  soc::FrequencyResidency residency_;
  std::size_t ceiling_state_ = 0;
  // Per state up to the ceiling: its frequency over the ceiling's.
  std::vector<double> frequency_ratio_;
  std::size_t steps_ = 0;
  std::vector<double> deviates_;  // one trace's Gaussians
};

soc::DeviceProfile dvfs_profile_for(const std::string& device) {
  if (device == "m1") {
    return soc::DeviceProfile::mac_mini_m1();
  }
  if (device == "m2") {
    return soc::DeviceProfile::macbook_air_m2();
  }
  throw std::invalid_argument(
      "scenario param 'device': expected m1 or m2, got '" + device + "'");
}

// Most governor decisions one trace may simulate: bounds the work of a
// trace, and so of a served job, whatever window_s asks for.
constexpr std::size_t max_decision_steps = 100000;
// Widest frequency-estimate jitter (sigma, MHz): far above any cluster
// clock, and small enough that no deviate scales it to inf.
constexpr double max_freq_noise_mhz = 1e5;

// Every param converted and checked: channels() runs this too, so a bad
// value is a typed error before a served job starts.
DvfsProbeConfig dvfs_config(const ParamSet& params) {
  DvfsProbeConfig config{
      .profile = dvfs_profile_for(params.get("device")),
      .lowpower = params.get_flag("lowpower"),
      .window_s = params.get_double("window_s"),
  };
  const double period_s = config.profile.governor.decision_period_s;
  if (config.window_s <= 0.0 ||
      config.window_s / period_s > static_cast<double>(max_decision_steps)) {
    char limit_s[32];
    std::snprintf(limit_s, sizeof limit_s, "%g",
                  static_cast<double>(max_decision_steps) * period_s);
    throw std::invalid_argument(
        "scenario param 'window_s': must be positive and at most " +
        std::string(limit_s) + " s (" + std::to_string(max_decision_steps) +
        " governor decisions)");
  }
  config.freq_noise_hz =
      params.get_double("freq_noise_mhz", 0.0, max_freq_noise_mhz) * 1e6;
  config.leak = params.get_flag("leak");
  return config;
}

class DvfsFrequencyScenario final : public Scenario {
 public:
  std::string name() const override { return "dvfs-frequency"; }
  std::string description() const override {
    return "throttling governor leaks workload identity through P-cluster "
           "frequency residency (paper section 4)";
  }
  std::string victim() const override {
    return "workload whose intensity follows the input's popcount";
  }
  std::string channel() const override {
    return "mean P-cluster frequency + below-ceiling residency fraction";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"device", "m2", "simulated platform: m1 (Mac Mini) or m2 "
                         "(MacBook Air)"},
        {"lowpower", "1", "run under the lowpowermode 4 W budget (0/1)"},
        {"window_s", "0.5",
         "observation window per trace (seconds, at most 100000 governor "
         "decisions)"},
        {"freq_noise_mhz", "5",
         "attacker frequency-estimate jitter sigma (MHz, 0..1e5)"},
        {"leak", "1", "0 = input-independent intensity (channel disabled)"},
    };
  }

  std::vector<util::FourCc> channels(const ParamSet& params) const override {
    (void)dvfs_config(params);
    return {util::FourCc("FAVG"), util::FourCc("FRES")};
  }

  AnalysisSpec analysis(const ParamSet& params) const override {
    AnalysisSpec spec;
    spec.default_traces_per_set = 1500;
    spec.cpa = false;  // frequency residency carries no S-box model
    spec.leakage_channels = channels(params);
    return spec;
  }

  std::unique_ptr<core::TraceSource> make_source(
      const ParamSet& params, const aes::Block& secret,
      std::uint64_t seed) const override {
    // The DVFS channel leaks *workload identity*, not the block cipher
    // key: the secret block does not parameterize the victim (the input
    // plays that role, mirroring the paper's unprivileged-observer
    // setup).
    (void)secret;
    return std::make_unique<ProbeTraceSource>(
        std::make_unique<DvfsFrequencyProbe>(dvfs_config(params), seed));
  }
};

}  // namespace

std::unique_ptr<Scenario> make_dvfs_frequency_scenario() {
  return std::make_unique<DvfsFrequencyScenario>();
}

}  // namespace psc::scenario
