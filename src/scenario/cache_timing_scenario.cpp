// Cache-timing scenario: flush/reload over a probe array in the simulated
// SoC (victim/probe_array.h). Channels are per-line reload latencies read
// through the platform's coarse timer; the victim's line selection is
// secret XOR input, so fixed-vs-random TVLA classes shift every line's
// hit/miss mix. `slc_pressure` models EXAM-style competing SLC occupancy
// (1.0 erases the channel); `leak=0` pins the victim to an
// input-independent line set, which must drive every cross-class |t|
// under the 4.5 threshold (asserted in tests and the scenario bench).

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/probe.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "victim/probe_array.h"

namespace psc::scenario {

namespace {

std::vector<util::FourCc> line_channels(std::size_t lines) {
  std::vector<util::FourCc> channels;
  channels.reserve(lines);
  for (std::size_t l = 0; l < lines; ++l) {
    // "LN" and two decimal digits: lines are bounded to 1..64.
    const char name[] = {'L', 'N', static_cast<char>('0' + l / 10),
                         static_cast<char>('0' + l % 10), '\0'};
    channels.push_back(*util::FourCc::parse(name));
  }
  return channels;
}

// Most timed reloads (iterations x lines) one trace may run: bounds the
// work of a trace, and so of a served job.
constexpr std::size_t max_reloads_per_trace = 65536;
// Widest reload jitter (sigma, ns): a millisecond, far above any cache
// latency, and small enough that no deviate scales it to inf.
constexpr double max_noise_ns = 1e6;

// Every param converted and checked: channels() runs this too, so a bad
// value is a typed error before a served job starts.
victim::ProbeArrayConfig probe_array_config(const ParamSet& params) {
  victim::ProbeArrayConfig config;
  config.lines = params.get_size("lines");
  if (config.lines == 0 || config.lines > 64) {
    throw std::invalid_argument("scenario param 'lines': must be in 1..64");
  }
  const std::size_t iterations = params.get_size("iterations");
  if (iterations == 0 || iterations > max_reloads_per_trace / config.lines) {
    throw std::invalid_argument(
        "scenario param 'iterations': must be positive, with iterations x "
        "lines at most " +
        std::to_string(max_reloads_per_trace) + " timed reloads per trace");
  }
  config.iterations = static_cast<int>(iterations);
  config.slc_pressure = params.get_double("slc_pressure", 0.0, 1.0);
  config.noise_ns = params.get_double("noise_ns", 0.0, max_noise_ns);
  config.secret_dependent = params.get_flag("leak");
  return config;
}

class ProbeArrayProbe final : public ChannelProbe {
 public:
  ProbeArrayProbe(const victim::ProbeArrayConfig& config,
                  const aes::Block& secret, std::uint64_t seed)
      : victim_(config, secret, seed),
        keys_(line_channels(config.lines)) {}

  const std::vector<util::FourCc>& keys() const noexcept override {
    return keys_;
  }

  void sample(std::span<const aes::Block> inputs,
              std::span<aes::Block> outputs,
              std::span<const std::span<double>> columns) override {
    // The probe-array victim produces no ciphertext.
    std::copy(inputs.begin(), inputs.end(), outputs.begin());
    victim_.observe(inputs, columns);
  }

  // A flush + trigger + reload round over the whole array is micro-scale
  // work, not an SMC update window.
  double window_s() const noexcept override { return 1e-4; }

 private:
  victim::ProbeArrayVictim victim_;
  std::vector<util::FourCc> keys_;
};

class CacheTimingScenario final : public Scenario {
 public:
  std::string name() const override { return "cache-timing"; }
  std::string description() const override {
    return "probe-array flush/reload in the simulated SoC, per-line "
           "coarse-timer reload latency (EXAM-style SLC occupancy knob)";
  }
  std::string victim() const override {
    return "probe-array accessor touching secret XOR input lines";
  }
  std::string channel() const override {
    return "per-line reload latency via the coarse (24 MHz) timer";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"lines", "16", "probe-array lines (1..64), one channel each"},
        {"iterations", "4",
         "timed reloads averaged per line (iterations x lines <= 65536)"},
        {"slc_pressure", "0",
         "[0,1] probability competing SLC occupancy evicts a touched line "
         "before reload"},
        {"noise_ns", "12", "reload latency jitter sigma (ns, 0..1e6)"},
        {"leak", "1", "0 = input-independent line set (channel disabled)"},
    };
  }

  std::vector<util::FourCc> channels(const ParamSet& params) const override {
    return line_channels(probe_array_config(params).lines);
  }

  AnalysisSpec analysis(const ParamSet& params) const override {
    AnalysisSpec spec;
    spec.default_traces_per_set = 1500;
    spec.cpa = false;  // line latencies carry no AES S-box leakage model
    spec.leakage_channels = channels(params);
    return spec;
  }

  std::unique_ptr<core::TraceSource> make_source(
      const ParamSet& params, const aes::Block& secret,
      std::uint64_t seed) const override {
    return std::make_unique<ProbeTraceSource>(std::make_unique<ProbeArrayProbe>(
        probe_array_config(params), secret, seed));
  }
};

}  // namespace

std::unique_ptr<Scenario> make_cache_timing_scenario() {
  return std::make_unique<CacheTimingScenario>();
}

}  // namespace psc::scenario
