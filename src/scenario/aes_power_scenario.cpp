// The paper's own scenarios, ported onto the registry: an AES-128 victim
// (user-space process or kernel module) observed through the simulated
// device's SMC power keys. make_source builds the same LiveTraceSource
// that core::run_live_campaign builds, with the same per-shard seeding —
// so a registry run is bit-identical to the live campaign over the
// analysis spec's keys (asserted in tests/scenario/scenario_runner_test.cpp).

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/trace_source.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "soc/device_profile.h"
#include "victim/fast_trace.h"

namespace psc::scenario {

namespace {

soc::DeviceProfile profile_for(const std::string& device) {
  if (device == "m1") {
    return soc::DeviceProfile::mac_mini_m1();
  }
  if (device == "m2") {
    return soc::DeviceProfile::macbook_air_m2();
  }
  throw std::invalid_argument("scenario param 'device': expected m1 or m2, got '" +
                              device + "'");
}

class AesPowerScenario final : public Scenario {
 public:
  explicit AesPowerScenario(bool kernel_module) : kernel_(kernel_module) {}

  std::string name() const override {
    return kernel_ ? "aes-power-kernel" : "aes-power-user";
  }
  std::string description() const override {
    return kernel_ ? "AES-128 kernel-module victim observed through SMC "
                     "power keys (paper sections 3.5/3.6)"
                   : "AES-128 user-space victim observed through SMC power "
                     "keys (paper sections 3.3/3.4)";
  }
  std::string victim() const override {
    return kernel_ ? "AES-128 kernel module (no scheduler preemption)"
                   : "AES-128 user-space process";
  }
  std::string channel() const override {
    return "SMC power/current/voltage keys, one read per update window";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"device", "m2", "simulated platform: m1 (Mac Mini) or m2 "
                         "(MacBook Air)"},
        {"pcpu", "0", "also expose the IOReport PCPU energy channel (0/1)"},
    };
  }

  std::vector<util::FourCc> channels(const ParamSet& params) const override {
    return core::LiveTraceSource::channel_names(source_config(params));
  }

  AnalysisSpec analysis(const ParamSet& params) const override {
    AnalysisSpec spec;
    spec.default_traces_per_set = 2000;
    spec.cpa = true;
    // The default attack set: every workload-dependent key except the
    // PHPS estimate (no signal, Table 3) and the IOReport PCPU
    // pseudo-channel. These are also the channels TVLA flags.
    for (const util::FourCc key : channels(params)) {
      if (key != util::FourCc("PHPS") && key != util::FourCc("PCPU")) {
        spec.cpa_keys.push_back(key);
      }
    }
    spec.leakage_channels = spec.cpa_keys;
    return spec;
  }

  std::unique_ptr<core::TraceSource> make_source(
      const ParamSet& params, const aes::Block& secret,
      std::uint64_t seed) const override {
    return std::make_unique<core::LiveTraceSource>(source_config(params),
                                                   secret, seed);
  }

 private:
  core::LiveSourceConfig source_config(const ParamSet& params) const {
    return core::LiveSourceConfig{
        .profile = profile_for(params.get("device")),
        .victim = kernel_ ? victim::VictimModel::kernel_module()
                          : victim::VictimModel::user_space(),
        .mitigation = smc::MitigationPolicy::none(),
        .include_pcpu = params.get_flag("pcpu"),
    };
  }

  bool kernel_;
};

}  // namespace

std::unique_ptr<Scenario> make_aes_power_scenario(bool kernel_module) {
  return std::make_unique<AesPowerScenario>(kernel_module);
}

}  // namespace psc::scenario
