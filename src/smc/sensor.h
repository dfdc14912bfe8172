// Binding of an SMC key to a physical quantity of the chip simulator, plus
// the measurement-path parameters (update period, averaging, noise, ADC
// resolution) that determine what a software reader actually sees.
//
// Real SMC key semantics on Apple silicon are undocumented; these bindings
// are the reproduction's ground-truth hypothesis, chosen so the published
// per-key behaviour (Tables 2-5) emerges mechanistically.
#pragma once

#include <array>

#include "soc/types.h"

namespace psc::smc {

enum class SensorSource {
  rail_power,        // weighted sum of window-averaged rail powers (watts)
  rail_current,      // same weighted sum divided by P-cluster voltage (amps)
  estimated_power,   // utilization-model package power (no data dependence)
  temperature,       // die temperature (Celsius)
  cluster_voltage,   // DVFS voltage of the P-cluster (volts)
  fan_speed,         // cooling fan (rpm); 0 on fanless devices
  constant,          // fixed value (static rails, setpoints, counters)
  lowpower_flag,     // the chip's lowpowermode state (read/write)
};

// Weights over the four physical rails a power meter can tap. Each SMC
// power key integrates its own combination of VRM taps; e.g. a "DC in"
// meter sees the compute rails through the conversion loss (weight 1/eta)
// but only part of the memory/IO rail.
struct RailWeights {
  double p_cluster = 0.0;
  double e_cluster = 0.0;
  double uncore = 0.0;
  double dram = 0.0;

  double weight(soc::RailId rail) const noexcept {
    switch (rail) {
      case soc::RailId::p_cluster:
        return p_cluster;
      case soc::RailId::e_cluster:
        return e_cluster;
      case soc::RailId::uncore:
        return uncore;
      case soc::RailId::dram:
        return dram;
      default:
        return 0.0;
    }
  }
};

struct SensorSpec {
  SensorSource source = SensorSource::constant;
  RailWeights rails{};           // for rail_power / rail_current sources
  double constant_value = 0.0;   // for constant source
  double noise_sigma = 0.0;      // additive Gaussian, in reported units
  double quant_step = 0.0;       // ADC resolution, in reported units
  double update_period_s = 1.0;  // how often the SMC latches a new value
};

}  // namespace psc::smc
