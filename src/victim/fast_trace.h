// Fast analytic trace collection.
//
// In every experiment, one trace = (attacker sets plaintext) -> (victim
// encrypts it back-to-back for one full SMC window) -> (attacker reads the
// freshly latched SMC keys). Because the plaintext is constant within the
// window, the window-averaged rail power is *deterministic leakage plus
// averaged measurement noise* — so a trace can be computed from a single
// real AES encryption plus the calibrated operating point, without
// stepping the chip through ~1000 quanta.
//
// The baselines are measured by running the genuine chip simulation for a
// short calibration interval with the exact victim thread configuration,
// and the per-key transfer (rail weights, noise, quantization) is the same
// SensorSpec data the slow path uses. A statistical-equivalence test pins
// the two paths together (tests/victim/fast_trace_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "aes/aes128.h"
#include "power/leakage_model.h"
#include "smc/key_database.h"
#include "smc/mitigation.h"
#include "soc/device_profile.h"
#include "util/rng.h"

namespace psc::victim {

// Victim configuration in the analytic model.
struct VictimModel {
  std::size_t threads = 3;
  double duty_cycle = 1.0;
  // Extra Gaussian noise on the P-cluster rail per window (syscall-path
  // activity of the kernel service's caller), in watts.
  double extra_p_rail_noise_w = 0.0;

  // Section 3.3/3.4 user-space victim: 3 replicated threads.
  static VictimModel user_space();
  // Section 3.5 kernel-module victim: duty-cycled workers + caller noise.
  static VictimModel kernel_module();
};

class FastTraceSource {
 public:
  // `mitigation` applies a firmware-level countermeasure to the SMC specs
  // (paper section 5); the attacker then sees the mitigated channel. A
  // mitigated update interval lengthens the trace window: the attacker
  // still gets exactly one fresh sample per interval.
  FastTraceSource(const soc::DeviceProfile& profile,
                  const aes::Block& victim_key, VictimModel victim,
                  std::uint64_t seed,
                  smc::MitigationPolicy mitigation =
                      smc::MitigationPolicy::none());

  // The SMC keys reported per trace (the device's workload-dependent set,
  // in KeyDatabase order).
  const std::vector<smc::FourCc>& keys() const noexcept { return keys_; }

  // One trace for the given plaintext, allocation-free: writes the
  // ciphertext, the SMC values (`smc_values` must have exactly
  // keys().size() entries, aligned with keys()) and the IOReport PCPU
  // energy over the window, in mJ.
  void collect_into(const aes::Block& plaintext, aes::Block& ciphertext,
                    std::span<double> smc_values, std::uint64_t& pcpu_mj);

  // Blocks the victim encrypts per measurement window (all threads).
  double encryptions_per_window() const noexcept { return enc_per_window_; }

  // Seconds of real time one trace costs the attacker (the slowest SMC
  // update interval among the attacked keys; 1 s unmitigated).
  double window_s() const noexcept { return window_s_; }

  // Calibrated mean package power (for reporting).
  double baseline_package_w() const noexcept;

  const aes::Aes128& cipher() const noexcept { return cipher_; }
  const VictimModel& victim() const noexcept { return victim_; }

 private:
  void calibrate(std::uint64_t seed);

  soc::DeviceProfile profile_;
  VictimModel victim_;
  aes::Aes128 cipher_;
  power::LeakageEvaluator evaluator_;
  smc::KeyDatabase database_;
  std::vector<smc::FourCc> keys_;
  std::vector<const smc::KeyEntry*> key_entries_;
  util::Xoshiro256 rng_;

  // Calibrated operating point.
  std::array<double, soc::rail_count> baseline_rail_w_{};
  double baseline_estimated_w_ = 0.0;
  double baseline_estimated_p_w_ = 0.0;
  double p_cluster_voltage_ = 0.0;
  double enc_per_window_ = 0.0;
  double window_s_ = 1.0;
};

}  // namespace psc::victim
