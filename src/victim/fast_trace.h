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
//
// Batches are exact. Every random draw of a trace is one gaussian() on the
// source's generator, and the number and order of a trace's draws do not
// depend on its data: the P-rail noise (kernel victim only), then one per
// key with noise_sigma > 0 in key order, then the PCPU jitter. A block of
// m traces therefore takes its m x draws-per-trace deviates with one
// fill_gaussian, which yields exactly the values, in exactly the order,
// that a trace-at-a-time loop would draw, cached deviate included, and the
// rest of the block runs column by column. Any split of a plaintext
// sequence into collect_batch calls gives the same rows; the absolute
// digests in tests/core/trace_source_test.cpp pin that.
#pragma once

#include <cstdint>
#include <memory>
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

// How FastTraceSource::collect_batch makes one key's column from a
// block's P-cluster and DRAM rails and its deviates; built once per source
// from the key's SensorSpec and the calibrated operating point.
struct SensorColumn {
  bool from_rails = false;  // rail_power or rail_current
  bool per_volt = false;    // rail_current: divided by `volts`
  double p_weight = 0.0;
  double e_term = 0.0;  // e-cluster weight x its baseline (the rail is fixed)
  double u_term = 0.0;  // uncore weight x its baseline (the rail is fixed)
  double d_weight = 0.0;
  double volts = 0.0;
  double constant = 0.0;  // the value of every other source
  double noise_sigma = 0.0;
  std::size_t noise_draw = 0;  // index among one trace's draws
  double quant_step = 0.0;
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

  // One trace per plaintext, in order and allocation-free:
  // ciphertexts[t] is the ciphertext of plaintexts[t], columns[k][t] the
  // value of keys()[k] and, unless `pcpu_mj` is empty, pcpu_mj[t] the
  // IOReport PCPU energy over the window in whole mJ. `ciphertexts`,
  // every column and a non-empty `pcpu_mj` have plaintexts.size()
  // entries; columns.size() == keys().size(). The PCPU jitter is drawn
  // either way, so the rows do not depend on whether it is read.
  //
  // Rows run in blocks of up to aes::RoundCounts::capacity traces: AES
  // with counted round states (aes::Aes128::count_round_states), the
  // leakage sums (power::LeakageEvaluator::energy_deviations), the
  // block's deviates (util::Xoshiro256::fill_gaussian), then per key the
  // sensor value (rail sum, volts, noise), the ADC quantizer
  // (power::Quantizer) and the float32 encoding, and last the PCPU column.
  // Each step has a vector body and a portable one that give the same
  // bits; util::simd's mode picks between them.
  void collect_batch(std::span<const aes::Block> plaintexts,
                     std::span<aes::Block> ciphertexts,
                     std::span<const std::span<double>> columns,
                     std::span<double> pcpu_mj);

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
  void collect_block(const aes::Block* plaintexts, aes::Block* ciphertexts,
                     std::size_t begin, std::size_t count,
                     std::span<const std::span<double>> columns,
                     std::span<double> pcpu_mj);

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

  std::vector<SensorColumn> sensors_;  // aligned with keys_
  std::size_t draws_per_trace_ = 0;

  // One block's scratch, reused by every collect_batch call.
  std::unique_ptr<aes::RoundCounts> counts_;
  std::vector<double> rail_p_;    // P-cluster rail, W
  std::vector<double> rail_d_;    // DRAM rail, W
  std::vector<double> deviates_;  // [trace][draw]
};

}  // namespace psc::victim
