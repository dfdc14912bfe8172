#include "victim/fast_trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "power/noise.h"
#include "soc/chip.h"
#include "soc/workload.h"

namespace psc::victim {

VictimModel VictimModel::user_space() {
  return {.threads = 3, .duty_cycle = 1.0, .extra_p_rail_noise_w = 0.0};
}

VictimModel VictimModel::kernel_module() {
  return {.threads = 3, .duty_cycle = 0.85, .extra_p_rail_noise_w = 30e-6};
}

FastTraceSource::FastTraceSource(const soc::DeviceProfile& profile,
                                 const aes::Block& victim_key,
                                 VictimModel victim, std::uint64_t seed,
                                 smc::MitigationPolicy mitigation)
    : profile_(profile),
      victim_(victim),
      cipher_(victim_key),
      evaluator_(profile.leakage),
      database_(smc::apply_mitigations(
          smc::KeyDatabase::for_device(profile.name), mitigation)),
      rng_(seed) {
  keys_ = database_.workload_dependent_keys();
  for (const smc::FourCc key : keys_) {
    key_entries_.push_back(database_.find(key));
    window_s_ =
        std::max(window_s_, key_entries_.back()->spec.update_period_s);
  }
  calibrate(seed ^ 0xCA11B8A7Eull);
}

void FastTraceSource::calibrate(std::uint64_t seed) {
  // Run the genuine chip model with the victim's thread layout for a short
  // settling interval plus one full window, and take the window averages
  // as the trace baseline.
  soc::Chip chip(profile_, seed);
  std::vector<std::unique_ptr<soc::AesWorkload>> workers;
  util::Xoshiro256 pt_rng(seed + 1);
  aes::Block calibration_pt;
  pt_rng.fill_bytes(calibration_pt);
  for (std::size_t i = 0; i < victim_.threads && i < chip.p_core_count();
       ++i) {
    workers.push_back(std::make_unique<soc::AesWorkload>(
        cipher_.round_keys()[0], profile_.leakage,
        profile_.aes_cycles_per_block, victim_.duty_cycle));
    workers.back()->set_plaintext(calibration_pt);
    chip.p_core(i).assign(workers.back().get());
  }

  chip.run_for(0.5);  // settle
  const soc::RailEnergies before = chip.rail_energies();
  const double est_p_before =
      chip.estimated_cluster_energy_j(soc::CoreType::performance);
  std::uint64_t blocks_before = 0;
  for (const auto& w : workers) {
    blocks_before += w->blocks_encrypted();
  }

  chip.run_for(window_s_);
  const soc::RailEnergies after = chip.rail_energies();
  for (std::size_t r = 0; r < soc::rail_count; ++r) {
    baseline_rail_w_[r] = (after.joules[r] - before.joules[r]) / window_s_;
  }
  // Remove the calibration plaintext's own leakage so baselines represent
  // the data-independent operating point.
  std::uint64_t blocks_after = 0;
  for (const auto& w : workers) {
    blocks_after += w->blocks_encrypted();
  }
  enc_per_window_ = static_cast<double>(blocks_after - blocks_before);
  if (!workers.empty()) {
    const double core_dev_w =
        workers.front()->core_leak_energy_per_block() * enc_per_window_ /
        window_s_;
    const double bus_dev_w =
        workers.front()->bus_leak_energy_per_block() * enc_per_window_ /
        window_s_;
    auto& rails = baseline_rail_w_;
    rails[static_cast<std::size_t>(soc::RailId::p_cluster)] -= core_dev_w;
    rails[static_cast<std::size_t>(soc::RailId::dram)] -= bus_dev_w;
    rails[static_cast<std::size_t>(soc::RailId::total_soc)] -=
        core_dev_w + bus_dev_w;
    rails[static_cast<std::size_t>(soc::RailId::dc_in)] -=
        (core_dev_w + bus_dev_w) / profile_.dc_conversion_efficiency;
  }

  baseline_estimated_w_ = chip.estimated_package_power_w();
  baseline_estimated_p_w_ =
      (chip.estimated_cluster_energy_j(soc::CoreType::performance) -
       est_p_before) /
      window_s_;
  p_cluster_voltage_ = chip.p_core(0).voltage();
}

double FastTraceSource::baseline_package_w() const noexcept {
  return baseline_rail_w_[static_cast<std::size_t>(soc::RailId::total_soc)];
}

void FastTraceSource::collect_into(const aes::Block& plaintext,
                                   aes::Block& ciphertext,
                                   std::span<double> smc_values,
                                   std::uint64_t& pcpu_mj) {
  assert(smc_values.size() == key_entries_.size());
  // One real encryption gives the data-dependent energy of every block in
  // the window (all blocks process the same plaintext).
  aes::RoundTrace trace;
  ciphertext = cipher_.encrypt_trace(plaintext, trace);
  const double blocks_per_s = enc_per_window_ / window_s_;
  const double core_dev_w =
      evaluator_.energy_deviation(plaintext, trace) * blocks_per_s;
  const double bus_dev_w =
      evaluator_.bus_energy_deviation(plaintext, ciphertext) * blocks_per_s;

  // Syscall-path noise rides on the P-cluster rail.
  const double p_noise_w =
      victim_.extra_p_rail_noise_w > 0.0
          ? rng_.gaussian(0.0, victim_.extra_p_rail_noise_w)
          : 0.0;

  std::array<double, soc::rail_count> rail_w = baseline_rail_w_;
  rail_w[static_cast<std::size_t>(soc::RailId::p_cluster)] +=
      core_dev_w + p_noise_w;
  rail_w[static_cast<std::size_t>(soc::RailId::dram)] += bus_dev_w;

  for (std::size_t k = 0; k < key_entries_.size(); ++k) {
    const smc::SensorSpec& spec = key_entries_[k]->spec;
    double value = 0.0;
    switch (spec.source) {
      case smc::SensorSource::rail_power:
      case smc::SensorSource::rail_current: {
        for (const soc::RailId rail :
             {soc::RailId::p_cluster, soc::RailId::e_cluster,
              soc::RailId::uncore, soc::RailId::dram}) {
          value += spec.rails.weight(rail) *
                   rail_w[static_cast<std::size_t>(rail)];
        }
        if (spec.source == smc::SensorSource::rail_current) {
          value /= p_cluster_voltage_;
        }
        break;
      }
      case smc::SensorSource::estimated_power:
        value = baseline_estimated_w_;
        break;
      default:
        value = spec.constant_value;
        break;
    }
    if (spec.noise_sigma > 0.0) {
      value += rng_.gaussian(0.0, spec.noise_sigma);
    }
    value = power::Quantizer(spec.quant_step).apply(value);
    // The client reads a float32-encoded value; keep that truncation.
    smc_values[k] = static_cast<double>(static_cast<float>(value));
  }

  // IOReport PCPU channel: utilization-model energy over the window, mJ
  // resolution, small OS-activity jitter — no data term by construction.
  const double pcpu_j =
      baseline_estimated_p_w_ * window_s_ + rng_.gaussian(0.0, 2e-3);
  pcpu_mj =
      static_cast<std::uint64_t>(std::max(0.0, std::floor(pcpu_j * 1e3)));
}

}  // namespace psc::victim
