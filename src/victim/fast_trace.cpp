#include "victim/fast_trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "power/noise.h"
#include "soc/chip.h"
#include "soc/workload.h"
#include "util/simd.h"

#if defined(PSC_SIMD_X86)
#include <immintrin.h>
#endif

namespace psc::victim {

namespace {

constexpr std::size_t block_rows = aes::RoundCounts::capacity;

constexpr std::size_t rail(soc::RailId id) noexcept {
  return static_cast<std::size_t>(id);
}

}  // namespace

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

  // A trace's draws: the P-rail noise, the noisy keys, the PCPU jitter.
  draws_per_trace_ = victim_.extra_p_rail_noise_w > 0.0 ? 1 : 0;
  for (const smc::KeyEntry* entry : key_entries_) {
    const smc::SensorSpec& spec = entry->spec;
    SensorColumn sensor;
    switch (spec.source) {
      case smc::SensorSource::rail_power:
      case smc::SensorSource::rail_current:
        sensor.from_rails = true;
        sensor.per_volt = spec.source == smc::SensorSource::rail_current;
        sensor.p_weight = spec.rails.weight(soc::RailId::p_cluster);
        sensor.e_term = spec.rails.weight(soc::RailId::e_cluster) *
                        baseline_rail_w_[rail(soc::RailId::e_cluster)];
        sensor.u_term = spec.rails.weight(soc::RailId::uncore) *
                        baseline_rail_w_[rail(soc::RailId::uncore)];
        sensor.d_weight = spec.rails.weight(soc::RailId::dram);
        sensor.volts = p_cluster_voltage_;
        break;
      case smc::SensorSource::estimated_power:
        sensor.constant = baseline_estimated_w_;
        break;
      default:
        sensor.constant = spec.constant_value;
        break;
    }
    sensor.noise_sigma = spec.noise_sigma;
    if (spec.noise_sigma > 0.0) {
      sensor.noise_draw = draws_per_trace_++;
    }
    sensor.quant_step = spec.quant_step;
    sensors_.push_back(sensor);
  }
  ++draws_per_trace_;  // PCPU

  counts_ = std::make_unique<aes::RoundCounts>();
  rail_p_.resize(block_rows);
  rail_d_.resize(block_rows);
  deviates_.resize(block_rows * draws_per_trace_);
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

namespace {

// A block's inputs to the column passes.
struct BlockRails {
  const double* p;  // P-cluster rail per trace, W
  const double* d;  // DRAM rail per trace, W
  const double* deviates;  // [trace][draw]
  std::size_t draws;
};

// A key's value before the ADC over traces [begin, end): the weighted
// rail sum (p, e, u, d order, from 0.0), the division by volts for a
// current key and the key's noise deviate, in the per-trace operation
// order.
void sensor_values_scalar(const SensorColumn& c, const BlockRails& in,
                          double* out, std::size_t begin,
                          std::size_t end) noexcept {
  const double* noise = in.deviates + c.noise_draw;
  for (std::size_t t = begin; t < end; ++t) {
    double value = c.constant;
    if (c.from_rails) {
      value = 0.0;
      value += c.p_weight * in.p[t];
      value += c.e_term;
      value += c.u_term;
      value += c.d_weight * in.d[t];
      if (c.per_volt) {
        value /= c.volts;
      }
    }
    if (c.noise_sigma > 0.0) {
      value += 0.0 + c.noise_sigma * noise[t * in.draws];
    }
    out[t] = value;
  }
}

#if defined(PSC_SIMD_X86)
// The scalar body's operations on four traces per step; returns how many
// traces it did (the scalar body takes the rest).
__attribute__((target("avx2"))) std::size_t sensor_values_avx2(
    const SensorColumn& c, const BlockRails& in, double* out,
    std::size_t n) noexcept {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d p_weight = _mm256_set1_pd(c.p_weight);
  const __m256d e_term = _mm256_set1_pd(c.e_term);
  const __m256d u_term = _mm256_set1_pd(c.u_term);
  const __m256d d_weight = _mm256_set1_pd(c.d_weight);
  const __m256d volts = _mm256_set1_pd(c.volts);
  const __m256d sigma = _mm256_set1_pd(c.noise_sigma);
  const bool noisy = c.noise_sigma > 0.0;
  const double* noise = in.deviates + c.noise_draw;
  const std::size_t d = in.draws;
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    __m256d value = _mm256_set1_pd(c.constant);
    if (c.from_rails) {
      value = _mm256_add_pd(
          zero, _mm256_mul_pd(p_weight, _mm256_loadu_pd(in.p + t)));
      value = _mm256_add_pd(value, e_term);
      value = _mm256_add_pd(value, u_term);
      value = _mm256_add_pd(
          value, _mm256_mul_pd(d_weight, _mm256_loadu_pd(in.d + t)));
      if (c.per_volt) {
        value = _mm256_div_pd(value, volts);
      }
    }
    if (noisy) {
      const double* g = noise + t * d;
      const __m256d deviate = _mm256_setr_pd(g[0], g[d], g[2 * d], g[3 * d]);
      value = _mm256_add_pd(
          value, _mm256_add_pd(zero, _mm256_mul_pd(sigma, deviate)));
    }
    _mm256_storeu_pd(out + t, value);
  }
  return t;
}
#endif  // PSC_SIMD_X86

// One key's column over `n` traces: the value before the ADC, the ADC
// quantizer, then the float32 encoding the SMC client reads.
void sensor_column(const SensorColumn& c, const BlockRails& in, double* out,
                   std::size_t n) noexcept {
  std::size_t done = 0;
#if defined(PSC_SIMD_X86)
  if (util::simd::avx2_active()) {
    done = sensor_values_avx2(c, in, out, n);
  }
#endif
  sensor_values_scalar(c, in, out, done, n);
  power::Quantizer(c.quant_step).apply(std::span<double>(out, n));
  for (std::size_t t = 0; t < n; ++t) {
    out[t] = static_cast<double>(static_cast<float>(out[t]));
  }
}

}  // namespace

void FastTraceSource::collect_batch(std::span<const aes::Block> plaintexts,
                                    std::span<aes::Block> ciphertexts,
                                    std::span<const std::span<double>> columns,
                                    std::span<double> pcpu_mj) {
  assert(ciphertexts.size() == plaintexts.size());
  assert(columns.size() == key_entries_.size());
  assert(pcpu_mj.empty() || pcpu_mj.size() == plaintexts.size());
  for (std::size_t begin = 0; begin < plaintexts.size();
       begin += block_rows) {
    collect_block(plaintexts.data(), ciphertexts.data(), begin,
                  std::min(block_rows, plaintexts.size() - begin), columns,
                  pcpu_mj);
  }
}

void FastTraceSource::collect_block(const aes::Block* plaintexts,
                                    aes::Block* ciphertexts,
                                    std::size_t begin, std::size_t count,
                                    std::span<const std::span<double>> columns,
                                    std::span<double> pcpu_mj) {
  // One real encryption per trace gives the data-dependent energy of every
  // block in its window (all blocks process the same plaintext).
  cipher_.count_round_states({plaintexts + begin, count},
                             {ciphertexts + begin, count}, *counts_);
  evaluator_.energy_deviations(*counts_, {rail_p_.data(), count},
                               {rail_d_.data(), count});
  const std::size_t draws = draws_per_trace_;
  rng_.fill_gaussian({deviates_.data(), count * draws});

  // Energy deviations (J per encryption) become rail powers in place. The
  // core term and the syscall-path noise ride on the P-cluster rail, the
  // bus term on DRAM.
  const double blocks_per_s = enc_per_window_ / window_s_;
  const double p_sigma = victim_.extra_p_rail_noise_w;
  const double base_p = baseline_rail_w_[rail(soc::RailId::p_cluster)];
  const double base_d = baseline_rail_w_[rail(soc::RailId::dram)];
  for (std::size_t t = 0; t < count; ++t) {
    const double core_dev_w = rail_p_[t] * blocks_per_s;
    const double p_noise_w =
        p_sigma > 0.0 ? 0.0 + p_sigma * deviates_[t * draws] : 0.0;
    rail_p_[t] = base_p + (core_dev_w + p_noise_w);
    rail_d_[t] = base_d + rail_d_[t] * blocks_per_s;
  }

  const BlockRails rails{.p = rail_p_.data(),
                         .d = rail_d_.data(),
                         .deviates = deviates_.data(),
                         .draws = draws};
  for (std::size_t k = 0; k < sensors_.size(); ++k) {
    sensor_column(sensors_[k], rails, columns[k].data() + begin, count);
  }

  // IOReport PCPU channel: utilization-model energy over the window, mJ
  // resolution, small OS-activity jitter — no data term by construction.
  if (!pcpu_mj.empty()) {
    const double* jitter = deviates_.data() + (draws - 1);
    for (std::size_t t = 0; t < count; ++t) {
      const double pcpu_j = baseline_estimated_p_w_ * window_s_ +
                            (0.0 + 2e-3 * jitter[t * draws]);
      pcpu_mj[begin + t] = static_cast<double>(static_cast<std::uint64_t>(
          std::max(0.0, std::floor(pcpu_j * 1e3))));
    }
  }
}

}  // namespace psc::victim
