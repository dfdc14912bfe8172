// Square-and-multiply timing scenario — the registry's extension-point
// proof: victim, probe and descriptor in one self-contained file.
//
// The victim is a textbook left-to-right square-and-multiply modular
// exponentiation (the classic RSA/DH timing target): the secret block is
// the 128-bit exponent, the input block folds into the base. Two timing
// dependences make it leak:
//
//   * key-dependent:  a multiply runs only for set exponent bits, so the
//     total time scales with the exponent's Hamming weight;
//   * input-dependent: each square/multiply costs extra per set bit in
//     its operands (a value-dependent multiplier, as in pre-constant-time
//     bignum code), so fixed-vs-random TVLA input classes separate.
//
// The attacker times whole exponentiations through the coarse timer.
// `leak=0` switches the victim to a constant-time ladder — fixed
// square+multiply schedule, operand-independent cost — which must erase
// every cross-class |t| (asserted in tests and the scenario bench).

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/probe.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "util/rng.h"
#include "util/simd.h"

namespace psc::scenario {

namespace {

// Largest 64-bit prime, 2^64 - 59: the fixed public modulus.
constexpr std::uint64_t sqmul_modulus = 0xffffffffffffffc5ULL;

std::uint64_t load_le64(const aes::Block& block, std::size_t offset) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(block[offset + i]) << (8 * i);
  }
  return v;
}

// a * b mod p without a division: 2^64 = 59 (mod p), so a 128-bit
// product hi * 2^64 + lo reduces to hi * 59 + lo. Exact integer
// arithmetic: the same value as the 128-bit remainder.
inline std::uint64_t mulmod(std::uint64_t a, std::uint64_t b) {
  constexpr std::uint64_t fold = 59;  // 2^64 mod p
  using u128 = unsigned __int128;
  const u128 product = static_cast<u128>(a) * b;
  // First fold: below 60 * 2^64, so its high word is at most 59.
  const auto hi = static_cast<std::uint64_t>(product >> 64);
  const u128 once =
      static_cast<u128>(hi) * fold + static_cast<std::uint64_t>(product);
  // Second fold: the add wraps at most once, and a wrapped sum plus 59
  // is below 59^2 + 59, far under p.
  const auto lo = static_cast<std::uint64_t>(once);
  std::uint64_t r = lo + static_cast<std::uint64_t>(once >> 64) * fold;
  if (r < lo) {
    r += fold;
  }
  return r >= sqmul_modulus ? r - sqmul_modulus : r;
}

struct SqmulProbeConfig {
  double sq_ns = 90.0;       // base cost of one square
  double mul_ns = 110.0;     // base cost of one multiply
  double bit_ns = 1.8;       // extra cost per set operand bit
  double noise_ns = 200.0;   // end-to-end timing jitter (sigma)
  double timer_granularity_ns = 41.67;  // 24 MHz coarse counter tick
  bool leak = true;          // false = constant-time ladder
};

// Rows whose exponentiations run interleaved, one square (or multiply)
// of each in turn, so the multiplies' latencies overlap. The exponent is
// shared, so every row takes the same square/multiply schedule.
constexpr std::size_t lanes = 8;

struct SqmulLanes {
  std::array<std::uint64_t, lanes> base{};  // reduced mod p
  std::array<std::uint64_t, lanes> x{};
  std::array<std::uint64_t, lanes> dummy{};
  std::array<double, lanes> time_ns{};
};

// The victim's cost of one square or multiply by the operands' total set
// bits: entry b is base + bit_ns * b, the double the cost formula gives,
// so a lookup adds the same value. Without the leak every entry is the
// base cost.
struct SqmulCosts {
  std::array<double, 129> square{};
  std::array<double, 129> multiply{};

  explicit SqmulCosts(const SqmulProbeConfig& config) {
    for (int bits = 0; bits <= 128; ++bits) {
      square[bits] =
          config.leak ? config.sq_ns + config.bit_ns * bits : config.sq_ns;
      multiply[bits] =
          config.leak ? config.mul_ns + config.bit_ns * bits : config.mul_ns;
    }
  }
};

// Left-to-right square-and-multiply of every lane's base by the secret
// exponent, MSB first, accumulating each lane's time in the
// victim's operation order. Inlined into both bodies, so each popcount
// is the POPCNT instruction in the target("popcnt") body and a libgcc
// call in the portable one; both add the same terms in the same order.
[[gnu::always_inline]] inline void exponentiate_body(
    const SqmulProbeConfig& config, const SqmulCosts& costs,
    const aes::Block& exponent, SqmulLanes& l) {
  l.x.fill(1);
  l.dummy.fill(1);
  l.time_ns.fill(0.0);
  for (std::size_t bit = 0; bit < 128; ++bit) {
    const std::size_t byte = 15 - bit / 8;  // MSB first
    const bool set = (exponent[byte] >> (7 - bit % 8)) & 1;

    for (std::size_t k = 0; k < lanes; ++k) {
      l.time_ns[k] += costs.square[2 * std::popcount(l.x[k])];
      l.x[k] = mulmod(l.x[k], l.x[k]);
    }
    if (config.leak) {
      if (set) {
        for (std::size_t k = 0; k < lanes; ++k) {
          l.time_ns[k] += costs.multiply[std::popcount(l.x[k]) +
                                         std::popcount(l.base[k])];
          l.x[k] = mulmod(l.x[k], l.base[k]);
        }
      }
    } else {
      // Constant-time ladder: the multiply always runs, into a dummy
      // when the bit is clear, at operand-independent cost.
      for (std::size_t k = 0; k < lanes; ++k) {
        l.time_ns[k] += config.mul_ns;
      }
      std::array<std::uint64_t, lanes>& target = set ? l.x : l.dummy;
      for (std::size_t k = 0; k < lanes; ++k) {
        target[k] = mulmod(target[k], l.base[k]);
      }
    }
  }
}

#if defined(PSC_SIMD_X86)
__attribute__((target("popcnt"))) void exponentiate_popcnt(
    const SqmulProbeConfig& config, const SqmulCosts& costs,
    const aes::Block& exponent, SqmulLanes& l) {
  exponentiate_body(config, costs, exponent, l);
}
#endif

// POPCNT runs unless dispatch is pinned to the portable bodies.
void exponentiate(const SqmulProbeConfig& config, const SqmulCosts& costs,
                  const aes::Block& exponent, SqmulLanes& l) {
#if defined(PSC_SIMD_X86)
  if (util::simd::popcnt_active()) {
    exponentiate_popcnt(config, costs, exponent, l);
    return;
  }
#endif
  exponentiate_body(config, costs, exponent, l);
}

class SqmulTimingProbe final : public ChannelProbe {
 public:
  SqmulTimingProbe(const SqmulProbeConfig& config, const aes::Block& secret,
                   std::uint64_t seed)
      : config_(config),
        costs_(config),
        exponent_(secret),
        rng_(seed),
        keys_({util::FourCc("TIME")}) {}

  const std::vector<util::FourCc>& keys() const noexcept override {
    return keys_;
  }

  void sample(std::span<const aes::Block> inputs,
              std::span<aes::Block> outputs,
              std::span<const std::span<double>> columns) override {
    const std::span<double> time = columns[0];
    SqmulLanes l;
    for (std::size_t row0 = 0; row0 < inputs.size(); row0 += lanes) {
      const std::size_t rows = std::min(lanes, inputs.size() - row0);
      // Fold each input block into its base; the multiplicative mix keeps
      // the all-ones TVLA class distinct from all-zeros after folding.
      for (std::size_t k = 0; k < rows; ++k) {
        const aes::Block& input = inputs[row0 + k];
        l.base[k] = (load_le64(input, 0) ^
                     (load_le64(input, 8) * 0x9e3779b97f4a7c15ULL)) %
                    sqmul_modulus;
      }
      // Every lane runs, idle ones too: they draw nothing.
      exponentiate(config_, costs_, exponent_, l);
      // The timing drew nothing: each row's jitter and timer phase come
      // from the generator in row order.
      for (std::size_t k = 0; k < rows; ++k) {
        // Echo the result so the trace carries the victim's output.
        aes::Block& out = outputs[row0 + k];
        for (std::size_t i = 0; i < 8; ++i) {
          out[i] = static_cast<std::uint8_t>(l.x[k] >> (8 * i));
          out[8 + i] = static_cast<std::uint8_t>(l.dummy[k] >> (8 * i));
        }
        const double raw = std::max(
            0.0, l.time_ns[k] + rng_.gaussian(0.0, config_.noise_ns));
        const double phase = rng_.uniform01() * config_.timer_granularity_ns;
        time[row0 + k] =
            std::floor((raw + phase) / config_.timer_granularity_ns) *
            config_.timer_granularity_ns;
      }
    }
  }

  double window_s() const noexcept override { return 1e-4; }

 private:
  SqmulProbeConfig config_;
  SqmulCosts costs_;
  aes::Block exponent_;
  util::Xoshiro256 rng_;
  std::vector<util::FourCc> keys_;
};

// Largest timing jitter or per-bit cost (ns): a millisecond, far above
// any bignum operation, and small enough that no deviate or operation
// count scales it to inf.
constexpr double max_cost_ns = 1e6;

// Every param converted and checked: channels() runs this too, so a bad
// value is a typed error before a served job starts.
SqmulProbeConfig sqmul_config(const ParamSet& params) {
  SqmulProbeConfig config;
  config.noise_ns = params.get_double("noise_ns", 0.0, max_cost_ns);
  config.bit_ns = params.get_double("bit_ns", 0.0, max_cost_ns);
  config.leak = params.get_flag("leak");
  return config;
}

class SqmulTimingScenario final : public Scenario {
 public:
  std::string name() const override { return "sqmul-timing"; }
  std::string description() const override {
    return "square-and-multiply bignum exponentiation with key- and "
           "operand-dependent timing";
  }
  std::string victim() const override {
    return "128-bit square-and-multiply modular exponentiation (secret "
           "exponent)";
  }
  std::string channel() const override {
    return "whole-exponentiation latency via the coarse (24 MHz) timer";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"noise_ns", "200", "end-to-end timing jitter sigma (ns, 0..1e6)"},
        {"bit_ns", "1.8", "extra cost per set operand bit (ns, 0..1e6)"},
        {"leak", "1", "0 = constant-time ladder (channel disabled)"},
    };
  }

  std::vector<util::FourCc> channels(const ParamSet& params) const override {
    (void)sqmul_config(params);
    return {util::FourCc("TIME")};
  }

  AnalysisSpec analysis(const ParamSet& params) const override {
    AnalysisSpec spec;
    spec.default_traces_per_set = 1500;
    spec.cpa = false;  // one latency sample carries no S-box model
    spec.leakage_channels = channels(params);
    return spec;
  }

  std::unique_ptr<core::TraceSource> make_source(
      const ParamSet& params, const aes::Block& secret,
      std::uint64_t seed) const override {
    return std::make_unique<ProbeTraceSource>(
        std::make_unique<SqmulTimingProbe>(sqmul_config(params), secret,
                                           seed));
  }
};

}  // namespace

std::unique_ptr<Scenario> make_sqmul_timing_scenario() {
  return std::make_unique<SqmulTimingScenario>();
}

}  // namespace psc::scenario
