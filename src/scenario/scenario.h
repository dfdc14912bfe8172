// Pluggable attack scenarios (ROADMAP item 3).
//
// Every campaign in the repo used to hardwire one scenario: an AES-128
// victim observed through SMC power keys. The paper itself (Section 4)
// and the related work (EXAM's SLC probe arrays, SideLine's delay lines,
// Hertzbleed-style frequency channels) show the same analysis machinery
// applies to very different victim/channel pairs. A Scenario bundles the
// three choices a campaign needs:
//
//   victim   what secret-dependent computation runs per trace,
//   channel  what the attacker samples while it runs (a ChannelProbe or a
//            full core::TraceSource),
//   analysis which sinks to attach by default (TVLA always; CPA/GE when
//            the channel admits the AES leakage models).
//
// Scenarios are stateless descriptors: make_source() builds a fresh
// single-shard trace source from (params, secret, seed), exactly the
// factory shape core::run_sink_campaign shards over, so every scenario
// inherits the sharded pipeline, the sink layer, PSTR recording and the
// purity guarantee (results are a function of (seed, shards) only).
// ScenarioRegistry (scenario/registry.h) names them; scenario/runner.h
// executes them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aes/aes128.h"
#include "core/trace_source.h"
#include "power/hypothetical.h"
#include "util/fourcc.h"

namespace psc::scenario {

// One tunable knob of a scenario. Values travel as strings (CLI flags,
// bus frames) and are validated/converted by ParamSet.
struct ParamSpec {
  std::string name;
  std::string default_value;
  std::string description;
};

// A validated key=value set for one scenario: unknown keys are rejected
// at parse time (the bus daemon's typed-error path relies on this),
// missing keys fall back to the spec's default. Values convert lazily;
// a malformed number throws std::invalid_argument naming the key.
class ParamSet {
 public:
  ParamSet() = default;

  // Validates `values` against `specs`: every key must name a spec
  // (throws std::invalid_argument otherwise) and duplicate keys are
  // rejected. Entries come out in spec order with defaults filled in.
  static ParamSet parse(
      const std::vector<ParamSpec>& specs,
      const std::vector<std::pair<std::string, std::string>>& values);

  // Entries in spec order (every spec present exactly once).
  const std::vector<std::pair<std::string, std::string>>& entries()
      const noexcept {
    return entries_;
  }

  // Typed accessors; throw std::invalid_argument on unknown key or
  // unconvertible value.
  const std::string& get(const std::string& name) const;
  // Decimal digits only (no sign, no blanks) of a value that fits
  // std::size_t.
  std::size_t get_size(const std::string& name) const;
  // A finite decimal number, fixed or scientific (std::from_chars
  // general format): no blanks, no '+', no hex, no nan or inf.
  double get_double(const std::string& name) const;
  // The same, and within [lo, hi]: bounds a physical quantity so that no
  // accepted value overflows to inf once the probe scales it.
  double get_double(const std::string& name, double lo, double hi) const;
  bool get_flag(const std::string& name) const;  // "0"/"1"

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

// Default analysis binding: which sinks a scenario run attaches when the
// caller does not override them.
struct AnalysisSpec {
  // Traces per (class, collection) when the caller passes 0.
  std::size_t default_traces_per_set = 2000;
  // Attach CPA/GE sinks (AES leakage models over cpa_keys). Only
  // meaningful for scenarios whose secret is an AES-128 key and whose
  // channel carries first-round S-box leakage.
  bool cpa = false;
  std::vector<util::FourCc> cpa_keys;
  std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};
  // Channels expected to show TVLA leakage with default params — what the
  // scenario-sweep bench gates |t| > 4.5 on.
  std::vector<util::FourCc> leakage_channels;
};

class Scenario {
 public:
  virtual ~Scenario() = default;

  // Registry name (stable, lowercase-with-dashes).
  virtual std::string name() const = 0;
  virtual std::string description() const = 0;
  // Human-readable victim and channel summaries (one line each).
  virtual std::string victim() const = 0;
  virtual std::string channel() const = 0;

  virtual std::vector<ParamSpec> params() const = 0;

  // Channel columns a source built with these params reports, without
  // paying for source construction/calibration.
  virtual std::vector<util::FourCc> channels(const ParamSet& params) const = 0;

  virtual AnalysisSpec analysis(const ParamSet& params) const = 0;

  // Builds one single-shard trace source. `secret` is the victim secret
  // (16 bytes; AES key, exponent bits, probe-line selector — scenario
  // defined); `seed` seeds all scenario-local randomness. Must report
  // exactly channels(params).
  virtual std::unique_ptr<core::TraceSource> make_source(
      const ParamSet& params, const aes::Block& secret,
      std::uint64_t seed) const = 0;

  // Parses key=value pairs against this scenario's specs.
  ParamSet parse_params(
      const std::vector<std::pair<std::string, std::string>>& values) const {
    return ParamSet::parse(params(), values);
  }
};

// Fully-expanded description of one scenario: what `describe()` surfaces
// to the CLI, the bus SCENARIOS frame and the README table. Built with
// default params, so params/channels/analysis round-trip through
// parse_params by construction.
struct ScenarioInfo {
  std::string name;
  std::string description;
  std::string victim;
  std::string channel;
  std::vector<ParamSpec> params;            // defaults included
  std::vector<util::FourCc> channels;       // with default params
  AnalysisSpec analysis;                    // with default params
};

ScenarioInfo describe(const Scenario& scenario);

}  // namespace psc::scenario
