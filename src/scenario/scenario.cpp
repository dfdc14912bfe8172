#include "scenario/scenario.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace psc::scenario {

namespace {

[[noreturn]] void bad_param(const std::string& key, const std::string& why) {
  throw std::invalid_argument("scenario param '" + key + "': " + why);
}

}  // namespace

ParamSet ParamSet::parse(
    const std::vector<ParamSpec>& specs,
    const std::vector<std::pair<std::string, std::string>>& values) {
  for (const auto& [key, value] : values) {
    bool known = false;
    for (const ParamSpec& spec : specs) {
      if (spec.name == key) {
        known = true;
        break;
      }
    }
    if (!known) {
      bad_param(key, "unknown parameter");
    }
    std::size_t occurrences = 0;
    for (const auto& [other_key, other_value] : values) {
      occurrences += other_key == key ? 1 : 0;
    }
    if (occurrences > 1) {
      bad_param(key, "given more than once");
    }
    (void)value;
  }

  ParamSet out;
  out.entries_.reserve(specs.size());
  for (const ParamSpec& spec : specs) {
    std::string value = spec.default_value;
    for (const auto& [key, given] : values) {
      if (key == spec.name) {
        value = given;
        break;
      }
    }
    out.entries_.emplace_back(spec.name, std::move(value));
  }
  return out;
}

const std::string& ParamSet::get(const std::string& name) const {
  for (const auto& [key, value] : entries_) {
    if (key == name) {
      return value;
    }
  }
  bad_param(name, "not in this scenario's parameter set");
}

std::size_t ParamSet::get_size(const std::string& name) const {
  const std::string& raw = get(name);
  std::size_t v = 0;
  const auto [end, ec] =
      std::from_chars(raw.data(), raw.data() + raw.size(), v);
  if (ec != std::errc{} || end != raw.data() + raw.size()) {
    bad_param(name, "expected a non-negative integer, got '" + raw + "'");
  }
  return v;
}

double ParamSet::get_double(const std::string& name) const {
  const std::string& raw = get(name);
  double v = 0.0;
  const auto [end, ec] = std::from_chars(raw.data(), raw.data() + raw.size(),
                                         v, std::chars_format::general);
  if (ec != std::errc{} || end != raw.data() + raw.size() ||
      !std::isfinite(v)) {
    bad_param(name, "expected a finite decimal number, got '" + raw + "'");
  }
  return v;
}

double ParamSet::get_double(const std::string& name, double lo,
                            double hi) const {
  const double v = get_double(name);
  if (v < lo || v > hi) {
    char range[64];
    std::snprintf(range, sizeof range, "[%g, %g]", lo, hi);
    bad_param(name, "must be in " + std::string(range) + ", got '" +
                        get(name) + "'");
  }
  return v;
}

bool ParamSet::get_flag(const std::string& name) const {
  const std::string& raw = get(name);
  if (raw == "0") {
    return false;
  }
  if (raw == "1") {
    return true;
  }
  bad_param(name, "expected 0 or 1, got '" + raw + "'");
}

ScenarioInfo describe(const Scenario& scenario) {
  ScenarioInfo info;
  info.name = scenario.name();
  info.description = scenario.description();
  info.victim = scenario.victim();
  info.channel = scenario.channel();
  info.params = scenario.params();
  const ParamSet defaults = scenario.parse_params({});
  info.channels = scenario.channels(defaults);
  info.analysis = scenario.analysis(defaults);
  return info;
}

}  // namespace psc::scenario
