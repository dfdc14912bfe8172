// ScenarioRegistry edge cases: duplicate rejection, describe()
// round-trips through parameter parsing, and thread-safety of concurrent
// list()/find()/describe()/instantiate (run under TSan in CI).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "scenario/registry.h"
#include "scenario/scenario.h"

namespace psc::scenario {
namespace {

TEST(ScenarioRegistry, BuiltInShipsTheFiveScenarios) {
  const std::vector<std::string> names = ScenarioRegistry::built_in().list();
  const std::vector<std::string> expected = {
      "aes-power-user", "aes-power-kernel", "cache-timing",
      "dvfs-frequency", "sqmul-timing"};
  EXPECT_EQ(names, expected);
  for (const std::string& name : expected) {
    EXPECT_NE(ScenarioRegistry::built_in().find(name), nullptr) << name;
  }
}

TEST(ScenarioRegistry, FindUnknownReturnsNull) {
  EXPECT_EQ(ScenarioRegistry::built_in().find("no-such-scenario"), nullptr);
  EXPECT_EQ(ScenarioRegistry::built_in().find(""), nullptr);
}

TEST(ScenarioRegistry, DuplicateNameRegistrationRejected) {
  ScenarioRegistry registry;
  registry.add(make_cache_timing_scenario());
  EXPECT_THROW(registry.add(make_cache_timing_scenario()),
               std::invalid_argument);
  // The failed add must not have clobbered the original entry.
  EXPECT_EQ(registry.list().size(), 1u);
  EXPECT_NE(registry.find("cache-timing"), nullptr);
}

TEST(ScenarioRegistry, NullAndUnnamedScenariosRejected) {
  ScenarioRegistry registry;
  EXPECT_THROW(registry.add(nullptr), std::invalid_argument);
}

TEST(ScenarioRegistry, DescribeRoundTripsThroughParamParsing) {
  for (const std::string& name : ScenarioRegistry::built_in().list()) {
    const auto scenario = ScenarioRegistry::built_in().find(name);
    ASSERT_NE(scenario, nullptr);
    const ScenarioInfo info = describe(*scenario);
    EXPECT_EQ(info.name, name);
    EXPECT_FALSE(info.description.empty());
    EXPECT_FALSE(info.victim.empty());
    EXPECT_FALSE(info.channel.empty());
    EXPECT_FALSE(info.channels.empty());

    // Feeding the described defaults back through the parser must
    // reproduce the same parameter set, channels and analysis binding.
    std::vector<std::pair<std::string, std::string>> kv;
    for (const ParamSpec& spec : info.params) {
      kv.emplace_back(spec.name, spec.default_value);
    }
    const ParamSet reparsed = scenario->parse_params(kv);
    const ParamSet defaults = scenario->parse_params({});
    EXPECT_EQ(reparsed.entries(), defaults.entries()) << name;
    EXPECT_EQ(scenario->channels(reparsed), info.channels) << name;
    const AnalysisSpec analysis = scenario->analysis(reparsed);
    EXPECT_EQ(analysis.cpa, info.analysis.cpa) << name;
    EXPECT_EQ(analysis.cpa_keys, info.analysis.cpa_keys) << name;
    EXPECT_EQ(analysis.leakage_channels, info.analysis.leakage_channels)
        << name;
    EXPECT_EQ(analysis.default_traces_per_set,
              info.analysis.default_traces_per_set)
        << name;
  }
}

TEST(ScenarioRegistry, ParamParsingRejectsMalformedInput) {
  const auto scenario = ScenarioRegistry::built_in().find("cache-timing");
  ASSERT_NE(scenario, nullptr);
  // Unknown key.
  EXPECT_THROW(scenario->parse_params({{"no_such_param", "1"}}),
               std::invalid_argument);
  // Duplicate key.
  EXPECT_THROW(scenario->parse_params({{"lines", "8"}, {"lines", "9"}}),
               std::invalid_argument);
  // Values parse lazily: a non-numeric value for a numeric param fails at
  // conversion time.
  const ParamSet bad = scenario->parse_params({{"lines", "many"}});
  EXPECT_THROW(bad.get_size("lines"), std::invalid_argument);
  const ParamSet bad_flag = scenario->parse_params({{"leak", "yes"}});
  EXPECT_THROW(bad_flag.get_flag("leak"), std::invalid_argument);
  // Integer params are decimal digits that fit std::size_t: a sign, a
  // blank or a value past 2^64 - 1 is an error, never a wrapped number.
  for (const std::string raw :
       {"-18446744073709551612", "-18446744073709551615", "-1", " 4", "4 ",
        "+4", "", "18446744073709551616"}) {
    for (const std::string key : {"iterations", "lines"}) {
      const ParamSet params = scenario->parse_params({{key, raw}});
      EXPECT_THROW(params.get_size(key), std::invalid_argument)
          << key << "='" << raw << "'";
    }
  }
  EXPECT_EQ(scenario->parse_params({{"lines", "18446744073709551615"}})
                .get_size("lines"),
            18446744073709551615ull);
  // And out-of-range scenario constraints surface from channels(), among
  // them an iterations count that does not fit the probe's int: 2^32 + 4
  // is an error, not 4 reloads. Past int, iterations x lines is bounded
  // by 65536 timed reloads per trace, so 2e9 iterations is an error, not
  // a trace that never finishes.
  const ParamSet too_many = scenario->parse_params({{"lines", "65"}});
  EXPECT_THROW(scenario->channels(too_many), std::invalid_argument);
  for (const std::string raw :
       {"4294967300", "2147483648", "2147483647", "2000000000", "4097", "0"}) {
    const ParamSet params = scenario->parse_params({{"iterations", raw}});
    EXPECT_THROW(scenario->channels(params), std::invalid_argument) << raw;
    EXPECT_THROW(scenario->make_source(params, aes::Block{}, 1),
                 std::invalid_argument)
        << raw;
  }
  // 16 lines x 4096 iterations is the bound itself; 64 x 1025 is past it.
  EXPECT_NO_THROW(
      scenario->channels(scenario->parse_params({{"iterations", "4096"}})));
  EXPECT_THROW(scenario->channels(scenario->parse_params(
                   {{"lines", "64"}, {"iterations", "1025"}})),
               std::invalid_argument);
  EXPECT_NO_THROW(scenario->channels(
      scenario->parse_params({{"lines", "64"}, {"iterations", "1024"}})));
}

// Real numbers are finite decimals, as std::from_chars reads them: no
// leading blank, no '+', no hex (0x10 would be 16 to strtod), no nan or
// inf, nothing out of double's range.
TEST(ScenarioRegistry, GetDoubleIsStrict) {
  const auto scenario = ScenarioRegistry::built_in().find("cache-timing");
  ASSERT_NE(scenario, nullptr);
  for (const std::string raw :
       {" 12", "12 ", "+12", "0x10", "0X10", "nan", "NaN", "-nan", "inf",
        "-inf", "infinity", "1e400", "-1e400", "", "12ns", "1,5"}) {
    const ParamSet params = scenario->parse_params({{"noise_ns", raw}});
    EXPECT_THROW(params.get_double("noise_ns"), std::invalid_argument)
        << "'" << raw << "'";
  }
  const std::vector<std::pair<std::string, double>> good = {
      {"12", 12.0}, {"-3", -3.0}, {"0.25", 0.25}, {"1e3", 1000.0},
      {"2.5E-2", 0.025}, {".5", 0.5}};
  for (const auto& [raw, expected] : good) {
    const ParamSet params = scenario->parse_params({{"noise_ns", raw}});
    EXPECT_EQ(params.get_double("noise_ns"), expected) << raw;
  }
}

// Params that would make one trace never finish (or make every value
// NaN or 0), or that the probe rejects, are errors from channels() as
// well as make_source(): channels() is where a served job's
// SUBMIT_SCENARIO is validated.
TEST(ScenarioRegistry, ParamsThatHangOrPoisonATraceAreRejected) {
  const std::vector<
      std::pair<std::string, std::vector<std::pair<std::string, std::string>>>>
      bad = {
          {"dvfs-frequency", {{"window_s", "nan"}}},
          {"dvfs-frequency", {{"window_s", "inf"}}},
          {"dvfs-frequency", {{"window_s", "1e300"}}},
          {"dvfs-frequency", {{"window_s", "1000.01"}}},
          {"dvfs-frequency", {{"window_s", "0"}}},
          {"dvfs-frequency", {{"window_s", "-0.5"}}},
          {"dvfs-frequency", {{"freq_noise_mhz", "nan"}}},
          {"dvfs-frequency", {{"freq_noise_mhz", "1e303"}}},
          {"dvfs-frequency", {{"freq_noise_mhz", "-5"}}},
          {"cache-timing", {{"iterations", "2000000000"}}},
          {"cache-timing", {{"noise_ns", "nan"}}},
          {"cache-timing", {{"noise_ns", "1e308"}}},
          {"cache-timing", {{"noise_ns", "-12"}}},
          {"cache-timing", {{"slc_pressure", "nan"}}},
          {"cache-timing", {{"slc_pressure", "1.5"}}},
          {"cache-timing", {{"slc_pressure", "-0.1"}}},
          {"sqmul-timing", {{"noise_ns", "nan"}}},
          {"sqmul-timing", {{"noise_ns", "1e308"}}},
          {"sqmul-timing", {{"bit_ns", "inf"}}},
          {"sqmul-timing", {{"bit_ns", "1e308"}}},
      };
  for (const auto& [name, kv] : bad) {
    const auto scenario = ScenarioRegistry::built_in().find(name);
    ASSERT_NE(scenario, nullptr);
    const ParamSet params = scenario->parse_params(kv);
    const std::string what = name + " " + kv[0].first + "=" + kv[0].second;
    EXPECT_THROW(scenario->channels(params), std::invalid_argument) << what;
    EXPECT_THROW(scenario->make_source(params, aes::Block{}, 1),
                 std::invalid_argument)
        << what;
  }
  // The jitter and cost bounds themselves are accepted, and the error
  // names the range.
  for (const auto& [name, key, raw] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"dvfs-frequency", "freq_noise_mhz", "1e5"},
           {"cache-timing", "noise_ns", "1e6"},
           {"sqmul-timing", "noise_ns", "1e6"},
           {"sqmul-timing", "bit_ns", "1e6"}}) {
    const auto scenario = ScenarioRegistry::built_in().find(name);
    ASSERT_NE(scenario, nullptr);
    EXPECT_NO_THROW(scenario->channels(scenario->parse_params({{key, raw}})))
        << name << " " << key << "=" << raw;
  }
  try {
    const auto cache = ScenarioRegistry::built_in().find("cache-timing");
    cache->channels(cache->parse_params({{"noise_ns", "1e308"}}));
    FAIL() << "noise_ns=1e308 must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("[0, 1e+06]"), std::string::npos)
        << e.what();
  }
  // The dvfs bound itself: 1000 s is 100000 decisions of 10 ms.
  const auto dvfs = ScenarioRegistry::built_in().find("dvfs-frequency");
  ASSERT_NE(dvfs, nullptr);
  EXPECT_NO_THROW(dvfs->channels(dvfs->parse_params({{"window_s", "1000"}})));
  try {
    dvfs->channels(dvfs->parse_params({{"window_s", "1e300"}}));
    FAIL() << "window_s=1e300 must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("100000"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioRegistry, ConcurrentListDescribeInstantiate) {
  constexpr int kThreads = 6;
  constexpr int kRounds = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      const ScenarioRegistry& registry = ScenarioRegistry::built_in();
      for (int round = 0; round < kRounds; ++round) {
        const std::vector<std::string> names = registry.list();
        ASSERT_EQ(names.size(), 5u);
        for (const std::string& name : names) {
          const auto scenario = registry.find(name);
          ASSERT_NE(scenario, nullptr);
          const ScenarioInfo info = describe(*scenario);
          ASSERT_EQ(info.name, name);
          const ParamSet defaults = scenario->parse_params({});
          aes::Block secret{};
          secret[0] = static_cast<std::uint8_t>(t);
          const auto source = scenario->make_source(
              defaults, secret, 1000 + static_cast<std::uint64_t>(t));
          ASSERT_NE(source, nullptr);
          ASSERT_EQ(source->keys(), info.channels);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
}

}  // namespace
}  // namespace psc::scenario
