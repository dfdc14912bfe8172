// ScenarioRegistry edge cases: duplicate rejection, describe()
// round-trips through parameter parsing, and thread-safety of concurrent
// list()/find()/describe()/instantiate (run under TSan in CI).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
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
  // is an error, not 4 reloads.
  const ParamSet too_many = scenario->parse_params({{"lines", "65"}});
  EXPECT_THROW(scenario->channels(too_many), std::invalid_argument);
  for (const std::string raw : {"4294967300", "2147483648", "0"}) {
    const ParamSet params = scenario->parse_params({{"iterations", raw}});
    EXPECT_THROW(scenario->channels(params), std::invalid_argument) << raw;
    EXPECT_THROW(scenario->make_source(params, aes::Block{}, 1),
                 std::invalid_argument)
        << raw;
  }
  const ParamSet int_max =
      scenario->parse_params({{"iterations", "2147483647"}});
  EXPECT_NO_THROW(scenario->channels(int_max));
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
