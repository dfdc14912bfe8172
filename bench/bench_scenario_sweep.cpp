// Scenario registry sweep: run every registered attack scenario at the
// bench budget and gate on the leakage the paper (and the related work
// the scenarios model) predicts:
//  * with default params every scenario's leakage channels must show
//    cross-class TVLA |t| above the 4.5 detection threshold, and
//  * scenarios with a `leak` knob (cache-timing, dvfs-frequency,
//    sqmul-timing) must drop below the threshold when the
//    secret-dependent behaviour is disabled (leak=0) — the channel, not
//    an artifact of the harness, carries the signal.
//
// One JSON object goes to stdout and BENCH_scenario_sweep.json (override
// with PSC_BENCH_JSON) so successive commits have a leakage trajectory
// to compare. Non-zero exit when a gate fails.
//
// Scale knobs (bench_common.h): PSC_QUICK, PSC_TRACES, PSC_SEED,
// PSC_WORKERS, PSC_SHARDS.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/table.h"

int main() {
  using namespace psc;
  bench::banner("Scenario sweep",
                "TVLA leakage gate over every registered scenario");

  const double threshold = 4.5;
  const std::size_t per_set = bench::scaled(800);
  const std::uint64_t seed = bench::bench_seed();

  scenario::ScenarioRunConfig config;
  config.traces_per_set = per_set;
  config.seed = seed;
  bench::apply_parallel_env(config.workers, config.shards);

  struct Row {
    std::string name;
    bool cpa = false;
    std::size_t channels = 0;
    double leak_on_t = 0.0;
    bool has_leak_knob = false;
    double leak_off_t = 0.0;
    double ge_bits = 0.0;
    bool ok = false;
  };
  std::vector<Row> rows;
  bool all_ok = true;

  const auto& registry = scenario::ScenarioRegistry::built_in();
  for (const scenario::ScenarioInfo& info : registry.describe_all()) {
    Row row;
    row.name = info.name;
    row.cpa = info.analysis.cpa;
    row.channels = info.channels.size();
    for (const scenario::ParamSpec& param : info.params) {
      if (param.name == "leak") {
        row.has_leak_knob = true;
      }
    }

    std::cerr << "running " << info.name << " (" << per_set
              << " traces per set)...\n";
    const scenario::ScenarioRunResult on =
        scenario::run_scenario(info.name, {}, config);
    row.leak_on_t = on.max_cross_class_t();
    if (!on.cpa.empty() && !on.cpa.front().final_results.empty()) {
      row.ge_bits = on.cpa.front().final_results.front().ge_bits;
    }
    row.ok = row.leak_on_t >= threshold;

    if (row.has_leak_knob) {
      const scenario::ScenarioRunResult off =
          scenario::run_scenario(info.name, {{"leak", "0"}}, config);
      row.leak_off_t = off.max_cross_class_t();
      row.ok = row.ok && row.leak_off_t < threshold;
    }
    all_ok = all_ok && row.ok;
    rows.push_back(row);
  }

  util::TextTable table;
  table.header({"scenario", "analysis", "leak-on max |t|", "leak-off max |t|",
                "gate"});
  for (const Row& row : rows) {
    table.add_row({row.name, row.cpa ? "TVLA+CPA" : "TVLA",
                   util::fixed(row.leak_on_t, 2),
                   row.has_leak_knob ? util::fixed(row.leak_off_t, 2) : "-",
                   row.ok ? "PASS" : "FAIL"});
  }
  table.render(std::cout);
  std::cout << "threshold: cross-class |t| >= " << threshold
            << " with leakage enabled, < " << threshold
            << " with the leak knob off\n";
  for (const Row& row : rows) {
    if (!row.ok) {
      std::cerr << "FAIL: " << row.name << " leak-on |t| " << row.leak_on_t
                << (row.has_leak_knob
                        ? ", leak-off |t| " + util::format_double(row.leak_off_t)
                        : std::string())
                << " (threshold " << threshold << ")\n";
    }
  }

  std::string scenario_rows;
  for (const Row& row : rows) {
    if (!scenario_rows.empty()) {
      scenario_rows += ",";
    }
    scenario_rows +=
        "{\"name\":\"" + row.name + "\"," +
        "\"cpa\":" + (row.cpa ? "true" : "false") + "," +
        "\"channels\":" + std::to_string(row.channels) + "," +
        "\"leak_on_max_t\":" + util::format_double(row.leak_on_t) + "," +
        "\"leak_off_max_t\":" +
        (row.has_leak_knob ? util::format_double(row.leak_off_t) : "null") +
        "," +
        "\"ge_bits\":" + util::format_double(row.ge_bits) + "," +
        "\"ok\":" + (row.ok ? "true" : "false") + "}";
  }
  const std::string json =
      "{\"bench\":\"scenario_sweep\","
      "\"traces_per_set\":" + std::to_string(per_set) + ","
      "\"seed\":" + std::to_string(seed) + ","
      "\"shards\":" + std::to_string(config.shards) + ","
      "\"threshold\":" + util::format_double(threshold) + ","
      "\"gate\":\"enforced\","
      "\"scenarios\":[" + scenario_rows + "],"
      "\"ok\":" + (all_ok ? "true" : "false") + "}";
  std::cout << json << "\n";
  const std::string path =
      util::env_string("PSC_BENCH_JSON", "BENCH_scenario_sweep.json");
  if (std::ofstream out(path); out) {
    out << json << "\n";
  } else {
    std::cerr << "warning: could not write " << path << "\n";
  }
  return all_ok ? 0 : 1;
}
