// The paper experiments' printed reports at quick scale:
//  * worker invariance: every experiment prints the same bytes at 1 and
//    4 workers;
//  * absolute anchors: the size and FNV-1a digest of eight reports are
//    pinned, so a change that shifts any printed number fails here even
//    when both worker counts agree with each other. They include the
//    three rd10_hd experiments (fig1a, fig1b, ablation_leakage_models),
//    which pin Rd10-HD analysis across the whole pipeline.
//
// After an intentional change to the numbers, copy the actual size and
// digest from the failure output into kAnchors.
#include "paper/paper.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <utility>

namespace psc::paper {
namespace {

// Quick-scale report of `id` at `workers`, run once per process.
const std::string& report(std::string_view id, std::size_t workers) {
  static std::map<std::pair<std::string, std::size_t>, std::string> cache;
  auto [it, inserted] = cache.try_emplace({std::string(id), workers});
  if (inserted) {
    const Experiment* experiment = find_experiment(id);
    EXPECT_NE(experiment, nullptr) << id;
    std::ostringstream out;
    const bool ok = experiment != nullptr &&
                    run_experiment(*experiment,
                                   {.quick = true, .workers = workers}, out);
    EXPECT_TRUE(ok) << id << " gate failed at " << workers << " worker(s)";
    it->second = out.str();
  }
  return it->second;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return h;
}

TEST(PaperExperiments, RegistryListsEveryExperimentOnce) {
  const char* ids[] = {"table1",
                       "table2",
                       "table3",
                       "table4",
                       "table5",
                       "table6",
                       "fig1a",
                       "fig1b",
                       "section4",
                       "mitigations",
                       "ablation_leakage_models",
                       "ablation_amplification",
                       "scenario_sweep"};
  ASSERT_EQ(experiments().size(), std::size(ids));
  for (std::size_t i = 0; i < std::size(ids); ++i) {
    EXPECT_EQ(experiments()[i].id, ids[i]);
    EXPECT_EQ(find_experiment(ids[i]), &experiments()[i]);
  }
  EXPECT_EQ(find_experiment("table7"), nullptr);
}

TEST(PaperExperiments, QuickScaleFloorsAtOneTrace) {
  EXPECT_EQ(PaperConfig{}.scaled(5000), 5000u);
  EXPECT_EQ((PaperConfig{.quick = true}).scaled(5000), 500u);
  EXPECT_EQ((PaperConfig{.quick = true}).scaled(9), 1u);
}

TEST(PaperExperiments, ReportsAreWorkerInvariant) {
  for (const Experiment& experiment : experiments()) {
    EXPECT_EQ(report(experiment.id, 1), report(experiment.id, 4))
        << experiment.id;
  }
}

TEST(PaperExperiments, QuickReportsMatchPinnedDigests) {
  // Recorded at quick scale, seed 42 and 8 shards: the first five from
  // the per-experiment bench binaries this library replaced, the
  // rd10_hd reports from the per-guess Rd10-HD loop the wide analysis
  // replaced.
  const struct {
    const char* id;
    std::size_t size;
    std::uint64_t fnv1a;
  } kAnchors[] = {
      {"table3", 3884, 0xf37f4ebcfb9a8176ull},
      {"table4", 1978, 0xa778621e5bb57fe6ull},
      {"table6", 3194, 0x9f0762f8bd0723f3ull},
      {"fig1a", 3349, 0x3c013949ca57a0e9ull},
      {"fig1b", 3104, 0x249630d6636b0194ull},
      {"section4", 2787, 0xbb72b1bae84eecbaull},
      {"ablation_leakage_models", 1163, 0xc38ecc7db39650ffull},
      {"scenario_sweep", 1741, 0x9fa545e042ff8621ull},
  };
  for (const auto& anchor : kAnchors) {
    const std::string& text = report(anchor.id, 4);
    char actual[32];
    std::snprintf(actual, sizeof actual, "0x%016llx",
                  static_cast<unsigned long long>(fnv1a(text)));
    EXPECT_EQ(text.size(), anchor.size) << anchor.id;
    EXPECT_EQ(fnv1a(text), anchor.fnv1a)
        << anchor.id << ": actual digest " << actual;
  }
}

}  // namespace
}  // namespace psc::paper
