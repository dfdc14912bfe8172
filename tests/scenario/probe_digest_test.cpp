// Absolute anchors for the ChannelProbe scenarios: the raw value columns
// and ciphertext echoes of sqmul-timing, dvfs-frequency and cache-timing,
// hashed by bit pattern (FNV-1a). Each case is collected through batch
// splits of 1, 7, 64, 1000, 1024 and a mixed sequence, so every batch
// boundary of the probes' batch bodies (the 8-row sqmul groups, the
// per-row dvfs deviate block, the generator's cached second Gaussian)
// falls at many row offsets; every split must give the same digest, on
// both SIMD modes. The inputs cycle through the TVLA classes (all-zero,
// all-ones) and random blocks.
//
// A mismatch prints the actual digest; after an intentional change to a
// probe's numbers, copy it into the table.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/trace_batch.h"
#include "scenario/registry.h"
#include "util/rng.h"
#include "util/simd.h"

namespace psc::scenario {
namespace {

class Fnv1a {
 public:
  void add_bytes(const std::uint8_t* p, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) noexcept {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct ProbeAnchor {
  const char* scenario;
  std::vector<std::pair<std::string, std::string>> params;
  std::uint64_t digest;
};

// Rows per case: more than two of the largest split.
constexpr std::size_t anchor_rows = 2500;

// Row t's input: all-zero, all-ones, then a random block, cycled.
void stage_inputs(core::TraceBatch& batch, std::size_t first_row,
                  util::Xoshiro256& rng) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    aes::Block& pt = batch.plaintexts()[i];
    switch ((first_row + i) % 3) {
      case 0:
        pt.fill(0x00);
        break;
      case 1:
        pt.fill(0xff);
        break;
      default:
        rng.fill_bytes(pt);
        break;
    }
  }
}

std::uint64_t probe_digest(const ProbeAnchor& c,
                           const std::vector<std::size_t>& split) {
  const auto scenario = ScenarioRegistry::built_in().find(c.scenario);
  if (scenario == nullptr) {
    ADD_FAILURE() << "no scenario " << c.scenario;
    return 0;
  }
  util::Xoshiro256 secret_rng(2024);
  aes::Block secret;
  secret_rng.fill_bytes(secret);
  const std::unique_ptr<core::TraceSource> source =
      scenario->make_source(scenario->parse_params(c.params), secret, 77);
  util::Xoshiro256 input_rng(78);
  core::TraceBatch all(source->keys().size());
  core::TraceBatch batch(source->keys().size());
  for (std::size_t done = 0, i = 0; done < anchor_rows; ++i) {
    const std::size_t n =
        std::min(split[i % split.size()], anchor_rows - done);
    batch.clear();
    batch.resize(n);
    stage_inputs(batch, done, input_rng);
    source->collect_batch(batch);
    all.append(batch);
    done += n;
  }
  Fnv1a digest;
  for (const aes::Block& ct : all.ciphertexts()) {
    digest.add_bytes(ct.data(), ct.size());
  }
  for (std::size_t col = 0; col < all.channels(); ++col) {
    for (const double v : all.column(col)) {
      digest.add(v);
    }
  }
  return digest.value();
}

TEST(ProbeDigest, EveryProbePinnedAtEveryBatchSplit) {
  const std::vector<ProbeAnchor> cases = {
      {"sqmul-timing", {}, 0x5a9667f3be96c9d8ULL},
      {"sqmul-timing", {{"leak", "0"}}, 0x372060951e967c20ULL},
      {"dvfs-frequency", {}, 0x206132fb96004776ULL},
      {"dvfs-frequency", {{"device", "m1"}}, 0x9cf3f1920a3c4a40ULL},
      {"dvfs-frequency", {{"lowpower", "0"}}, 0xb94341946585073eULL},
      // 25 decision steps: an odd deviate count per row, so the cached
      // second Gaussian crosses every row and batch boundary.
      {"dvfs-frequency", {{"window_s", "0.25"}}, 0xf74554d00e6dcd2fULL},
      {"cache-timing", {}, 0x2e5fe922f38c8b4cULL},
      {"cache-timing",
       {{"slc_pressure", "0.3"}, {"lines", "7"}, {"iterations", "3"}},
       0x2aea7dec65105115ULL},
      {"cache-timing", {{"leak", "0"}}, 0xe67283f569b8f71eULL},
  };
  const std::vector<std::vector<std::size_t>> splits = {
      {1}, {7}, {64}, {1000}, {1024}, {3, 1024, 1, 257, 600, 2, 255}};
  for (const util::simd::Backend backend : util::simd::supported_backends()) {
    util::simd::force_backend(backend);
    for (const ProbeAnchor& c : cases) {
      std::string what = c.scenario;
      for (const auto& [key, value] : c.params) {
        what += " " + key + "=" + value;
      }
      for (const auto& split : splits) {
        const std::uint64_t actual = probe_digest(c, split);
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llxULL",
                      static_cast<unsigned long long>(actual));
        EXPECT_EQ(actual, c.digest)
            << what << ", split " << split.front() << " ("
            << util::simd::backend_name(backend) << "): actual digest "
            << hex;
      }
    }
  }
  util::simd::reset_backend();
}

}  // namespace
}  // namespace psc::scenario
