// Probe-array flush/reload victim: the cache-timing scenario's simulated
// SoC interaction (EXAM-style, see PAPERS.md). The victim owns a small
// probe array — one entry per simulated SLC line — and touches a
// secret/input-derived subset of lines per invocation. The attacker
// flushes the array, triggers the victim once, then reloads every line
// and measures each reload with the platform's coarse timer, using the
// probe idiom of real M-series cache attacks: average several timed
// iterations, and re-read when the coarse timer returns zero ticks
// (hit latencies sit below one tick, so a zero reading carries no
// information until re-sampled at a different phase).
//
// An SLC occupancy knob models EXAM's observation that competing cache
// pressure evicts probe lines between the victim's access and the
// attacker's reload: with probability `slc_pressure`, a line the victim
// touched misses anyway, degrading (and at 1.0 erasing) the channel.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "aes/aes128.h"
#include "util/rng.h"

namespace psc::victim {

struct ProbeArrayConfig {
  std::size_t lines = 16;       // probe-array size (1..64 simulated lines)
  double hit_ns = 40.0;         // reload latency, line still cached
  double miss_ns = 240.0;       // reload latency after eviction
  double noise_ns = 12.0;       // per-reload latency jitter (sigma)
  double timer_granularity_ns = 41.67;  // 24 MHz coarse counter tick
  int iterations = 4;           // timed reloads averaged per line
  int retries_if_zero = 50;     // re-reads of a zero coarse-timer sample
  double slc_pressure = 0.0;    // [0,1] competing-occupancy eviction prob
  bool secret_dependent = true; // false = fixed input-independent line set
};

class ProbeArrayVictim {
 public:
  ProbeArrayVictim(const ProbeArrayConfig& config, const aes::Block& secret,
                   std::uint64_t seed);

  std::size_t lines() const noexcept { return config_.lines; }

  // One flush + trigger + reload round per input, in row order: the
  // victim consumes inputs[t], then line_columns[l][t] receives the
  // averaged coarse-timer reload latency (ns) of line l. `line_columns`
  // must hold lines() columns of at least inputs.size() entries.
  void observe(std::span<const aes::Block> inputs,
               std::span<const std::span<double>> line_columns);

 private:
  // Lines the victim touches for `input`, as a bitmask over [0, lines).
  std::uint64_t touched_lines(const aes::Block& input) const noexcept;

  // One averaged, coarse-timer probe of a line that is (or is not) cached.
  double probe_line(bool cached);

  ProbeArrayConfig config_;
  aes::Block secret_;
  util::Xoshiro256 rng_;
};

}  // namespace psc::victim
