// Pluggable trace acquisition (the paper's acquire->accumulate loop,
// abstracted). Every campaign, bench and example consumes traces through
// one interface, so the same CPA/TVLA analysis code runs against:
//
//   LiveTraceSource      the simulated device (victim::FastTraceSource
//                        driving the SMC read path), optionally exposing
//                        the IOReport PCPU channel as an extra column;
//   SyntheticTraceSource a bare leakage model plus measurement noise, for
//                        fast statistical tests of the analysis pipeline.
//
// Two more sources live outside core: store::FileTraceSource
// (store/file_trace_source.h) replays a chunked binary PSTR trace store
// out-of-core — datasets larger than RAM stream through collect_batch
// one chunk at a time, optionally sharded so each shard of a campaign
// (core/campaigns.h) replays its own row ranges of the same file — and
// scenario::ProbeTraceSource (scenario/probe.h) adapts a registry
// scenario's batch probe.
//
// The native currency is the columnar core::TraceBatch, filled through a
// stage-then-collect protocol: the caller sizes the batch and writes the
// chosen plaintexts into its plaintext column, then collect_batch()
// computes the ciphertext and channel columns in place. collect_batch is
// the one thing a source implements; the per-trace collect() is defined
// once, in the base class, as a one-row collect_batch.
//
// Sources are single-threaded; the campaign loop gives each shard its own
// source built from a split RNG stream (see core/campaigns.h).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "aes/aes128.h"
#include "core/cpa.h"
#include "core/trace.h"
#include "core/trace_batch.h"
#include "power/leakage_model.h"
#include "power/noise.h"
#include "smc/mitigation.h"
#include "soc/device_profile.h"
#include "util/rng.h"
#include "victim/fast_trace.h"

namespace psc::core {

// Rows [begin, begin + count) of a recorded trace stream: the part of a
// dataset one replay shard reads.
struct RowRange {
  std::size_t begin = 0;
  std::size_t count = 0;
};

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  // Channel columns reported per trace, aligned with the batch's value
  // columns (and TraceRecord::values).
  virtual const std::vector<util::FourCc>& keys() const noexcept = 0;

  // One trace for an attacker-chosen plaintext: stages a one-row batch
  // and calls collect_batch, so it is row t of a collect_batch from the
  // same state. Replay sources ignore `plaintext` and return the next
  // recorded trace (whose own plaintext is in the returned record).
  // Virtual only so a decorating source can forward it.
  virtual TraceRecord collect(const aes::Block& plaintext);

  // Fills the ciphertext and value columns of `batch` for its staged
  // plaintext column (the caller resizes the batch and writes chosen
  // plaintexts first). Replay sources overwrite the plaintext column with
  // the recorded plaintexts instead, and throw std::out_of_range if fewer
  // rows remain. Throws std::invalid_argument unless
  // batch.channels() == keys().size().
  virtual void collect_batch(TraceBatch& batch) = 0;

  // Seconds of attacker wall-time one trace costs (the SMC update window).
  virtual double window_s() const noexcept { return 1.0; }

  // Traces left before the source is exhausted; nullopt for unbounded
  // (live / synthetic) sources.
  virtual std::optional<std::size_t> remaining() const noexcept {
    return std::nullopt;
  }
};

// Clears `batch`, stages `count` plaintexts drawn from `rng` and collects
// into them: one chosen-plaintext acquisition chunk. RNG consumption and
// results match a collect() loop drawing one plaintext per trace.
void collect_random_batch(TraceSource& source, std::size_t count,
                          util::Xoshiro256& rng, TraceBatch& batch);

// ---------- live simulated capture ----------

struct LiveSourceConfig {
  soc::DeviceProfile profile;
  victim::VictimModel victim = victim::VictimModel::user_space();
  smc::MitigationPolicy mitigation = smc::MitigationPolicy::none();
  // Also expose the IOReport PCPU energy (mJ) as a trailing "PCPU" column.
  bool include_pcpu = false;
};

class LiveTraceSource final : public TraceSource {
 public:
  LiveTraceSource(const LiveSourceConfig& config, const aes::Block& victim_key,
                  std::uint64_t seed);

  // The channel columns a source with this config will report, without
  // paying for device calibration (the set depends only on the device's
  // key database and the mitigation policy).
  static std::vector<util::FourCc> channel_names(
      const LiveSourceConfig& config);

  const std::vector<util::FourCc>& keys() const noexcept override {
    return keys_;
  }
  // One FastTraceSource::collect_batch call per batch, straight into the
  // batch's columns (PCPU included): the device fills whole columns in
  // blocks of up to aes::RoundCounts::capacity (64) traces, in scratch it
  // keeps, with no allocation per call.
  void collect_batch(TraceBatch& batch) override;
  double window_s() const noexcept override { return source_.window_s(); }

  // The underlying calibrated device pipeline.
  const victim::FastTraceSource& device() const noexcept { return source_; }

 private:
  victim::FastTraceSource source_;
  std::vector<util::FourCc> keys_;
  bool include_pcpu_;
  std::vector<std::span<double>> columns_;  // the batch's SMC columns, reused
};

// ---------- synthetic leakage ----------

struct SyntheticSourceConfig {
  // Chip-side leakage shape; the default is the calibrated Apple-silicon
  // profile.
  power::LeakageConfig leakage = power::LeakageConfig::apple_silicon_default();
  // Channel units per joule of data-dependent energy deviation.
  double gain = 1.0;
  // Additive Gaussian measurement noise, in channel units (after gain).
  double noise_sigma = 0.0;
  util::FourCc channel = util::FourCc("SYNT");
};

class SyntheticTraceSource final : public TraceSource {
 public:
  SyntheticTraceSource(const SyntheticSourceConfig& config,
                       const aes::Block& victim_key, std::uint64_t seed);

  const std::vector<util::FourCc>& keys() const noexcept override {
    return keys_;
  }
  void collect_batch(TraceBatch& batch) override;

  const aes::Aes128& cipher() const noexcept { return cipher_; }

 private:
  aes::Aes128 cipher_;
  power::LeakageEvaluator evaluator_;
  power::GaussianNoise noise_;
  util::Xoshiro256 rng_;
  double gain_;
  std::vector<util::FourCc> keys_;
};

// ---------- source-generic acquisition helpers ----------

// Acquire-and-accumulate CPA over any source: feeds `count` traces
// (0 = everything remaining, for finite sources) into a CpaEngine
// attacking channel `key`. Runs on the batched path; feeding order and
// arithmetic match a hand-rolled collect() loop of one-row batches
// bit-for-bit.
CpaEngine accumulate_cpa(TraceSource& source, util::FourCc key,
                         const std::vector<power::PowerModel>& models,
                         std::size_t count, util::Xoshiro256& rng);

}  // namespace psc::core
