// ChannelProbe: the attacker's sampling loop, one observation at a time.
//
// A probe is the minimal thing a new scenario has to implement: given one
// victim input it runs the victim once and writes one sample per channel.
// ProbeTraceSource adapts a probe to core::TraceSource, transposing
// per-observation rows into the pipeline's columnar TraceBatches — so a
// probe author never touches batches, sinks, shards or the store, yet
// CpaSink/TvlaSink/GeCheckpointSink, PSTR recording and shard-parallel
// execution all work unchanged.
//
// Probes are single-shard and stateful (a real probe owns timers, arrays,
// a simulated governor...): the campaign builds one per shard from a
// split seed, mirroring every other source.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "aes/aes128.h"
#include "core/trace_source.h"
#include "util/fourcc.h"

namespace psc::scenario {

class ChannelProbe {
 public:
  virtual ~ChannelProbe() = default;

  // Channel columns one observation produces, aligned with sample()'s
  // output row. Must be stable over the probe's lifetime.
  virtual const std::vector<util::FourCc>& keys() const noexcept = 0;

  // One observation: the victim consumes `input` (writing whatever output
  // it produces into `output`; echo the input when there is none) while
  // the attacker samples every channel into `values` (keys().size()
  // entries).
  virtual void sample(const aes::Block& input, aes::Block& output,
                      std::span<double> values) = 0;

  // Seconds of attacker wall-time one observation costs.
  virtual double window_s() const noexcept { return 1.0; }
};

// Adapts a ChannelProbe to the columnar TraceSource protocol: rows are
// sampled in order and scattered into the batch's value columns.
class ProbeTraceSource final : public core::TraceSource {
 public:
  explicit ProbeTraceSource(std::unique_ptr<ChannelProbe> probe);

  const std::vector<util::FourCc>& keys() const noexcept override {
    return probe_->keys();
  }
  void collect_batch(core::TraceBatch& batch) override;
  double window_s() const noexcept override { return probe_->window_s(); }

  const ChannelProbe& probe() const noexcept { return *probe_; }

 private:
  std::unique_ptr<ChannelProbe> probe_;
  std::vector<double> row_;  // one observation, reused across traces
};

}  // namespace psc::scenario
