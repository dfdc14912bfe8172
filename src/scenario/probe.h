// ChannelProbe: the attacker's sampling loop, one batch of observations
// at a time.
//
// A probe is the minimal thing a new scenario has to implement: given a
// batch of victim inputs it runs the victim once per input and writes
// one sample per channel per observation into the batch's value
// columns. ProbeTraceSource adapts a probe to core::TraceSource, so a
// probe author never touches sinks, shards or the store, yet
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
  // `columns`. Must be stable over the probe's lifetime.
  virtual const std::vector<util::FourCc>& keys() const noexcept = 0;

  // inputs.size() observations. For observation t the victim consumes
  // inputs[t] (writing whatever output it produces into outputs[t]; echo
  // the input when there is none) while the attacker samples channel c
  // into columns[c][t]. `outputs` and every column hold inputs.size()
  // entries, and there are keys().size() columns.
  //
  // The result must not depend on how a stream of inputs is split into
  // calls: every random draw happens in row order, exactly the draws a
  // loop over one observation at a time would make, so a batch of n rows
  // equals n one-row calls bit for bit. Work that draws nothing (the
  // victim's own computation) may be reordered or interleaved freely.
  virtual void sample(std::span<const aes::Block> inputs,
                      std::span<aes::Block> outputs,
                      std::span<const std::span<double>> columns) = 0;

  // Seconds of attacker wall-time one observation costs.
  virtual double window_s() const noexcept { return 1.0; }
};

// Adapts a ChannelProbe to the columnar TraceSource protocol: the whole
// batch goes to one sample() call.
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
  std::vector<std::span<double>> columns_;  // the batch's, reused
};

}  // namespace psc::scenario
