#include "scenario/probe.h"

#include <stdexcept>

namespace psc::scenario {

ProbeTraceSource::ProbeTraceSource(std::unique_ptr<ChannelProbe> probe)
    : probe_(std::move(probe)) {
  if (!probe_) {
    throw std::invalid_argument("ProbeTraceSource: null probe");
  }
  columns_.reserve(probe_->keys().size());
}

void ProbeTraceSource::collect_batch(core::TraceBatch& batch) {
  if (batch.channels() != probe_->keys().size()) {
    throw std::invalid_argument(
        "ProbeTraceSource: batch channel count mismatch");
  }
  columns_.clear();
  for (std::size_t c = 0; c < batch.channels(); ++c) {
    columns_.push_back(batch.column(c));
  }
  probe_->sample(batch.plaintexts(), batch.ciphertexts(), columns_);
}

}  // namespace psc::scenario
