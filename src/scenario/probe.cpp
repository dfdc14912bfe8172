#include "scenario/probe.h"

#include <stdexcept>

namespace psc::scenario {

ProbeTraceSource::ProbeTraceSource(std::unique_ptr<ChannelProbe> probe)
    : probe_(std::move(probe)) {
  if (!probe_) {
    throw std::invalid_argument("ProbeTraceSource: null probe");
  }
  row_.resize(probe_->keys().size());
}

void ProbeTraceSource::collect_batch(core::TraceBatch& batch) {
  if (batch.channels() != row_.size()) {
    throw std::invalid_argument(
        "ProbeTraceSource: batch channel count mismatch");
  }
  const std::span<const aes::Block> plaintexts = batch.plaintexts();
  const std::span<aes::Block> ciphertexts = batch.ciphertexts();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    probe_->sample(plaintexts[i], ciphertexts[i], row_);
    for (std::size_t c = 0; c < row_.size(); ++c) {
      batch.column(c)[i] = row_[c];
    }
  }
}

}  // namespace psc::scenario
