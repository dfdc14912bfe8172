#include "core/trace_source.h"

#include <algorithm>
#include <stdexcept>

#include "smc/key_database.h"

namespace psc::core {

namespace {

// Acquisition chunk size for the batched helper loops; bounds staging
// memory while keeping the per-chunk virtual-call overhead negligible.
constexpr std::size_t default_chunk = 1024;

void check_channels(const TraceSource& source, const TraceBatch& batch,
                    const char* who) {
  if (batch.channels() != source.keys().size()) {
    throw std::invalid_argument(std::string(who) +
                                ": batch channel count mismatch");
  }
}

}  // namespace

TraceRecord TraceSource::collect(const aes::Block& plaintext) {
  TraceBatch row(keys().size());
  row.resize(1);
  row.plaintexts()[0] = plaintext;
  collect_batch(row);
  TraceRecord record{row.plaintexts()[0], row.ciphertexts()[0], {}};
  record.values.reserve(row.channels());
  for (std::size_t c = 0; c < row.channels(); ++c) {
    record.values.push_back(row.column(c)[0]);
  }
  return record;
}

void collect_random_batch(TraceSource& source, std::size_t count,
                          util::Xoshiro256& rng, TraceBatch& batch) {
  batch.clear();
  batch.resize(count);
  for (auto& pt : batch.plaintexts()) {
    rng.fill_bytes(pt);
  }
  source.collect_batch(batch);
}

// ---------- LiveTraceSource ----------

LiveTraceSource::LiveTraceSource(const LiveSourceConfig& config,
                                 const aes::Block& victim_key,
                                 std::uint64_t seed)
    : source_(config.profile, victim_key, config.victim, seed,
              config.mitigation),
      keys_(source_.keys()),
      include_pcpu_(config.include_pcpu),
      columns_(source_.keys().size()) {
  if (include_pcpu_) {
    keys_.push_back(util::FourCc("PCPU"));
  }
}

std::vector<util::FourCc> LiveTraceSource::channel_names(
    const LiveSourceConfig& config) {
  const smc::KeyDatabase database = smc::apply_mitigations(
      smc::KeyDatabase::for_device(config.profile.name), config.mitigation);
  std::vector<util::FourCc> keys = database.workload_dependent_keys();
  if (config.include_pcpu) {
    keys.push_back(util::FourCc("PCPU"));
  }
  return keys;
}

void LiveTraceSource::collect_batch(TraceBatch& batch) {
  check_channels(*this, batch, "LiveTraceSource::collect_batch");
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    columns_[c] = batch.column(c);
  }
  source_.collect_batch(
      batch.plaintexts(), batch.ciphertexts(), columns_,
      include_pcpu_ ? batch.column(columns_.size()) : std::span<double>{});
}

// ---------- SyntheticTraceSource ----------

SyntheticTraceSource::SyntheticTraceSource(const SyntheticSourceConfig& config,
                                           const aes::Block& victim_key,
                                           std::uint64_t seed)
    : cipher_(victim_key),
      evaluator_(config.leakage),
      noise_(config.noise_sigma),
      rng_(seed),
      gain_(config.gain),
      keys_({config.channel}) {}

void SyntheticTraceSource::collect_batch(TraceBatch& batch) {
  check_channels(*this, batch, "SyntheticTraceSource::collect_batch");
  const auto pts = batch.plaintexts();
  const auto cts = batch.ciphertexts();
  const auto values = batch.column(0);
  for (std::size_t t = 0; t < batch.size(); ++t) {
    aes::RoundTrace trace;
    cts[t] = cipher_.encrypt_trace(pts[t], trace);
    values[t] = noise_.apply(
        gain_ * evaluator_.energy_deviation(pts[t], trace), rng_);
  }
}

// ---------- helpers ----------

CpaEngine accumulate_cpa(TraceSource& source, util::FourCc key,
                         const std::vector<power::PowerModel>& models,
                         std::size_t count, util::Xoshiro256& rng) {
  const auto& keys = source.keys();
  const auto it = std::find(keys.begin(), keys.end(), key);
  if (it == keys.end()) {
    throw std::invalid_argument("accumulate_cpa: source has no channel " +
                                key.str());
  }
  const auto column = static_cast<std::size_t>(it - keys.begin());
  if (count == 0) {
    const auto remaining = source.remaining();
    if (!remaining) {
      throw std::invalid_argument(
          "accumulate_cpa: count = 0 (everything remaining) requires a "
          "finite source");
    }
    count = *remaining;
  }

  CpaEngine engine(models);
  TraceBatch batch(keys.size());
  batch.reserve(std::min(count, default_chunk));
  std::size_t produced = 0;
  while (produced < count) {
    const std::size_t chunk = std::min(default_chunk, count - produced);
    collect_random_batch(source, chunk, rng, batch);
    engine.add_batch(batch, column);
    produced += chunk;
  }
  return engine;
}

}  // namespace psc::core
