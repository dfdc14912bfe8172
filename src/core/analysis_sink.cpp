#include "core/analysis_sink.h"

#include <algorithm>
#include <stdexcept>

namespace psc::core {

// ---------- CpaSink ----------

CpaSink::CpaSink(std::vector<power::PowerModel> models,
                 std::vector<std::size_t> columns)
    : columns_(std::move(columns)) {
  if (columns_.empty()) {
    throw std::invalid_argument("CpaSink: need at least one column");
  }
  engines_.reserve(columns_.size());
  for (std::size_t k = 0; k < columns_.size(); ++k) {
    engines_.emplace_back(models);
  }
}

void CpaSink::consume(const TraceBatch& batch, const BatchLabel& label) {
  if (!label.random_plaintexts()) {
    return;
  }
  for (std::size_t k = 0; k < engines_.size(); ++k) {
    engines_[k].add_batch(batch, columns_[k]);
  }
}

std::size_t CpaSink::trace_count() const noexcept {
  return engines_.front().trace_count();
}

void CpaSink::merge(const CpaSink& other) {
  if (columns_ != other.columns_) {
    throw std::invalid_argument("CpaSink::merge: column lists differ");
  }
  for (std::size_t k = 0; k < engines_.size(); ++k) {
    engines_[k].merge(other.engines_[k]);
  }
}

// ---------- TvlaSink ----------

void TvlaSink::consume(const TraceBatch& batch, const BatchLabel& label) {
  if (!label.cls.has_value()) {
    return;
  }
  if (batch.channels() != accumulators_.size()) {
    throw std::invalid_argument("TvlaSink::consume: channel count mismatch");
  }
  for (std::size_t c = 0; c < accumulators_.size(); ++c) {
    accumulators_[c].add_batch(*label.cls, label.primed, batch.column(c));
  }
}

void TvlaSink::merge(const TvlaSink& other) {
  if (accumulators_.size() != other.accumulators_.size()) {
    throw std::invalid_argument("TvlaSink::merge: channel count mismatch");
  }
  for (std::size_t c = 0; c < accumulators_.size(); ++c) {
    accumulators_[c].merge(other.accumulators_[c]);
  }
}

// ---------- CheckpointReduction ----------

CheckpointReduction::CheckpointReduction(std::size_t shards,
                                         std::size_t checkpoints,
                                         FinalFn on_final)
    : shards_(shards),
      checkpoints_(checkpoints),
      on_final_(std::move(on_final)) {
  if (shards_ == 0) {
    throw std::invalid_argument("CheckpointReduction: zero shards");
  }
}

bool CheckpointReduction::fold(std::size_t shard, std::size_t checkpoint,
                               const CpaEngine& engine) {
  return fold(shard, checkpoint, engine, nullptr);
}

void CheckpointReduction::fold(std::size_t shard, std::size_t checkpoint,
                               CpaEngine&& engine) {
  CpaEngine owned = std::move(engine);  // freed on return unless kept
  fold(shard, checkpoint, owned, &owned);
}

void CheckpointReduction::count_parked(bool parked) noexcept {
  if (!parked) {
    parked_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t now = parked_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::size_t peak = parked_peak_.load(std::memory_order_relaxed);
  while (now > peak && !parked_peak_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

CheckpointReduction::Checkpoint& CheckpointReduction::at(
    std::size_t shard, std::size_t checkpoint) {
  if (shard >= shards_ || checkpoint >= checkpoints_.size()) {
    throw std::out_of_range("CheckpointReduction: no such shard/checkpoint");
  }
  return checkpoints_[checkpoint];
}

bool CheckpointReduction::fold(std::size_t shard, std::size_t checkpoint,
                               const CpaEngine& engine, CpaEngine* owned) {
  Checkpoint& cp = at(shard, checkpoint);
  const auto keep = [&] {
    return owned != nullptr ? std::move(*owned) : CpaEngine(engine);
  };
  std::optional<CpaEngine> copy;
  std::unique_lock<std::mutex> lock(cp.mu);
  if (cp.next != shard) {
    // A shard ahead of this one has not folded yet: park, copying
    // outside the lock, unless the gap filled while the copy was made.
    lock.unlock();
    copy.emplace(keep());
    lock.lock();
    if (cp.next != shard) {
      if (cp.parked.empty()) {
        cp.parked.resize(shards_);
        cp.orphaned.resize(shards_);
      }
      cp.parked[shard] = std::move(copy);
      cp.orphaned[shard] = owned != nullptr;
      count_parked(true);
      return false;
    }
  }
  lock.unlock();
  // cp.next == shard: this thread alone extends the sum until it
  // advances cp.next.
  if (shard == 0) {
    cp.sum.emplace(copy ? std::move(*copy) : keep());
  } else {
    cp.sum->merge(copy ? *copy : engine);
  }
  copy.reset();
  extend(cp, checkpoint);
  return true;
}

bool CheckpointReduction::settle(std::size_t shard, std::size_t checkpoint,
                                 bool last) {
  Checkpoint& cp = at(shard, checkpoint);
  std::unique_lock<std::mutex> lock(cp.mu);
  if (cp.next != shard) {
    if (last) {
      cp.orphaned[shard] = true;
    }
    return false;
  }
  std::optional<CpaEngine> parked = std::move(cp.parked[shard]);
  cp.parked[shard].reset();
  lock.unlock();
  count_parked(false);
  cp.sum->merge(*parked);  // shard 0 never parks, so the sum exists
  parked.reset();
  extend(cp, checkpoint);
  return true;
}

void CheckpointReduction::extend(Checkpoint& cp, std::size_t checkpoint) {
  // Shards [0, cp.next] are in the sum. Advance past them, merging the
  // parked engines of shards that will not come back for them.
  std::unique_lock<std::mutex> lock(cp.mu, std::defer_lock);
  for (;;) {
    lock.lock();
    if (++cp.next == shards_) {
      break;
    }
    if (cp.parked.empty() || !cp.parked[cp.next] || !cp.orphaned[cp.next]) {
      return;
    }
    std::optional<CpaEngine> parked = std::move(cp.parked[cp.next]);
    cp.parked[cp.next].reset();
    lock.unlock();
    count_parked(false);
    cp.sum->merge(*parked);
  }
  lock.unlock();
  // Every shard has folded: nothing else touches cp again.
  CpaEngine sum = std::move(*cp.sum);
  cp.sum.reset();
  cp.parked = {};
  cp.orphaned = {};
  if (on_final_) {
    on_final_(checkpoint, std::move(sum));
  }
}

// ---------- GeCheckpointSink ----------

GeCheckpointSink::GeCheckpointSink(std::vector<power::PowerModel> models,
                                   std::size_t column,
                                   std::vector<std::size_t> targets)
    : engine_(std::move(models)),
      column_(column),
      targets_(std::move(targets)),
      own_(std::make_unique<CheckpointReduction>(
          1, targets_.size(),
          [this](std::size_t, CpaEngine&& engine) {
            snapshots_.push_back(std::move(engine));
          })),
      reduction_(own_.get()) {
  if (!std::is_sorted(targets_.begin(), targets_.end())) {
    throw std::invalid_argument("GeCheckpointSink: targets not ascending");
  }
  snapshots_.reserve(targets_.size());
  fold_reached();
}

GeCheckpointSink::GeCheckpointSink(std::vector<power::PowerModel> models,
                                   std::size_t column,
                                   std::vector<std::size_t> targets,
                                   CheckpointReduction& reduction,
                                   std::size_t shard,
                                   std::size_t first_checkpoint)
    : engine_(std::move(models)),
      column_(column),
      targets_(std::move(targets)),
      reduction_(&reduction),
      shard_(shard),
      first_(first_checkpoint) {
  if (!std::is_sorted(targets_.begin(), targets_.end())) {
    throw std::invalid_argument("GeCheckpointSink: targets not ascending");
  }
  // Targets already met by the empty engine (e.g. a zero share of a small
  // checkpoint on a late shard) fold at once.
  fold_reached();
}

void GeCheckpointSink::fold_reached() {
  while (next_target_ < targets_.size() &&
         engine_.trace_count() == targets_[next_target_]) {
    const std::size_t checkpoint = first_ + next_target_++;
    if (next_target_ < targets_.size()) {
      if (!reduction_->fold(shard_, checkpoint, engine_)) {
        parked_.push_back(checkpoint);
      }
      continue;
    }
    // The last target: hand the engine over, and leave every copy that
    // still cannot merge to the shard that fills its gap.
    reduction_->fold(shard_, checkpoint, std::move(engine_));
    for (const std::size_t parked : parked_) {
      reduction_->settle(shard_, parked, true);
    }
    parked_.clear();
  }
}

void GeCheckpointSink::settle_parked() {
  std::erase_if(parked_, [&](std::size_t checkpoint) {
    return reduction_->settle(shard_, checkpoint, false);
  });
}

void GeCheckpointSink::consume(const TraceBatch& batch,
                               const BatchLabel& label) {
  // Every batch is a chance to merge what this shard parked.
  settle_parked();
  if (!label.random_plaintexts()) {
    return;
  }
  const auto pts = batch.plaintexts();
  const auto cts = batch.ciphertexts();
  const auto values = batch.column(column_);
  std::size_t begin = 0;
  while (begin < batch.size()) {
    if (!targets_.empty() && next_target_ == targets_.size()) {
      throw std::logic_error("GeCheckpointSink: rows past the last target");
    }
    std::size_t end = batch.size();
    // Split the batch at the next target so the fold captures exactly
    // the target trace count.
    if (next_target_ < targets_.size()) {
      end = std::min(end, begin + (targets_[next_target_] -
                                   engine_.trace_count()));
    }
    engine_.add_trace_batch(pts.subspan(begin, end - begin),
                            cts.subspan(begin, end - begin),
                            values.subspan(begin, end - begin));
    fold_reached();
    begin = end;
  }
}

}  // namespace psc::core
