// Multi-sink analysis: feed several consumers from one acquisition pass.
//
// The paper's Tables 3-6 each re-acquire traces per analysis; at 1M-trace
// scale the acquisition dominates, so this layer decouples "what the
// attacker collects" from "what is computed over it". An AnalysisSink
// consumes columnar TraceBatches tagged with a BatchLabel; MultiSink fans
// one stream out to any number of sinks, so a single sharded acquisition
// pass produces CPA rankings, TVLA matrices and guessing-entropy
// checkpoints concurrently — one trace budget, all the statistics.
//
// Sinks are shard-local: each shard of the campaign loop
// (core::run_sink_campaign) owns its own sinks, and per-sink partial
// state merges in shard order, exactly like the bare engines: TVLA sinks
// as each shard drains (TvlaSink::merge), GE checkpoint engines as each
// shard reaches the checkpoint (CheckpointReduction).
//
// Sinks need not compute anything: store::RecordingSink
// (store/trace_file_writer.h) tees the acquisition stream to a PSTR
// trace store, so one pass both analyzes and persists — the recorded
// file replays (store::FileTraceSource) bit-identically to the live run.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/cpa.h"
#include "core/trace_batch.h"
#include "core/tvla.h"
#include "power/hypothetical.h"

namespace psc::core {

// Provenance tag of an acquisition batch. Chosen-plaintext CPA batches
// are unlabeled; the TVLA collection protocol labels each batch with its
// (plaintext class, primed-or-not collection) pair.
struct BatchLabel {
  std::optional<PlaintextClass> cls;
  bool primed = false;

  static BatchLabel unlabeled() noexcept { return {}; }
  static BatchLabel tvla(PlaintextClass cls, bool primed) noexcept {
    return {cls, primed};
  }

  // True when the batch carries attacker-unpredictable plaintexts — the
  // only traces a chosen/known-plaintext CPA can rank guesses with.
  bool random_plaintexts() const noexcept {
    return !cls.has_value() || *cls == PlaintextClass::random_pt;
  }
};

class AnalysisSink {
 public:
  virtual ~AnalysisSink() = default;

  // Consumes one acquisition batch. Sinks sharing a MultiSink see the
  // same batches in the same order; a sink ignores batches outside its
  // protocol (e.g. CPA sinks skip fixed-plaintext TVLA sets).
  virtual void consume(const TraceBatch& batch, const BatchLabel& label) = 0;
};

// Fans one acquisition stream out to several sinks, in order. Non-owning:
// the campaign keeps the concrete sinks so it can read their state after
// the pass.
class MultiSink final : public AnalysisSink {
 public:
  MultiSink() = default;
  explicit MultiSink(std::vector<AnalysisSink*> sinks)
      : sinks_(std::move(sinks)) {}

  void add(AnalysisSink* sink) { sinks_.push_back(sink); }

  void consume(const TraceBatch& batch, const BatchLabel& label) override {
    for (AnalysisSink* sink : sinks_) {
      sink->consume(batch, label);
    }
  }

 private:
  std::vector<AnalysisSink*> sinks_;
};

// CPA over one or more channel columns: one CpaEngine per attacked
// column, all fed from the same batches. Consumes random-plaintext
// batches only.
class CpaSink final : public AnalysisSink {
 public:
  CpaSink(std::vector<power::PowerModel> models,
          std::vector<std::size_t> columns);

  void consume(const TraceBatch& batch, const BatchLabel& label) override;

  std::size_t engines() const noexcept { return engines_.size(); }
  const CpaEngine& engine(std::size_t i) const { return engines_.at(i); }
  std::size_t trace_count() const noexcept;

  // Absorbs another sink's accumulator state (same models and columns), as
  // if its batches had been consumed here: the shard-merge step.
  void merge(const CpaSink& other);

 private:
  std::vector<std::size_t> columns_;
  std::vector<CpaEngine> engines_;
};

// TVLA over every channel column: one TvlaAccumulator per channel, fed
// from labeled batches only (unlabeled CPA batches carry no collection
// tag and are skipped).
class TvlaSink final : public AnalysisSink {
 public:
  explicit TvlaSink(std::size_t channels) : accumulators_(channels) {}

  void consume(const TraceBatch& batch, const BatchLabel& label) override;

  std::size_t channels() const noexcept { return accumulators_.size(); }
  const TvlaAccumulator& accumulator(std::size_t c) const {
    return accumulators_.at(c);
  }

  void merge(const TvlaSink& other);

 private:
  std::vector<TvlaAccumulator> accumulators_;
};

// Shard-order reduction of GE checkpoint engines, folded as the shards
// reach each checkpoint rather than after they drain. Checkpoint c's sum
// holds shards [0, n) of its engines, and shard n folds its engine in as
// it takes it: shard 0 copies it (or moves it, at its last checkpoint),
// later shards merge it in place. A shard that arrives before the shards
// ahead of it parks a copy and merges it itself once they have folded
// (settle(), which its sink polls on every batch), so a shard that runs
// ahead pays for its own copy and merge and falls back into shard order.
// A parked engine whose shard has finished is merged by the shard that
// fills the gap. Every checkpoint thus merges strictly in shard order —
// the same merges, in the same order, as a pass over every shard's
// snapshots after the last one drains, so every sum is bit-identical to
// that pass. One lock per checkpoint guards only the bookkeeping; copies
// and merges run outside it, and no shard ever waits for another.
//
// When the last shard folds checkpoint c, its sum is final: on_final
// receives it on that thread, mid-shard, so it must be brief (the
// campaign loop queues the checkpoint's analysis units).
class CheckpointReduction {
 public:
  using FinalFn = std::function<void(std::size_t checkpoint, CpaEngine&&)>;

  CheckpointReduction(std::size_t shards, std::size_t checkpoints,
                      FinalFn on_final);

  // Shard `shard` holds `engine` at `checkpoint` and keeps accumulating.
  // Returns true if the engine merged where it stands; false if a copy
  // was parked, which the shard then owes a settle() call.
  bool fold(std::size_t shard, std::size_t checkpoint,
            const CpaEngine& engine);
  // The same at the shard's last checkpoint: the engine is taken, never
  // copied; if it must park, the shard that fills the gap merges it.
  void fold(std::size_t shard, std::size_t checkpoint, CpaEngine&& engine);
  // Merges the engine the shard parked at `checkpoint` if every shard
  // ahead of it has folded, and returns whether it did. With `last` (the
  // shard is done), an engine that cannot merge yet is left to the shard
  // that fills the gap.
  bool settle(std::size_t shard, std::size_t checkpoint, bool last);

  // Most parked copies alive at once (0 whenever shards reach every
  // checkpoint in shard order, e.g. one at a time).
  std::size_t parked_peak() const noexcept {
    return parked_peak_.load(std::memory_order_relaxed);
  }

 private:
  struct Checkpoint {
    std::mutex mu;
    std::size_t next = 0;  // shards [0, next) are in `sum`
    std::optional<CpaEngine> sum;
    std::vector<std::optional<CpaEngine>> parked;  // by shard
    std::vector<bool> orphaned;  // parked by a shard that will not settle
  };

  Checkpoint& at(std::size_t shard, std::size_t checkpoint);
  bool fold(std::size_t shard, std::size_t checkpoint,
            const CpaEngine& engine, CpaEngine* owned);
  void extend(Checkpoint& cp, std::size_t checkpoint);
  void count_parked(bool parked) noexcept;

  std::size_t shards_;
  std::vector<Checkpoint> checkpoints_;
  FinalFn on_final_;
  std::atomic<std::size_t> parked_{0};
  std::atomic<std::size_t> parked_peak_{0};
};

// CPA accumulation that folds its engine into a CheckpointReduction at
// ascending trace-count targets — the sharded pipeline's guessing-entropy
// checkpoints without merge barriers. Each shard of a campaign runs one
// GeCheckpointSink per attacked channel with targets shard_size(
// checkpoint, shards, s); because those per-shard targets sum to exactly
// the global checkpoint, the shard-order sum of every shard's engine at
// target k is bit-for-bit the engine a sequential run would hold at
// checkpoint k. A batch straddling a target is split so the fold lands
// exactly on it. At its last target the sink hands its engine over, so
// a batch with rows beyond the last target throws std::logic_error.
//
// Memory: a campaign holds one sum per (key, checkpoint) until that
// checkpoint is final and analyzed, one running engine per running shard,
// and the copies parked by shards that ran ahead of their predecessors
// (SinkCampaignResult::stats.parked_snapshots_peak). With pair-histogram
// models (rd10_hd, ~13 MB per engine) keep the checkpoint schedule
// short; single-byte-histogram models cost ~0.1 MB per engine.
class GeCheckpointSink final : public AnalysisSink {
 public:
  // Stand-alone: the sink is a one-shard reduction of its own, and
  // snapshots() holds its engine at every target reached.
  GeCheckpointSink(std::vector<power::PowerModel> models, std::size_t column,
                   std::vector<std::size_t> targets);
  // Shard `shard` of a campaign: target i folds into checkpoint
  // `first_checkpoint + i` of `reduction`; snapshots() stays empty.
  GeCheckpointSink(std::vector<power::PowerModel> models, std::size_t column,
                   std::vector<std::size_t> targets,
                   CheckpointReduction& reduction, std::size_t shard,
                   std::size_t first_checkpoint);

  // The stand-alone reduction reports into this object.
  GeCheckpointSink(const GeCheckpointSink&) = delete;
  GeCheckpointSink& operator=(const GeCheckpointSink&) = delete;

  void consume(const TraceBatch& batch, const BatchLabel& label) override;

  // Stand-alone: the engine at each target reached so far, in order.
  const std::vector<CpaEngine>& snapshots() const noexcept {
    return snapshots_;
  }

 private:
  // Folds the engine at every target it has reached.
  void fold_reached();
  // Merges the parked engines whose turn has come.
  void settle_parked();

  CpaEngine engine_;
  std::size_t column_;
  std::vector<std::size_t> targets_;
  std::size_t next_target_ = 0;
  std::vector<CpaEngine> snapshots_;
  std::vector<std::size_t> parked_;  // checkpoints awaiting settle()
  std::unique_ptr<CheckpointReduction> own_;  // stand-alone only
  CheckpointReduction* reduction_;
  std::size_t shard_ = 0;
  std::size_t first_ = 0;
};

}  // namespace psc::core
