// Out-of-core replay: a core::TraceSource that streams a PSTR trace
// store through the standard acquire->accumulate pipeline, so every
// existing analysis (CPA, TVLA, GE, combined campaigns) runs against a
// recorded dataset without touching its math — larger than RAM when the
// reader's mapping is mmap-backed (see store/shared_mapping.h).
// collect_batch() overwrites the staged plaintext column with the
// recorded plaintexts (so the base collect() ignores the requested
// plaintext).
//
// Sharded replay: each shard of a campaign (core::run_sink_campaign)
// replays its own row ranges of the same file — its slice of every
// recorded TVLA set, or its slice of one random-plaintext stream (the bus
// replay jobs), each cut with core::shard_begin / core::shard_size. Each
// shard constructs its own FileTraceSource (and thus
// its own reader; readers are single-threaded, while the file's bytes
// are shared: through the OS page cache, or through one
// store::SharedMapping handed to every shard's reader, as the bus replay
// jobs do). Because ranges are disjoint and in shard order, merging
// per-shard engines in shard order is bit-identical to one sequential
// replay.
// Replay overlaps chunk decode with analysis by default: the source
// walks its row range through a store::ChunkPrefetcher, which decodes
// chunk N+1 on the persistent core::WorkerPool while the caller ingests
// chunk N. The schedule — not the result — changes: batches are
// bit-identical with prefetch on or off, and sharded replay inside pool
// jobs degrades gracefully to inline decode (see chunk_prefetcher.h).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/trace_source.h"
#include "store/chunk_prefetcher.h"
#include "store/trace_file_reader.h"

namespace psc::store {

// Whether replay decodes ahead asynchronously. `off` is the serial
// decode path, the reference the prefetch equivalence tests compare
// against.
enum class PrefetchMode {
  on,
  off,
};

struct FileSourceOptions {
  PrefetchMode prefetch = PrefetchMode::on;
};

class FileTraceSource final : public core::TraceSource {
 public:
  // Replays every trace of the file at `path` in order.
  explicit FileTraceSource(const std::string& path,
                           const FileSourceOptions& options = {});
  // Replays rows [begin, begin + count) — a shard view for parallel
  // out-of-core analysis. `count` is clamped to the rows available.
  FileTraceSource(const std::string& path, std::size_t begin,
                  std::size_t count, const FileSourceOptions& options = {});
  // Adopts an already-open reader (single-threaded use only).
  explicit FileTraceSource(std::unique_ptr<TraceFileReader> reader);
  FileTraceSource(std::unique_ptr<TraceFileReader> reader, std::size_t begin,
                  std::size_t count,
                  const FileSourceOptions& options = FileSourceOptions{});
  // Replays each range in turn, every one clamped to the rows available
  // (a shard's slice of several recorded sets).
  FileTraceSource(std::unique_ptr<TraceFileReader> reader,
                  std::vector<core::RowRange> ranges,
                  const FileSourceOptions& options = FileSourceOptions{});

  const TraceFileReader& reader() const noexcept { return *reader_; }

  // True when this source decodes ahead through the worker pool.
  bool prefetch_enabled() const noexcept { return prefetch_; }
  // Chunk decodes that completed asynchronously so far (0 with prefetch
  // off or before the first batch).
  std::size_t async_completions() const noexcept {
    return async_done_ +
           (prefetcher_ ? prefetcher_->async_completions() : 0);
  }

  const std::vector<util::FourCc>& keys() const noexcept override {
    return reader_->channels();
  }
  // Bulk chunk-seeked copy of the next batch.size() recorded traces
  // (including their plaintexts); throws std::out_of_range if fewer
  // remain.
  void collect_batch(core::TraceBatch& batch) override;
  std::optional<std::size_t> remaining() const noexcept override {
    return end_ - pos_ + later_rows_;
  }

 private:
  // Appends the next `n` rows to `batch`, moving on to the following
  // range whenever the current one is exhausted (n <= *remaining()).
  void append_rows(std::size_t n, core::TraceBatch& batch);
  // The prefetched view covering global row `row`, advancing the
  // prefetcher as needed (rows are consumed strictly in order).
  const ChunkView& current_view(std::size_t row);

  std::unique_ptr<TraceFileReader> reader_;
  std::vector<core::RowRange> ranges_;  // clamped; [next_range_, end) to go
  std::size_t next_range_ = 0;
  std::size_t later_rows_ = 0;  // rows in the ranges after the current one
  std::size_t pos_ = 0;         // current range: rows [pos_, end_) left
  std::size_t end_ = 0;
  bool prefetch_ = false;
  std::optional<ChunkPrefetcher> prefetcher_;  // per range, on first read
  std::size_t async_done_ = 0;  // async decodes of finished ranges
  ChunkView view_;
  bool have_view_ = false;
};

}  // namespace psc::store
