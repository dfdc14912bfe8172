// Streaming PSTR writer: persists columnar core::TraceBatches as the
// chunked binary trace store (see store/pstr_format.h for the layout).
// The writer buffers appended rows into a chunk-sized staging batch and
// emits each full chunk with its CRC as it fills, so recording is
// out-of-core: memory stays a few chunks regardless of campaign size.
// finalize() flushes the last partial chunk and writes the chunk index
// and footer; a file is only readable after finalize.
//
// Chunks are encoded ahead, the mirror image of the replay side's
// ChunkPrefetcher: when a chunk fills, its CRC, per-column codec choice
// and serialization are posted to the process-wide core::WorkerPool
// while the caller goes on filling the next chunk. At most
// `pipeline_depth` chunks are in flight; finished chunks are written
// strictly in order, so the file bytes do not depend on which pool
// thread encoded what. A chunk no pool thread has claimed yet is
// encoded inline when it is drained (WorkerPool::finish's steal-back),
// so a writer used inside a pool job — a RecordingSink in a campaign
// unit — never deadlocks.
//
// Use it standalone (capture loops, trace_convert) or tee a live
// campaign's acquisition pass to disk by adding a RecordingSink to the
// campaign's core::MultiSink: analysis sinks and the recorder then see
// exactly the same batches, which is what makes replayed-from-file
// campaigns bit-identical to the live run that recorded them.
//
// The writer is single-stream and not thread-safe: one thread calls
// append() and finalize(). Sharded campaigns record one file per shard
// (each shard owns its sinks; see core/parallel.h) or record through a
// shards=1 pass.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis_sink.h"
#include "core/parallel.h"
#include "core/trace.h"
#include "core/trace_batch.h"
#include "store/pstr_format.h"
#include "util/fourcc.h"

namespace psc::store {

struct TraceFileWriterConfig {
  // Channel columns of every appended batch, in column order.
  std::vector<util::FourCc> channels;
  // Traces per chunk: the unit of CRC checking, seeking and sharded
  // replay. Larger chunks amortize headers; smaller chunks seek finer.
  std::size_t chunk_capacity = 4096;
  // Free-form provenance pairs stored in the header (device profile,
  // OS, victim...). See device_metadata().
  Metadata metadata = {};
  // Requested codec per channel column, for version-2 files. Empty (the
  // default) keeps the writer emitting byte-identical version-1 files;
  // otherwise the size must equal channels.size(). Plaintext/ciphertext
  // columns are always identity (uniformly random AES blocks do not
  // compress). A requested codec is per-chunk best-effort: a chunk whose
  // column fails the codec's bit-exact verification — or would not
  // shrink — is stored identity, so any data round-trips exactly.
  std::vector<ColumnCodec> channel_codecs = {};
};

// `codec` for every one of `channels` columns — the "compress
// everything" config of trace_convert compact and the v2 benches.
std::vector<ColumnCodec> uniform_channel_codecs(std::size_t channels,
                                                ColumnCodec codec);

// Header metadata describing the capture device, for
// TraceFileWriterConfig::metadata.
Metadata device_metadata(const std::string& device_name,
                         const std::string& os_version);

class TraceFileWriter {
 public:
  // Creates `path` and writes the header. An existing regular file at
  // `path` is unlinked first, so readers that still map it keep its old
  // bytes; a symlink is written through to its target. Throws StoreError
  // (std::runtime_error) if the file cannot be created or the config is
  // invalid (no channels, a chunk capacity of zero or above 2^32 - 1);
  // an invalid config leaves `path` untouched.
  TraceFileWriter(const std::string& path, TraceFileWriterConfig config);
  // Finalizes, swallowing errors (prefer finalize()), and waits out every
  // chunk still in flight.
  ~TraceFileWriter();

  TraceFileWriter(const TraceFileWriter&) = delete;
  TraceFileWriter& operator=(const TraceFileWriter&) = delete;

  const std::vector<util::FourCc>& channels() const noexcept {
    return config_.channels;
  }
  std::size_t chunk_capacity() const noexcept {
    return config_.chunk_capacity;
  }
  // Rows appended so far (buffered rows included).
  std::size_t trace_count() const noexcept { return rows_appended_; }

  // On-disk format version this writer emits (1, or 2 when any channel
  // codec is configured).
  std::uint16_t format_version() const noexcept {
    return v2_ ? format_version_v2 : format_version_v1;
  }
  // Compression accounting over chunks written so far: decoded vs stored
  // bytes of the channel columns (pt/ct and framing excluded) — the
  // ratio the store_v2 bench gates on. Complete after finalize().
  std::uint64_t channel_raw_bytes() const noexcept {
    return channel_raw_bytes_;
  }
  std::uint64_t channel_stored_bytes() const noexcept {
    return channel_stored_bytes_;
  }

  // Appends every row of `batch` (channel count must match); slices
  // across chunk boundaries internally, so any batch size works. Chunks
  // reach the file some appends later, so a write error (a full disk)
  // may surface at a later append() or at finalize(). Any write or
  // encode error is sticky: every later append() and finalize() throws
  // StoreError too.
  void append(const core::TraceBatch& batch);
  void append(const core::TraceSet& set) { append(set.batch()); }

  // Encodes and writes every chunk still staged or in flight, the final
  // partial one included, then the chunk index and footer, and closes
  // the file. Idempotent once it has succeeded; append() after finalize
  // throws, and so does a retry after a failed finalize.
  void finalize();

 private:
  // Chunks encoded ahead at most: the writer reserves this many pool
  // threads and keeps this many chunk buffers.
  static constexpr std::size_t pipeline_depth = 4;

  struct Chunk;  // one chunk's staging rows and encoding (the .cpp)

  void throw_if_failed() const;
  Chunk& filling();
  void submit();
  void drain_oldest();
  void write_bytes(const std::byte* data, std::size_t size);

  TraceFileWriterConfig config_;
  bool v2_ = false;
  std::string path_;
  std::ofstream out_;
  core::WorkerPool* pool_;
  // Ring of chunk buffers, created on first use. Chunks
  // [fill_ - in_flight_, fill_) (mod pipeline_depth) are posted and not
  // yet written; chunk fill_ is staging unless all of them are in
  // flight. Posted jobs share ownership of their chunk.
  std::array<std::shared_ptr<Chunk>, pipeline_depth> chunks_;
  std::array<core::WorkerPool::AsyncTicket, pipeline_depth> tickets_;
  std::size_t fill_ = 0;
  std::size_t in_flight_ = 0;
  std::uint64_t channel_raw_bytes_ = 0;
  std::uint64_t channel_stored_bytes_ = 0;
  std::vector<ChunkIndexEntry> index_;
  std::uint64_t file_offset_ = 0;
  std::uint64_t rows_appended_ = 0;
  std::uint64_t rows_flushed_ = 0;
  bool finalized_ = false;
  bool failed_ = false;  // a write or an encode threw; see append()
};

// Tees an acquisition stream to a TraceFileWriter: drop one into a
// campaign's MultiSink and the recorded file replays (via
// store::FileTraceSource) the exact batches every co-attached analysis
// sink consumed. Non-owning; the writer must outlive the sink and be
// finalized by the caller after the pass.
class RecordingSink final : public core::AnalysisSink {
 public:
  enum class Filter {
    all,                     // record every batch (default)
    random_plaintexts_only,  // only batches a CPA would consume — records
                             // the CPA stream of a combined TVLA+CPA pass
  };

  explicit RecordingSink(TraceFileWriter& writer, Filter filter = Filter::all)
      : writer_(&writer), filter_(filter) {}

  void consume(const core::TraceBatch& batch,
               const core::BatchLabel& label) override {
    if (filter_ == Filter::random_plaintexts_only &&
        !label.random_plaintexts()) {
      return;
    }
    writer_->append(batch);
  }

 private:
  TraceFileWriter* writer_;
  Filter filter_;
};

}  // namespace psc::store
