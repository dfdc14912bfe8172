// Streaming PSTR writer: persists columnar core::TraceBatches as the
// chunked binary trace store (see store/pstr_format.h for the layout).
// The writer buffers appended rows into a chunk-sized staging batch and
// emits each full chunk with its CRC as it fills, so recording is
// out-of-core: memory stays one chunk regardless of campaign size.
// finalize() flushes the last partial chunk and writes the chunk index
// and footer; a file is only readable after finalize.
//
// Use it standalone (capture loops, trace_convert) or tee a live
// campaign's acquisition pass to disk by adding a RecordingSink to the
// campaign's core::MultiSink: analysis sinks and the recorder then see
// exactly the same batches, which is what makes replayed-from-file
// campaigns bit-identical to the live run that recorded them.
//
// The writer is single-stream and not thread-safe. Sharded campaigns
// record one file per shard (each shard owns its sinks; see
// core/parallel.h) or record through a shards=1 pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/analysis_sink.h"
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
  ~TraceFileWriter();  // finalizes, swallowing errors; prefer finalize()

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
  // Compression accounting over flushed chunks: decoded vs stored bytes
  // of the channel columns (pt/ct and framing excluded) — the ratio the
  // store_v2 bench gates on.
  std::uint64_t channel_raw_bytes() const noexcept {
    return channel_raw_bytes_;
  }
  std::uint64_t channel_stored_bytes() const noexcept {
    return channel_stored_bytes_;
  }

  // Appends every row of `batch` (channel count must match); slices
  // across chunk boundaries internally, so any batch size works.
  void append(const core::TraceBatch& batch);
  void append(const core::TraceSet& set) { append(set.batch()); }

  // Flushes the final partial chunk, writes the chunk index and footer
  // and closes the file. Idempotent; append() after finalize throws.
  void finalize();

 private:
  void flush_chunk();
  void write_bytes(const std::byte* data, std::size_t size);

  TraceFileWriterConfig config_;
  bool v2_ = false;
  std::string path_;
  std::ofstream out_;
  core::TraceBatch staging_;
  std::vector<std::byte> scratch_;  // chunk serialization buffer, reused
  std::vector<std::vector<std::byte>> enc_cols_;  // per-channel encodings
  std::vector<ColumnCodec> codecs_;  // per-column codec of the chunk (v2)
  std::vector<std::size_t> stored_;  // per-column stored bytes (v2)
  std::uint64_t channel_raw_bytes_ = 0;
  std::uint64_t channel_stored_bytes_ = 0;
  std::vector<ChunkIndexEntry> index_;
  std::uint64_t file_offset_ = 0;
  std::uint64_t rows_appended_ = 0;
  std::uint64_t rows_flushed_ = 0;
  bool finalized_ = false;
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
