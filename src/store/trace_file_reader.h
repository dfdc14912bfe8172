// PSTR reader: validates and decodes the chunked binary trace store
// written by store::TraceFileWriter (layout in store/pstr_format.h).
//
// Every reader reads through a store::SharedMapping: an mmap of the file
// where mmap works, else one whole-file heap copy (see
// store/shared_mapping.h). Either way the bytes are one contiguous,
// 8-aligned buffer, so v1 chunks and all-identity v2 chunks are exposed
// as zero-copy ChunkViews — aligned spans straight into the mapping (the
// format 8-aligns every column), and replaying a 100 GB capture touches
// only the pages the analysis walks. Compressed v2 chunks decode into a
// caller-owned buffer or a shared store::ChunkCache.
//
// Every structural failure is a loud StoreError, never UB or a silent
// short read: bad magic, unsupported version, truncated file, corrupt
// footer/index (including a misaligned chunk offset), and per-chunk CRC
// mismatches (checked on every chunk read or decode) all name the file
// and the violation.
//
// Readers are single-threaded; sharded replay gives each shard its own
// reader over a disjoint chunk range (see store/file_trace_source.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aes/aes128.h"
#include "core/trace_batch.h"
#include "store/pstr_format.h"
#include "store/shared_mapping.h"
#include "util/fourcc.h"

namespace psc::store {

class ChunkCache;  // store/chunk_cache.h

// Decoded view of one chunk: column spans over either the mapping
// (zero-copy) or a decoded-chunk buffer. Valid until the next
// chunk()/read_rows() call on the owning reader.
class ChunkView {
 public:
  std::size_t rows() const noexcept { return rows_; }
  // Global index of the chunk's first trace.
  std::size_t row_begin() const noexcept { return row_begin_; }
  std::size_t channels() const noexcept { return channels_; }

  std::span<const aes::Block> plaintexts() const noexcept {
    return {reinterpret_cast<const aes::Block*>(payload_), rows_};
  }
  std::span<const aes::Block> ciphertexts() const noexcept {
    return {reinterpret_cast<const aes::Block*>(payload_ +
                                                rows_ * block_bytes),
            rows_};
  }
  std::span<const double> column(std::size_t c) const;

  // Appends chunk rows [begin, begin + count) to `batch`; the batch's
  // channel count must match.
  void append_to(core::TraceBatch& batch, std::size_t begin,
                 std::size_t count) const;
  void append_to(core::TraceBatch& batch) const {
    append_to(batch, 0, rows_);
  }

 private:
  friend class TraceFileReader;
  const std::byte* payload_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t row_begin_ = 0;
  std::size_t channels_ = 0;
};

class TraceFileReader {
 public:
  // Opens `path` as a SharedMapping of its own and reads through it.
  explicit TraceFileReader(const std::string& path);
  // Structurally validates the mapped file (header, footer, chunk index);
  // chunk payload CRCs are checked when a chunk is read. N readers (one
  // per job or shard) can share one mapping of the dataset; the reader
  // keeps a reference, so the bytes outlive it.
  explicit TraceFileReader(std::shared_ptr<const SharedMapping> mapping);

  TraceFileReader(const TraceFileReader&) = delete;
  TraceFileReader& operator=(const TraceFileReader&) = delete;

  const std::string& path() const noexcept { return mapping_->path(); }
  // On-disk format version (1 or 2; see store/pstr_format.h).
  std::uint16_t format_version() const noexcept { return version_; }
  const std::vector<util::FourCc>& channels() const noexcept {
    return channels_;
  }
  const Metadata& metadata() const noexcept { return metadata_; }
  std::size_t trace_count() const noexcept { return trace_count_; }
  std::size_t chunk_count() const noexcept { return index_.size(); }
  std::size_t chunk_capacity() const noexcept { return chunk_capacity_; }
  std::size_t file_bytes() const noexcept { return file_bytes_; }

  // True when the file is memory-mapped; false for the heap copy. Both
  // serve uncompressed chunks zero-copy.
  bool mapped() const noexcept { return mapping_->mmap_backed(); }
  // Bytes of decoded chunk data the reader itself keeps resident for
  // chunk(): at most one decoded v2 chunk, 0 while every chunk served
  // was zero-copy (the mapping's pages are not counted).
  std::size_t resident_bytes() const noexcept {
    return resident_.bytes.size();
  }

  std::size_t chunk_rows(std::size_t i) const { return index_.at(i).rows; }
  std::size_t chunk_row_begin(std::size_t i) const {
    return index_.at(i).row_begin;
  }
  // Index of the chunk holding global row `row` (row < trace_count()).
  std::size_t chunk_containing(std::size_t row) const;

  // read_chunk_into(i) on the reader's own buffer, memoised on the last
  // chunk; throws StoreError on corruption. The view is invalidated by
  // the next chunk()/read_rows() call.
  ChunkView chunk(std::size_t i);

  // Routes v2 chunk decodes through a shared decoded-chunk cache keyed
  // by (mapping id, chunk index): N readers over one SharedMapping decode
  // each compressed chunk once and share the immutable bytes. Identity
  // all-column chunks keep their zero-copy mapped path and never touch
  // the cache.
  void set_chunk_cache(std::shared_ptr<ChunkCache> cache);

  // Caller-owned decoded-chunk storage for read_chunk_into: lets the
  // prefetcher keep two chunks alive while the reader's internal
  // resident chunk advances.
  struct ChunkBuffer {
    std::vector<std::byte> bytes;
    // Pin on the cache entry backing the last view served from a shared
    // ChunkCache, so the view keeps its valid-until-buf-reused contract
    // even if the cache evicts the entry meanwhile.
    std::shared_ptr<const std::vector<std::byte>> cached;
  };

  // The one chunk decoder: checks chunk i's header, serves v1 and
  // all-identity v2 chunks zero-copy from the mapping (CRC checked on
  // every call), and otherwise fetches the decoded payload from the
  // attached cache or decodes it into `buf`. The view stays valid until
  // `buf` is reused, even across later chunk()/read_chunk_into() calls
  // — the contract the double-buffered prefetcher needs. Not
  // thread-safe: callers serialize all access to the reader (see
  // store/chunk_prefetcher.h).
  ChunkView read_chunk_into(std::size_t i, ChunkBuffer& buf);

  // Appends rows [begin, begin + count) to `batch`, seeking through the
  // chunk index in O(1) per chunk touched.
  void read_rows(std::size_t begin, std::size_t count,
                 core::TraceBatch& batch);

  // Per-column storage accounting over the whole file: codec usage plus
  // raw vs. stored bytes, one entry per chunk column (plaintexts,
  // ciphertexts, then each channel). Walks chunk headers and v2 column
  // directories only — no chunk payload is decoded and no payload CRC is
  // checked, so listing a dataset stays cheap no matter its size (the
  // contract the bus daemon's dataset registry relies on). Corrupt
  // directory structure still fails loudly; corrupt payload *data* is
  // only caught when a chunk is actually decoded.
  struct ColumnStats {
    std::string name;              // "plaintext", "ciphertext" or FourCC
    std::size_t chunks_coded = 0;  // chunks stored with a real codec
    std::uint64_t raw_bytes = 0;
    std::uint64_t stored_bytes = 0;
  };
  std::vector<ColumnStats> column_stats();

 private:
  // Parsed v2 column directory of one chunk.
  struct ColumnBlock {
    ColumnCodec codec = ColumnCodec::identity;
    std::uint64_t raw_bytes = 0;
    std::uint64_t stored_bytes = 0;
    std::uint64_t offset = 0;  // of the column block, relative to the chunk
  };

  [[noreturn]] void fail(const std::string& what) const;
  void validate_structure();
  void parse_header(const std::byte* data, std::size_t size);
  void parse_footer_and_index();
  // Checks chunk i's header against its index entry.
  void check_chunk_header(std::size_t i) const;
  // Validates chunk i's header and column directory into dir_; returns
  // true when every column is stored identity. No payload bytes are
  // touched.
  bool load_v2_directory(std::size_t i);
  void decode_v2_chunk(std::size_t i, std::vector<std::byte>& dest);
  ChunkView make_view(const std::byte* payload, const ChunkIndexEntry& entry);

  std::shared_ptr<const SharedMapping> mapping_;
  const std::byte* data_ = nullptr;  // mapping_->data()
  std::size_t file_bytes_ = 0;       // mapping_->size()

  // chunk()'s memo: the view of loaded_chunk_, backed by resident_ when
  // the chunk is not zero-copy.
  ChunkBuffer resident_;
  ChunkView loaded_view_;
  std::size_t loaded_chunk_ = static_cast<std::size_t>(-1);

  // Shared decoded-chunk cache (optional), keyed by mapping_->id().
  std::shared_ptr<ChunkCache> chunk_cache_;
  // Parsed column directory of the v2 chunk being opened.
  std::vector<ColumnBlock> dir_;

  std::uint16_t version_ = format_version_v1;
  std::vector<util::FourCc> channels_;
  Metadata metadata_;
  std::size_t chunk_capacity_ = 0;
  std::size_t header_bytes_ = 0;
  std::uint64_t index_offset_ = 0;  // chunk data ends here
  std::uint64_t trace_count_ = 0;
  std::vector<ChunkIndexEntry> index_;
};

}  // namespace psc::store
