#include "store/trace_file_writer.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <utility>

#include "util/codec.h"
#include "util/crc32.h"

namespace psc::store {

namespace {

// Serialized header: fixed fields, channel codes, metadata pairs, zero
// padding to an 8-byte boundary.
std::vector<std::byte> render_header(const TraceFileWriterConfig& config,
                                     std::uint16_t version) {
  std::size_t size = fixed_header_bytes + 4 * config.channels.size() + 4;
  for (const auto& [key, value] : config.metadata) {
    size += 8 + key.size() + value.size();
  }
  size = (size + 7) & ~std::size_t{7};

  std::vector<std::byte> header(size, std::byte{0});
  std::memcpy(header.data(), file_magic, 4);
  put_u16(header.data() + 4, version);
  put_u16(header.data() + 6, 0);  // flags
  put_u32(header.data() + 8, static_cast<std::uint32_t>(size));
  put_u32(header.data() + 12, static_cast<std::uint32_t>(block_bytes));
  put_u32(header.data() + 16,
          static_cast<std::uint32_t>(config.channels.size()));
  put_u32(header.data() + 20,
          static_cast<std::uint32_t>(config.chunk_capacity));
  put_u64(header.data() + 24, 0);  // reserved

  std::byte* p = header.data() + fixed_header_bytes;
  for (const util::FourCc channel : config.channels) {
    put_u32(p, channel.code());
    p += 4;
  }
  put_u32(p, static_cast<std::uint32_t>(config.metadata.size()));
  p += 4;
  for (const auto& [key, value] : config.metadata) {
    put_u32(p, static_cast<std::uint32_t>(key.size()));
    p += 4;
    std::memcpy(p, key.data(), key.size());
    p += key.size();
    put_u32(p, static_cast<std::uint32_t>(value.size()));
    p += 4;
    std::memcpy(p, value.data(), value.size());
    p += value.size();
  }
  return header;
}

}  // namespace

// One chunk on its way to disk. The caller stages rows into `staging`
// and posts encode(); the posted job fills every field below `staging`,
// and the caller writes `bytes` once the job has finished.
struct TraceFileWriter::Chunk {
  // Requested codec per channel column; empty for a version-1 writer.
  std::vector<ColumnCodec> requested;
  core::TraceBatch staging;
  std::vector<std::byte> bytes;  // the serialized chunk, reused
  std::vector<std::vector<std::byte>> enc_cols;  // per-channel encodings
  std::vector<ColumnCodec> codecs;  // per-column codec of the chunk (v2)
  std::vector<std::size_t> stored;  // per-column stored bytes
  std::uint32_t crc = 0;
  std::uint64_t channel_raw_bytes = 0;
  std::uint64_t channel_stored_bytes = 0;
  std::exception_ptr error;  // what encode() threw, rethrown on drain

  void encode();
};

void TraceFileWriter::Chunk::encode() {
  const bool v2 = !requested.empty();
  const std::size_t rows = staging.size();
  const std::size_t columns = chunk_column_count(staging.channels());
  const auto raw_col = [&](std::size_t col) -> const std::byte* {
    if (col < 2) {
      return reinterpret_cast<const std::byte*>(
          (col == 0 ? staging.plaintexts() : staging.ciphertexts()).data());
    }
    return reinterpret_cast<const std::byte*>(staging.column(col - 2).data());
  };
  const auto raw_size = [&](std::size_t col) {
    return col < 2 ? rows * block_bytes : rows * sizeof(double);
  };

  // The CRC covers the decoded payload, the staged columns back to back
  // (codec-independent). v1 stores every column verbatim with no
  // directory; v2 encodes each channel column, falling back to identity
  // per chunk when the codec cannot represent the data bit-exactly or
  // would not shrink it. Raw column sizes are multiples of 8, so padding
  // never moves a v1 column.
  util::Crc32 checksum;
  codecs.assign(columns, ColumnCodec::identity);
  stored.resize(columns);
  channel_raw_bytes = 0;
  channel_stored_bytes = 0;
  std::size_t blocks_bytes = 0;
  for (std::size_t col = 0; col < columns; ++col) {
    stored[col] = raw_size(col);
    checksum.update(raw_col(col), stored[col]);
    if (v2 && col >= 2) {
      const std::size_t c = col - 2;
      channel_raw_bytes += stored[col];
      if (requested[c] == ColumnCodec::delta_bitpack &&
          util::delta_bitpack_encode(staging.column(c).data(), rows,
                                     enc_cols[c])) {
        codecs[col] = ColumnCodec::delta_bitpack;
        stored[col] = enc_cols[c].size();
      }
      channel_stored_bytes += stored[col];
    }
    blocks_bytes += pad8(stored[col]);
  }
  crc = checksum.value();

  const std::size_t dir_bytes = v2 ? columns * column_entry_bytes : 0;
  bytes.assign(chunk_header_bytes + dir_bytes + blocks_bytes, std::byte{0});
  std::memcpy(bytes.data(), chunk_magic, 4);
  put_u32(bytes.data() + 4, static_cast<std::uint32_t>(rows));
  put_u32(bytes.data() + 8, crc);
  put_u32(bytes.data() + 12, 0);  // reserved

  std::byte* dir = bytes.data() + chunk_header_bytes;
  std::byte* block = dir + dir_bytes;
  for (std::size_t col = 0; col < columns; ++col) {
    const bool identity = codecs[col] == ColumnCodec::identity;
    if (v2) {
      std::byte* e = dir + col * column_entry_bytes;
      put_u32(e, static_cast<std::uint32_t>(codecs[col]));
      put_u32(e + 4, 0);  // reserved
      put_u64(e + 8, raw_size(col));
      put_u64(e + 16, stored[col]);
    }
    std::memcpy(block, identity ? raw_col(col) : enc_cols[col - 2].data(),
                stored[col]);
    block += pad8(stored[col]);
  }
}

Metadata device_metadata(const std::string& device_name,
                         const std::string& os_version) {
  return {{"device", device_name}, {"os", os_version}};
}

std::vector<ColumnCodec> uniform_channel_codecs(std::size_t channels,
                                                ColumnCodec codec) {
  return std::vector<ColumnCodec>(channels, codec);
}

TraceFileWriter::TraceFileWriter(const std::string& path,
                                 TraceFileWriterConfig config)
    : config_(std::move(config)),
      path_(path),
      pool_(&core::WorkerPool::instance()) {
  if (config_.channels.empty()) {
    throw StoreError("TraceFileWriter: no channels configured");
  }
  if (config_.chunk_capacity == 0) {
    throw StoreError("TraceFileWriter: chunk capacity must be positive");
  }
  if (config_.chunk_capacity > std::numeric_limits<std::uint32_t>::max()) {
    // The header and every chunk store row counts as u32.
    throw StoreError("TraceFileWriter: chunk capacity exceeds 2^32 - 1");
  }
  if (!config_.channel_codecs.empty() &&
      config_.channel_codecs.size() != config_.channels.size()) {
    throw StoreError(
        "TraceFileWriter: channel_codecs size must match channels");
  }
  for (const ColumnCodec codec : config_.channel_codecs) {
    if (codec != ColumnCodec::identity &&
        codec != ColumnCodec::delta_bitpack) {
      throw StoreError("TraceFileWriter: unknown channel codec");
    }
    v2_ = v2_ || codec != ColumnCodec::identity;
  }
  // An existing regular file is unlinked, not truncated in place: a
  // reader still mapping it keeps the old bytes instead of faulting on a
  // shrunk mapping, and the new file is written as a fresh inode. On
  // ext4 an O_TRUNC overwrite also forces the new bytes to disk at close
  // (auto_da_alloc), and the next overwrite of that file then waits on
  // the journal and the writeback: about 5 ms per rewrite of a 5.7 MB
  // compacted store, varying with the disk. A symlink is written
  // through to its target.
  std::error_code ignored;
  if (std::filesystem::is_regular_file(
          std::filesystem::symlink_status(path_, ignored))) {
    std::filesystem::remove(path_, ignored);
  }
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    throw StoreError("TraceFileWriter: cannot create " + path_);
  }

  const std::vector<std::byte> header =
      render_header(config_, format_version());
  write_bytes(header.data(), header.size());
  pool_->reserve(pipeline_depth);
}

TraceFileWriter::~TraceFileWriter() {
  try {
    finalize();
  } catch (...) {
    // Destructors must not throw; callers that care about durability call
    // finalize() explicitly and see the error there.
  }
  // A failed finalize (or a sticky earlier failure) leaves chunks in
  // flight; their jobs own their chunks, but none may outlive the writer.
  for (core::WorkerPool::AsyncTicket& ticket : tickets_) {
    pool_->finish(ticket);
  }
}

void TraceFileWriter::write_bytes(const std::byte* data, std::size_t size) {
  out_.write(reinterpret_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  if (!out_) {
    failed_ = true;
    throw StoreError("TraceFileWriter: write failed on " + path_);
  }
  file_offset_ += size;
}

void TraceFileWriter::throw_if_failed() const {
  if (failed_) {
    throw StoreError("TraceFileWriter: an earlier write failed on " + path_);
  }
}

TraceFileWriter::Chunk& TraceFileWriter::filling() {
  if (in_flight_ == pipeline_depth) {
    drain_oldest();  // the oldest chunk in flight is the next to fill
  }
  std::shared_ptr<Chunk>& chunk = chunks_[fill_];
  if (chunk == nullptr) {
    chunk = std::make_shared<Chunk>();
    if (v2_) {
      chunk->requested = config_.channel_codecs;
      chunk->enc_cols.resize(config_.channels.size());
    }
    chunk->staging.reset_channels(config_.channels.size());
    chunk->staging.reserve(config_.chunk_capacity);
  }
  return *chunk;
}

void TraceFileWriter::submit() {
  // The job must not throw across the pool boundary: an encode error is
  // parked in the chunk and rethrown by drain_oldest() on the caller.
  tickets_[fill_] = pool_->post([chunk = chunks_[fill_]] {
    try {
      chunk->encode();
    } catch (...) {
      chunk->error = std::current_exception();
    }
  });
  fill_ = (fill_ + 1) % pipeline_depth;
  ++in_flight_;
}

void TraceFileWriter::drain_oldest() {
  const std::size_t oldest =
      (fill_ + pipeline_depth - in_flight_) % pipeline_depth;
  Chunk& chunk = *chunks_[oldest];
  pool_->finish(tickets_[oldest]);
  --in_flight_;
  const std::size_t rows = chunk.staging.size();
  chunk.staging.clear();
  if (chunk.error != nullptr) {
    failed_ = true;
    std::rethrow_exception(std::exchange(chunk.error, nullptr));
  }
  index_.push_back({.offset = file_offset_,
                    .row_begin = rows_flushed_,
                    .rows = static_cast<std::uint32_t>(rows),
                    .crc32 = chunk.crc});
  write_bytes(chunk.bytes.data(), chunk.bytes.size());
  rows_flushed_ += rows;
  channel_raw_bytes_ += chunk.channel_raw_bytes;
  channel_stored_bytes_ += chunk.channel_stored_bytes;
}

void TraceFileWriter::append(const core::TraceBatch& batch) {
  if (finalized_) {
    throw StoreError("TraceFileWriter: append after finalize on " + path_);
  }
  throw_if_failed();
  if (batch.channels() != config_.channels.size()) {
    throw StoreError("TraceFileWriter: batch channel count mismatch");
  }
  std::size_t consumed = 0;
  while (consumed < batch.size()) {
    core::TraceBatch& staging = filling().staging;
    const std::size_t take = std::min(batch.size() - consumed,
                                      config_.chunk_capacity - staging.size());
    staging.append(batch, consumed, take);
    consumed += take;
    rows_appended_ += take;
    if (staging.size() == config_.chunk_capacity) {
      submit();
    }
  }
}

void TraceFileWriter::finalize() {
  if (finalized_) {
    return;
  }
  throw_if_failed();
  // Every chunk goes through the pipeline, the final partial one too.
  // When the ring is full, the chunk at fill_ is in flight, not staging.
  if (in_flight_ < pipeline_depth && chunks_[fill_] != nullptr &&
      chunks_[fill_]->staging.size() > 0) {
    submit();
  }
  while (in_flight_ > 0) {
    drain_oldest();
  }

  const std::uint64_t index_offset = file_offset_;
  std::vector<std::byte> index(16 + index_.size() * index_entry_bytes + 8);
  std::memcpy(index.data(), index_magic, 4);
  put_u32(index.data() + 4, 0);  // reserved
  put_u64(index.data() + 8, index_.size());
  std::byte* entries = index.data() + 16;
  for (std::size_t i = 0; i < index_.size(); ++i) {
    std::byte* e = entries + i * index_entry_bytes;
    put_u64(e, index_[i].offset);
    put_u64(e + 8, index_[i].row_begin);
    put_u32(e + 16, index_[i].rows);
    put_u32(e + 20, index_[i].crc32);
  }
  const std::size_t entries_size = index_.size() * index_entry_bytes;
  put_u32(entries + entries_size, util::crc32(entries, entries_size));
  put_u32(entries + entries_size + 4, 0);  // reserved
  write_bytes(index.data(), index.size());

  std::byte footer[footer_bytes];
  put_u64(footer, index_offset);
  put_u64(footer + 8, rows_flushed_);
  put_u64(footer + 16, index_.size());
  put_u32(footer + 24, util::crc32(footer, 24));
  std::memcpy(footer + 28, footer_magic, 4);
  write_bytes(footer, footer_bytes);

  out_.close();
  if (!out_) {
    failed_ = true;
    throw StoreError("TraceFileWriter: close failed on " + path_);
  }
  // Only now is the file durable: a finalize that threw above stays
  // un-finalized and failed, so a retry errors loudly instead of silently
  // succeeding on a footer-less file.
  finalized_ = true;
}

}  // namespace psc::store
