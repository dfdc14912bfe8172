#include "store/trace_file_writer.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>

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
    : config_(std::move(config)), path_(path) {
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
  staging_.reset_channels(config_.channels.size());
  staging_.reserve(config_.chunk_capacity);
  if (v2_) {
    enc_cols_.resize(config_.channels.size());
  }

  const std::vector<std::byte> header =
      render_header(config_, format_version());
  write_bytes(header.data(), header.size());
}

TraceFileWriter::~TraceFileWriter() {
  try {
    finalize();
  } catch (...) {
    // Destructors must not throw; callers that care about durability call
    // finalize() explicitly and see the error there.
  }
}

void TraceFileWriter::write_bytes(const std::byte* data, std::size_t size) {
  out_.write(reinterpret_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  if (!out_) {
    throw StoreError("TraceFileWriter: write failed on " + path_);
  }
  file_offset_ += size;
}

void TraceFileWriter::append(const core::TraceBatch& batch) {
  if (finalized_) {
    throw StoreError("TraceFileWriter: append after finalize on " + path_);
  }
  if (batch.channels() != config_.channels.size()) {
    throw StoreError("TraceFileWriter: batch channel count mismatch");
  }
  std::size_t consumed = 0;
  while (consumed < batch.size()) {
    const std::size_t take =
        std::min(batch.size() - consumed,
                 config_.chunk_capacity - staging_.size());
    staging_.append(batch, consumed, take);
    consumed += take;
    rows_appended_ += take;
    if (staging_.size() == config_.chunk_capacity) {
      flush_chunk();
    }
  }
}

void TraceFileWriter::flush_chunk() {
  const std::size_t rows = staging_.size();
  if (rows == 0) {
    return;
  }
  const std::size_t channels = staging_.channels();
  const std::size_t columns = chunk_column_count(channels);
  const auto raw_col = [&](std::size_t col) -> const std::byte* {
    if (col < 2) {
      return reinterpret_cast<const std::byte*>(
          (col == 0 ? staging_.plaintexts() : staging_.ciphertexts()).data());
    }
    return reinterpret_cast<const std::byte*>(staging_.column(col - 2).data());
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
  util::Crc32 crc;
  codecs_.assign(columns, ColumnCodec::identity);
  stored_.resize(columns);
  std::size_t blocks_bytes = 0;
  for (std::size_t col = 0; col < columns; ++col) {
    stored_[col] = raw_size(col);
    crc.update(raw_col(col), stored_[col]);
    if (v2_ && col >= 2) {
      const std::size_t c = col - 2;
      channel_raw_bytes_ += stored_[col];
      if (config_.channel_codecs[c] == ColumnCodec::delta_bitpack &&
          util::delta_bitpack_encode(staging_.column(c).data(), rows,
                                     enc_cols_[c])) {
        codecs_[col] = ColumnCodec::delta_bitpack;
        stored_[col] = enc_cols_[c].size();
      }
      channel_stored_bytes_ += stored_[col];
    }
    blocks_bytes += pad8(stored_[col]);
  }

  const std::size_t dir_bytes = v2_ ? columns * column_entry_bytes : 0;
  scratch_.assign(chunk_header_bytes + dir_bytes + blocks_bytes,
                  std::byte{0});
  std::memcpy(scratch_.data(), chunk_magic, 4);
  put_u32(scratch_.data() + 4, static_cast<std::uint32_t>(rows));
  put_u32(scratch_.data() + 8, crc.value());
  put_u32(scratch_.data() + 12, 0);  // reserved

  std::byte* dir = scratch_.data() + chunk_header_bytes;
  std::byte* block = dir + dir_bytes;
  for (std::size_t col = 0; col < columns; ++col) {
    const bool identity = codecs_[col] == ColumnCodec::identity;
    if (v2_) {
      std::byte* e = dir + col * column_entry_bytes;
      put_u32(e, static_cast<std::uint32_t>(codecs_[col]));
      put_u32(e + 4, 0);  // reserved
      put_u64(e + 8, raw_size(col));
      put_u64(e + 16, stored_[col]);
    }
    std::memcpy(block, identity ? raw_col(col) : enc_cols_[col - 2].data(),
                stored_[col]);
    block += pad8(stored_[col]);
  }

  index_.push_back({.offset = file_offset_,
                    .row_begin = rows_flushed_,
                    .rows = static_cast<std::uint32_t>(rows),
                    .crc32 = crc.value()});
  write_bytes(scratch_.data(), scratch_.size());
  rows_flushed_ += rows;
  staging_.clear();
}

void TraceFileWriter::finalize() {
  if (finalized_) {
    return;
  }
  flush_chunk();

  const std::uint64_t index_offset = file_offset_;
  scratch_.resize(16 + index_.size() * index_entry_bytes + 8);
  std::memcpy(scratch_.data(), index_magic, 4);
  put_u32(scratch_.data() + 4, 0);  // reserved
  put_u64(scratch_.data() + 8, index_.size());
  std::byte* entries = scratch_.data() + 16;
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
  write_bytes(scratch_.data(), scratch_.size());

  std::byte footer[footer_bytes];
  put_u64(footer, index_offset);
  put_u64(footer + 8, rows_flushed_);
  put_u64(footer + 16, index_.size());
  put_u32(footer + 24, util::crc32(footer, 24));
  std::memcpy(footer + 28, footer_magic, 4);
  write_bytes(footer, footer_bytes);

  out_.close();
  if (!out_) {
    throw StoreError("TraceFileWriter: close failed on " + path_);
  }
  // Only now is the file durable: a finalize that threw above stays
  // un-finalized, so a retry errors loudly instead of silently
  // succeeding on a footer-less file.
  finalized_ = true;
}

}  // namespace psc::store
