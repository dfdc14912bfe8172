#include "store/trace_file_reader.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "store/chunk_cache.h"
#include "util/codec.h"
#include "util/crc32.h"

namespace psc::store {

std::span<const double> ChunkView::column(std::size_t c) const {
  if (c >= channels_) {
    throw std::out_of_range("ChunkView::column: bad channel index");
  }
  const std::byte* base =
      payload_ + 2 * rows_ * block_bytes + c * rows_ * sizeof(double);
  return {reinterpret_cast<const double*>(base), rows_};
}

void ChunkView::append_to(core::TraceBatch& batch, std::size_t begin,
                          std::size_t count) const {
  if (batch.channels() != channels_) {
    throw std::invalid_argument("ChunkView::append_to: channel mismatch");
  }
  if (begin > rows_ || count > rows_ - begin) {
    throw std::out_of_range("ChunkView::append_to: bad row range");
  }
  const std::size_t old = batch.size();
  batch.resize(old + count);
  const auto pts = plaintexts().subspan(begin, count);
  const auto cts = ciphertexts().subspan(begin, count);
  std::copy(pts.begin(), pts.end(), batch.plaintexts().begin() + old);
  std::copy(cts.begin(), cts.end(), batch.ciphertexts().begin() + old);
  for (std::size_t c = 0; c < channels_; ++c) {
    const auto values = column(c).subspan(begin, count);
    std::copy(values.begin(), values.end(), batch.column(c).begin() + old);
  }
}

void TraceFileReader::fail(const std::string& what) const {
  throw StoreError("PSTR " + path() + ": " + what);
}

TraceFileReader::TraceFileReader(const std::string& path)
    : TraceFileReader(SharedMapping::open(path)) {}

TraceFileReader::TraceFileReader(std::shared_ptr<const SharedMapping> mapping)
    : mapping_(std::move(mapping)) {
  if (mapping_ == nullptr) {
    throw std::invalid_argument("TraceFileReader: null SharedMapping");
  }
  data_ = mapping_->data();
  file_bytes_ = mapping_->size();
  validate_structure();
}

void TraceFileReader::validate_structure() {
  // Structural validation, cheapest check first so each failure mode gets
  // its own message: magic, version, gross size, header, footer, index.
  if (file_bytes_ < 4) {
    fail("truncated file (shorter than the magic)");
  }
  const std::byte* fixed = data_;
  if (!magic_matches(fixed, file_magic)) {
    fail("bad magic (not a PSTR trace store)");
  }
  if (file_bytes_ < 8) {
    fail("truncated file (no version field)");
  }
  const std::uint16_t version = get_u16(fixed + 4);
  if (version != format_version_v1 && version != format_version_v2) {
    fail("unsupported format version " + std::to_string(version) +
         " (expected " + std::to_string(format_version_v1) + " or " +
         std::to_string(format_version_v2) + ")");
  }
  version_ = version;
  if (file_bytes_ < fixed_header_bytes + footer_bytes) {
    fail("truncated file (no room for header and footer)");
  }
  header_bytes_ = get_u32(fixed + 8);
  if (header_bytes_ < fixed_header_bytes + 4 || header_bytes_ % 8 != 0) {
    fail("corrupt header (bad header size)");
  }
  if (header_bytes_ > file_bytes_ - footer_bytes) {
    fail("truncated file (header overlaps footer)");
  }
  parse_header(data_, header_bytes_);
  parse_footer_and_index();
}

void TraceFileReader::parse_header(const std::byte* data, std::size_t size) {
  const std::uint32_t block = get_u32(data + 12);
  if (block != block_bytes) {
    fail("unsupported block size " + std::to_string(block));
  }
  const std::uint32_t channel_count = get_u32(data + 16);
  chunk_capacity_ = get_u32(data + 20);
  if (chunk_capacity_ == 0) {
    fail("corrupt header (zero chunk capacity)");
  }
  const std::byte* p = data + fixed_header_bytes;
  const std::byte* end = data + size;
  if (channel_count == 0 ||
      static_cast<std::size_t>(end - p) < 4 * channel_count + 4) {
    fail("corrupt header (channel list out of bounds)");
  }
  channels_.reserve(channel_count);
  for (std::uint32_t c = 0; c < channel_count; ++c) {
    channels_.push_back(util::FourCc(get_u32(p)));
    p += 4;
  }
  const std::uint32_t pairs = get_u32(p);
  p += 4;
  for (std::uint32_t i = 0; i < pairs; ++i) {
    std::string fields[2];
    for (std::string& field : fields) {
      if (end - p < 4) {
        fail("corrupt header (metadata out of bounds)");
      }
      const std::uint32_t len = get_u32(p);
      p += 4;
      if (static_cast<std::size_t>(end - p) < len) {
        fail("corrupt header (metadata out of bounds)");
      }
      field.assign(reinterpret_cast<const char*>(p), len);
      p += len;
    }
    metadata_.emplace_back(std::move(fields[0]), std::move(fields[1]));
  }
}

void TraceFileReader::parse_footer_and_index() {
  const std::byte* footer = data_ + file_bytes_ - footer_bytes;
  if (!magic_matches(footer + 28, footer_magic) ||
      util::crc32(footer, 24) != get_u32(footer + 24)) {
    fail("missing or corrupt footer (file truncated?)");
  }
  const std::uint64_t index_offset = get_u64(footer);
  index_offset_ = index_offset;
  trace_count_ = get_u64(footer + 8);
  const std::uint64_t chunks = get_u64(footer + 16);

  // Counts and offsets below come from the file, so every bounds test is
  // in division/subtraction form: a crafted near-UINT64_MAX value must
  // fail here, not wrap the arithmetic past the check.
  const std::uint64_t avail = file_bytes_ - header_bytes_ - footer_bytes;
  if (chunks > avail / index_entry_bytes) {
    fail("corrupt footer (chunk count exceeds file size)");
  }
  const std::uint64_t index_size = 16 + chunks * index_entry_bytes + 8;
  if (index_size > avail || index_offset < header_bytes_ ||
      index_offset != file_bytes_ - footer_bytes - index_size) {
    fail("corrupt footer (index bounds)");
  }
  const std::byte* raw = data_ + index_offset;
  if (!magic_matches(raw, index_magic) || get_u64(raw + 8) != chunks) {
    fail("corrupt chunk index (bad index header)");
  }
  const std::byte* entries = raw + 16;
  const std::size_t entries_size = chunks * index_entry_bytes;
  if (util::crc32(entries, entries_size) !=
      get_u32(entries + entries_size)) {
    fail("corrupt chunk index (CRC mismatch)");
  }

  // v1 chunks have a fixed rows->bytes mapping, so the index can bound
  // rows exactly. A v2 chunk's size depends on its codecs; here we only
  // require room for the chunk header and column directory — per-column
  // block extents are validated against index_offset_ when the chunk is
  // opened (load_v2_directory). The format 8-aligns every chunk and the
  // mapping base is 8-aligned, so chunk columns are served as aligned
  // spans straight from the mapping; an unaligned offset is a corrupt
  // index, not something to copy around.
  const std::uint64_t row_bytes = 2 * block_bytes + 8 * channels_.size();
  const std::uint64_t min_chunk =
      version_ >= format_version_v2
          ? chunk_header_bytes +
                chunk_column_count(channels_.size()) * column_entry_bytes
          : chunk_header_bytes;
  index_.reserve(chunks);
  std::uint64_t expected_row = 0;
  for (std::uint64_t i = 0; i < chunks; ++i) {
    const std::byte* e = entries + i * index_entry_bytes;
    ChunkIndexEntry entry{.offset = get_u64(e),
                          .row_begin = get_u64(e + 8),
                          .rows = get_u32(e + 16),
                          .crc32 = get_u32(e + 20)};
    const bool in_bounds =
        entry.offset % 8 == 0 && entry.offset >= header_bytes_ &&
        entry.offset <= index_offset &&
        index_offset - entry.offset >= min_chunk &&
        (version_ >= format_version_v2 ||
         entry.rows <=
             (index_offset - entry.offset - chunk_header_bytes) / row_bytes);
    if (entry.rows == 0 || entry.rows > chunk_capacity_ ||
        entry.row_begin != expected_row || !in_bounds) {
      fail("corrupt chunk index (entry " + std::to_string(i) +
           " out of bounds)");
    }
    expected_row += entry.rows;
    index_.push_back(entry);
  }
  if (expected_row != trace_count_) {
    fail("corrupt chunk index (row total does not match footer)");
  }
}

std::size_t TraceFileReader::chunk_containing(std::size_t row) const {
  if (row >= trace_count_) {
    throw std::out_of_range("TraceFileReader::chunk_containing: bad row");
  }
  const auto it = std::upper_bound(
      index_.begin(), index_.end(), row,
      [](std::size_t r, const ChunkIndexEntry& e) { return r < e.row_begin; });
  return static_cast<std::size_t>(it - index_.begin()) - 1;
}

ChunkView TraceFileReader::make_view(const std::byte* payload,
                                     const ChunkIndexEntry& entry) {
  ChunkView view;
  view.payload_ = payload;
  view.rows_ = entry.rows;
  view.row_begin_ = entry.row_begin;
  view.channels_ = channels_.size();
  return view;
}

void TraceFileReader::check_chunk_header(std::size_t i) const {
  const ChunkIndexEntry& entry = index_.at(i);
  const std::byte* head = data_ + entry.offset;
  if (!magic_matches(head, chunk_magic)) {
    fail("corrupt chunk " + std::to_string(i) + " (bad magic)");
  }
  if (get_u32(head + 4) != entry.rows || get_u32(head + 8) != entry.crc32) {
    fail("corrupt chunk " + std::to_string(i) +
         " (header disagrees with index)");
  }
}

ChunkView TraceFileReader::chunk(std::size_t i) {
  if (loaded_chunk_ != i) {
    // Cleared first, so a throwing decode never leaves a stale memo.
    loaded_chunk_ = static_cast<std::size_t>(-1);
    loaded_view_ = read_chunk_into(i, resident_);
    loaded_chunk_ = i;
  }
  return loaded_view_;
}

bool TraceFileReader::load_v2_directory(std::size_t i) {
  const ChunkIndexEntry& entry = index_.at(i);
  const std::size_t columns = chunk_column_count(channels_.size());
  const std::size_t dir_bytes = columns * column_entry_bytes;

  check_chunk_header(i);
  const std::byte* head = data_ + entry.offset;

  // Bytes this chunk may occupy before the index; parse_footer_and_index
  // already guaranteed header + directory fit, so the subtraction below
  // cannot wrap. Every stored size from the directory is tested against
  // the remaining budget in subtraction form.
  const std::uint64_t budget =
      index_offset_ - entry.offset - chunk_header_bytes - dir_bytes;
  dir_.resize(columns);
  std::uint64_t block_off = chunk_header_bytes + dir_bytes;
  std::uint64_t used = 0;
  bool all_identity = true;
  for (std::size_t col = 0; col < columns; ++col) {
    const std::byte* e = head + chunk_header_bytes + col * column_entry_bytes;
    const std::uint32_t codec_raw = get_u32(e);
    ColumnBlock& block = dir_[col];
    block.raw_bytes = get_u64(e + 8);
    block.stored_bytes = get_u64(e + 16);
    block.offset = block_off + used;
    const std::uint64_t expected_raw = col < 2
                                           ? entry.rows * std::uint64_t{16}
                                           : entry.rows * std::uint64_t{8};
    if (block.raw_bytes != expected_raw) {
      fail("corrupt chunk " + std::to_string(i) + " (column " +
           std::to_string(col) + " raw size mismatch)");
    }
    if (codec_raw == static_cast<std::uint32_t>(ColumnCodec::identity)) {
      block.codec = ColumnCodec::identity;
      if (block.stored_bytes != block.raw_bytes) {
        fail("corrupt chunk " + std::to_string(i) + " (column " +
             std::to_string(col) + " identity size mismatch)");
      }
    } else if (codec_raw ==
               static_cast<std::uint32_t>(ColumnCodec::delta_bitpack)) {
      if (col < 2) {
        fail("corrupt chunk " + std::to_string(i) +
             " (codec on a block column)");
      }
      block.codec = ColumnCodec::delta_bitpack;
      all_identity = false;
    } else {
      fail("corrupt chunk " + std::to_string(i) + " (unknown codec " +
           std::to_string(codec_raw) + " in column " + std::to_string(col) +
           ")");
    }
    if (used > budget || block.stored_bytes > budget - used) {
      fail("corrupt chunk " + std::to_string(i) + " (column " +
           std::to_string(col) + " block out of bounds)");
    }
    const std::uint64_t padded = pad8(block.stored_bytes);
    if (padded > budget - used) {
      fail("corrupt chunk " + std::to_string(i) + " (column " +
           std::to_string(col) + " block padding out of bounds)");
    }
    used += padded;
  }
  return all_identity;
}

void TraceFileReader::decode_v2_chunk(std::size_t i,
                                      std::vector<std::byte>& dest) {
  const ChunkIndexEntry& entry = index_.at(i);
  const std::size_t rows = entry.rows;
  const std::size_t payload_size =
      chunk_bytes(rows, channels_.size()) - chunk_header_bytes;
  dest.resize(payload_size);

  std::uint64_t raw_off = 0;
  for (std::size_t col = 0; col < dir_.size(); ++col) {
    const ColumnBlock& block = dir_[col];
    const std::byte* src = data_ + entry.offset + block.offset;
    std::byte* out = dest.data() + raw_off;
    if (block.codec == ColumnCodec::identity) {
      std::memcpy(out, src, block.raw_bytes);
    } else if (!util::delta_bitpack_decode(
                   src, block.stored_bytes,
                   reinterpret_cast<double*>(out), rows)) {
      fail("chunk " + std::to_string(i) + " column " + std::to_string(col) +
           ": corrupt compressed block");
    }
    raw_off += block.raw_bytes;
  }
  // The CRC was computed over the decoded payload before compression, so
  // a bit flip anywhere in a compressed block that survives decoding is
  // still caught here, on the bytes the analysis will actually read.
  if (util::crc32(dest.data(), payload_size) != entry.crc32) {
    fail("chunk " + std::to_string(i) + " payload CRC mismatch");
  }
}

void TraceFileReader::set_chunk_cache(std::shared_ptr<ChunkCache> cache) {
  chunk_cache_ = std::move(cache);
}

ChunkView TraceFileReader::read_chunk_into(std::size_t i, ChunkBuffer& buf) {
  const ChunkIndexEntry& entry = index_.at(i);
  buf.cached.reset();
  // v1 chunks, and v2 chunks whose columns are all identity, hold the
  // decoded payload verbatim after the header (and directory): serve them
  // zero-copy, CRC-checking the mapped bytes on every read, as decoded
  // chunks are checked on every decode.
  const std::byte* payload = data_ + entry.offset + chunk_header_bytes;
  bool verbatim = true;
  if (version_ >= format_version_v2) {
    verbatim = load_v2_directory(i);  // checks the chunk header too
    payload += chunk_column_count(channels_.size()) * column_entry_bytes;
  } else {
    check_chunk_header(i);
  }
  if (verbatim) {
    const std::size_t payload_size =
        chunk_bytes(entry.rows, channels_.size()) - chunk_header_bytes;
    if (util::crc32(payload, payload_size) != entry.crc32) {
      fail("chunk " + std::to_string(i) + " payload CRC mismatch");
    }
    return make_view(payload, entry);
  }
  if (chunk_cache_ != nullptr) {
    // The decode callback runs on this reader (dir_ is loaded for chunk
    // i) and only for the one caller that misses; concurrent readers of
    // the same chunk wait inside the cache and share the result.
    buf.cached = chunk_cache_->get_or_decode(
        mapping_->id(), i,
        [this, i](std::vector<std::byte>& dest) { decode_v2_chunk(i, dest); });
    return make_view(buf.cached->data(), entry);
  }
  decode_v2_chunk(i, buf.bytes);
  return make_view(buf.bytes.data(), entry);
}

std::vector<TraceFileReader::ColumnStats> TraceFileReader::column_stats() {
  const std::size_t columns = chunk_column_count(channels_.size());
  std::vector<ColumnStats> stats(columns);
  stats[0].name = "plaintext";
  stats[1].name = "ciphertext";
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    stats[2 + c].name = channels_[c].str();
  }
  for (std::size_t i = 0; i < index_.size(); ++i) {
    const std::uint64_t rows = index_[i].rows;
    if (version_ < format_version_v2) {
      // v1 columns are always identity with a fixed rows->bytes mapping.
      for (std::size_t col = 0; col < columns; ++col) {
        const std::uint64_t bytes =
            rows * (col < 2 ? std::uint64_t{block_bytes} : std::uint64_t{8});
        stats[col].raw_bytes += bytes;
        stats[col].stored_bytes += bytes;
      }
      continue;
    }
    load_v2_directory(i);
    for (std::size_t col = 0; col < columns; ++col) {
      stats[col].raw_bytes += dir_[col].raw_bytes;
      stats[col].stored_bytes += dir_[col].stored_bytes;
      if (dir_[col].codec != ColumnCodec::identity) {
        ++stats[col].chunks_coded;
      }
    }
  }
  return stats;
}

void TraceFileReader::read_rows(std::size_t begin, std::size_t count,
                                core::TraceBatch& batch) {
  if (begin > trace_count_ || count > trace_count_ - begin) {
    throw std::out_of_range("TraceFileReader::read_rows: bad row range");
  }
  std::size_t row = begin;
  std::size_t left = count;
  while (left > 0) {
    const ChunkView view = chunk(chunk_containing(row));
    const std::size_t local = row - view.row_begin();
    const std::size_t take = std::min(left, view.rows() - local);
    view.append_to(batch, local, take);
    row += take;
    left -= take;
  }
}

}  // namespace psc::store
