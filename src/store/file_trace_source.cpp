#include "store/file_trace_source.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/parallel.h"
#include "util/env.h"

namespace psc::store {

namespace {

bool resolve_prefetch(PrefetchMode mode) {
  switch (mode) {
    case PrefetchMode::on:
      return true;
    case PrefetchMode::off:
      return false;
    case PrefetchMode::automatic:
      break;
  }
  return util::env_flag("PSC_STORE_PREFETCH", true);
}

}  // namespace

FileTraceSource::FileTraceSource(const std::string& path, ReaderMode mode)
    : FileTraceSource(path, FileSourceOptions{.mode = mode}) {}

FileTraceSource::FileTraceSource(const std::string& path,
                                 const FileSourceOptions& options)
    : FileTraceSource(std::make_unique<TraceFileReader>(path, options.mode),
                      0, std::numeric_limits<std::size_t>::max(), options) {}

FileTraceSource::FileTraceSource(const std::string& path, std::size_t begin,
                                 std::size_t count, ReaderMode mode)
    : FileTraceSource(path, begin, count, FileSourceOptions{.mode = mode}) {}

FileTraceSource::FileTraceSource(const std::string& path, std::size_t begin,
                                 std::size_t count,
                                 const FileSourceOptions& options)
    : FileTraceSource(std::make_unique<TraceFileReader>(path, options.mode),
                      begin, count, options) {}

FileTraceSource::FileTraceSource(std::unique_ptr<TraceFileReader> reader)
    : FileTraceSource(std::move(reader), 0,
                      std::numeric_limits<std::size_t>::max()) {}

FileTraceSource::FileTraceSource(std::unique_ptr<TraceFileReader> reader,
                                 std::size_t begin, std::size_t count,
                                 const FileSourceOptions& options)
    : FileTraceSource(std::move(reader),
                      std::vector<core::RowRange>{{begin, count}}, options) {}

FileTraceSource::FileTraceSource(std::unique_ptr<TraceFileReader> reader,
                                 std::vector<core::RowRange> ranges,
                                 const FileSourceOptions& options)
    : reader_(std::move(reader)),
      ranges_(std::move(ranges)),
      prefetch_(resolve_prefetch(options.prefetch)) {
  if (!reader_) {
    throw std::invalid_argument("FileTraceSource: null reader");
  }
  row_scratch_.reset_channels(reader_->channels().size());
  row_scratch_.reserve(1);
  const std::size_t rows = reader_->trace_count();
  for (core::RowRange& range : ranges_) {
    range.begin = std::min(range.begin, rows);
    range.count = std::min(range.count, rows - range.begin);
    later_rows_ += range.count;
  }
}

const ChunkView& FileTraceSource::current_view(std::size_t row) {
  if (!prefetcher_) {
    // Built lazily on the first read so a source that is constructed but
    // never consumed posts no decode work; [first, last) is the chunk
    // range covering the current range's rows.
    const std::size_t first = reader_->chunk_containing(row);
    const std::size_t last = reader_->chunk_containing(end_ - 1) + 1;
    prefetcher_.emplace(*reader_, first, last);
  }
  while (!have_view_ || row < view_.row_begin() ||
         row >= view_.row_begin() + view_.rows()) {
    std::optional<ChunkView> next = prefetcher_->next_chunk();
    if (!next.has_value()) {
      // Unreachable when the bounds checks in collect()/collect_batch()
      // hold; guard so a logic bug cannot become an infinite loop.
      throw std::out_of_range("FileTraceSource: prefetch range exhausted");
    }
    view_ = *next;
    have_view_ = true;
  }
  return view_;
}

void FileTraceSource::append_rows(std::size_t n, core::TraceBatch& batch) {
  while (n > 0) {
    if (pos_ == end_) {
      // The current range is spent: its prefetcher, and any view into
      // the prefetcher's buffers, go with it.
      if (prefetcher_) {
        async_done_ += prefetcher_->async_completions();
        prefetcher_.reset();
      }
      have_view_ = false;
      const core::RowRange& next = ranges_.at(next_range_++);
      pos_ = next.begin;
      end_ = next.begin + next.count;
      later_rows_ -= next.count;
      continue;
    }
    std::size_t take = std::min(n, end_ - pos_);
    if (prefetch_) {
      const ChunkView& view = current_view(pos_);
      const std::size_t local = pos_ - view.row_begin();
      take = std::min(take, view.rows() - local);
      view.append_to(batch, local, take);
    } else {
      reader_->read_rows(pos_, take, batch);
    }
    pos_ += take;
    n -= take;
  }
}

core::TraceRecord FileTraceSource::collect(const aes::Block& /*plaintext*/) {
  if (*remaining() == 0) {
    throw std::out_of_range("FileTraceSource: file exhausted");
  }
  row_scratch_.clear();
  append_rows(1, row_scratch_);
  core::TraceRecord record;
  record.plaintext = row_scratch_.plaintexts()[0];
  record.ciphertext = row_scratch_.ciphertexts()[0];
  record.values.resize(row_scratch_.channels());
  for (std::size_t c = 0; c < row_scratch_.channels(); ++c) {
    record.values[c] = row_scratch_.column(c)[0];
  }
  return record;
}

void FileTraceSource::collect_batch(core::TraceBatch& batch) {
  if (batch.channels() != reader_->channels().size()) {
    throw std::invalid_argument(
        "FileTraceSource::collect_batch: batch channel count mismatch");
  }
  const std::size_t n = batch.size();
  if (n > *remaining()) {
    throw std::out_of_range("FileTraceSource: file exhausted");
  }
  batch.clear();
  append_rows(n, batch);
}

std::pair<std::size_t, std::size_t> shard_row_range(
    const TraceFileReader& reader, std::size_t shards, std::size_t s) {
  const std::size_t chunks = reader.chunk_count();
  const std::size_t first = core::shard_begin(chunks, shards, s);
  const std::size_t count = core::shard_size(chunks, shards, s);
  if (count == 0) {
    return {reader.trace_count(), 0};
  }
  const std::size_t row_begin = reader.chunk_row_begin(first);
  const std::size_t last = first + count - 1;
  const std::size_t row_end =
      reader.chunk_row_begin(last) + reader.chunk_rows(last);
  return {row_begin, row_end - row_begin};
}

}  // namespace psc::store
