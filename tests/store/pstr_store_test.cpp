// PSTR round-trip tests: the on-disk store must reproduce the columnar
// TraceBatch bit-for-bit through both reader paths (mmap and buffered
// stream), across chunk boundaries, and stay out-of-core — resident
// reader memory is one chunk no matter how large the file is.
#include "store/trace_file_reader.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <system_error>
#include <vector>

#include "core/parallel.h"
#include "store/trace_file_writer.h"
#include "util/rng.h"

namespace psc::store {
namespace {

core::TraceBatch random_batch(util::Xoshiro256& rng, std::size_t n,
                              std::size_t channels) {
  core::TraceBatch batch(channels);
  batch.resize(n);
  for (auto& pt : batch.plaintexts()) {
    rng.fill_bytes(pt);
  }
  for (auto& ct : batch.ciphertexts()) {
    rng.fill_bytes(ct);
  }
  for (std::size_t c = 0; c < channels; ++c) {
    for (auto& v : batch.column(c)) {
      v = rng.uniform(-10.0, 10.0);
    }
  }
  return batch;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void expect_batches_identical(const core::TraceBatch& a,
                              const core::TraceBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.channels(), b.channels());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.plaintexts()[i], b.plaintexts()[i]) << "row " << i;
    ASSERT_EQ(a.ciphertexts()[i], b.ciphertexts()[i]) << "row " << i;
  }
  for (std::size_t c = 0; c < a.channels(); ++c) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.column(c)[i], b.column(c)[i]) << "col " << c << " row " << i;
    }
  }
}

const std::vector<util::FourCc> two_channels = {util::FourCc("PHPC"),
                                                util::FourCc("PMVC")};

TEST(PstrStore, RoundTripsBitExactAcrossChunkBoundaries) {
  const std::string path = temp_path("roundtrip.pstr");
  util::Xoshiro256 rng(1);
  const core::TraceBatch data = random_batch(rng, 180, 2);

  // chunk_capacity 64 and appends of 50/100/30: every chunk boundary
  // falls inside an appended batch, so the writer's internal slicing is
  // exercised in both directions.
  TraceFileWriter writer(path, {.channels = two_channels,
                                .chunk_capacity = 64,
                                .metadata = device_metadata("Test M2",
                                                            "14.0")});
  core::TraceBatch piece(2);
  for (const auto& [begin, count] :
       {std::pair<std::size_t, std::size_t>{0, 50}, {50, 100}, {150, 30}}) {
    piece.clear();
    piece.append(data, begin, count);
    writer.append(piece);
  }
  EXPECT_EQ(writer.trace_count(), 180u);
  writer.finalize();

  TraceFileReader reader(path);
  EXPECT_EQ(reader.trace_count(), 180u);
  EXPECT_EQ(reader.chunk_count(), 3u);  // 64 + 64 + 52
  EXPECT_EQ(reader.chunk_rows(0), 64u);
  EXPECT_EQ(reader.chunk_rows(2), 52u);
  EXPECT_EQ(reader.channels(), two_channels);

  core::TraceBatch loaded(2);
  reader.read_rows(0, reader.trace_count(), loaded);
  expect_batches_identical(loaded, data);
}

TEST(PstrStore, HeaderMetadataRoundTrips) {
  const std::string path = temp_path("metadata.pstr");
  util::Xoshiro256 rng(2);
  const Metadata metadata = {{"device", "MacBook Air M2"},
                             {"os", "macOS 13.0"},
                             {"victim", "user_space"},
                             {"empty", ""}};
  TraceFileWriter writer(
      path,
      {.channels = two_channels, .chunk_capacity = 16, .metadata = metadata});
  writer.append(random_batch(rng, 5, 2));
  writer.finalize();

  TraceFileReader reader(path);
  EXPECT_EQ(reader.metadata(), metadata);
  EXPECT_EQ(reader.chunk_capacity(), 16u);
}

TEST(PstrStore, EmptyStoreRoundTrips) {
  const std::string path = temp_path("empty.pstr");
  {
    TraceFileWriter writer(path, {.channels = two_channels});
    writer.finalize();
  }
  TraceFileReader reader(path);
  EXPECT_EQ(reader.trace_count(), 0u);
  EXPECT_EQ(reader.chunk_count(), 0u);
  core::TraceBatch batch(2);
  reader.read_rows(0, 0, batch);  // empty range is fine
  EXPECT_TRUE(batch.empty());
  EXPECT_THROW(reader.chunk_containing(0), std::out_of_range);
}

TEST(PstrStore, ArbitraryRowRangesSeekThroughTheIndex) {
  const std::string path = temp_path("seek.pstr");
  util::Xoshiro256 rng(3);
  const core::TraceBatch data = random_batch(rng, 333, 1);
  TraceFileWriter writer(path, {.channels = {util::FourCc("SYNT")},
                                .chunk_capacity = 32});
  writer.append(data);
  writer.finalize();

  TraceFileReader reader(path);
  // Ranges chosen to start/end mid-chunk and span several chunks.
  for (const auto& [begin, count] :
       {std::pair<std::size_t, std::size_t>{0, 1}, {31, 2}, {40, 100},
        {300, 33}, {0, 333}}) {
    core::TraceBatch expected(1);
    expected.append(data, begin, count);
    core::TraceBatch got(1);
    reader.read_rows(begin, count, got);
    expect_batches_identical(got, expected);
  }
  core::TraceBatch overflow(1);
  EXPECT_THROW(reader.read_rows(330, 10, overflow), std::out_of_range);
}

TEST(PstrStore, MappedReaderServesZeroCopyChunks) {
  const std::string path = temp_path("zerocopy.pstr");
  util::Xoshiro256 rng(4);
  const core::TraceBatch data = random_batch(rng, 96, 2);
  TraceFileWriter writer(path,
                         {.channels = two_channels, .chunk_capacity = 64});
  writer.append(data);
  writer.finalize();

  TraceFileReader reader(path);
  const ChunkView view = reader.chunk(1);
  EXPECT_EQ(view.rows(), 32u);
  EXPECT_EQ(view.row_begin(), 64u);
  // v1 chunks are served straight from the mapping, mmap-backed or
  // heap-copied alike: the reader decodes nothing into its own buffer.
  EXPECT_EQ(reader.resident_bytes(), 0u);
  for (std::size_t i = 0; i < view.rows(); ++i) {
    ASSERT_EQ(view.plaintexts()[i], data.plaintexts()[64 + i]);
    ASSERT_EQ(view.column(1)[i], data.column(1)[64 + i]);
  }
}

TEST(PstrStore, RewritingAPathLeavesOpenReadersOnTheOldBytes) {
  const std::string path = temp_path("rewrite.pstr");
  util::Xoshiro256 rng(5);
  const core::TraceBatch first = random_batch(rng, 96, 2);
  const core::TraceBatch second = random_batch(rng, 40, 2);
  {
    TraceFileWriter writer(path,
                           {.channels = two_channels, .chunk_capacity = 64});
    writer.append(first);
  }
  TraceFileReader old_reader(path);

  // The rewrite unlinks the old file instead of truncating it under the
  // open mapping, so the old reader still sees every byte, CRCs included.
  {
    TraceFileWriter writer(path,
                           {.channels = two_channels, .chunk_capacity = 64});
    writer.append(second);
  }
  core::TraceBatch loaded(2);
  old_reader.read_rows(0, old_reader.trace_count(), loaded);
  expect_batches_identical(loaded, first);

  TraceFileReader new_reader(path);
  loaded.clear();
  new_reader.read_rows(0, new_reader.trace_count(), loaded);
  expect_batches_identical(loaded, second);
}

TEST(PstrStore, WritingThroughASymlinkReplacesItsTarget) {
  namespace fs = std::filesystem;
  const std::string target = temp_path("symlink_target.pstr");
  const std::string link = temp_path("symlink.pstr");
  util::Xoshiro256 rng(6);
  const core::TraceBatch data = random_batch(rng, 30, 2);
  { TraceFileWriter writer(target, {.channels = two_channels}); }
  fs::remove(link);
  fs::create_symlink(target, link);
  {
    TraceFileWriter writer(link, {.channels = two_channels});
    writer.append(data);
  }
  EXPECT_TRUE(fs::is_symlink(link));
  TraceFileReader reader(target);
  core::TraceBatch loaded(2);
  reader.read_rows(0, reader.trace_count(), loaded);
  expect_batches_identical(loaded, data);
}

TEST(PstrStore, WriterRejectsMisuse) {
  EXPECT_THROW(TraceFileWriter("/tmp/x.pstr", {.channels = {}}), StoreError);
  EXPECT_THROW(
      TraceFileWriter("/tmp/x.pstr",
                      {.channels = two_channels, .chunk_capacity = 0}),
      StoreError);
  EXPECT_THROW(TraceFileWriter("/nonexistent-dir/x.pstr",
                               {.channels = two_channels}),
               StoreError);

  const std::string path = temp_path("misuse.pstr");
  TraceFileWriter writer(path, {.channels = two_channels});
  EXPECT_THROW(writer.append(core::TraceBatch(1)), StoreError);  // 1 != 2
  writer.finalize();
  writer.finalize();  // idempotent
  util::Xoshiro256 rng(7);
  EXPECT_THROW(writer.append(random_batch(rng, 1, 2)), StoreError);
}

TEST(PstrStore, OversizedChunkCapacityLeavesThePathUntouched) {
  // Row counts are stored as u32, so a capacity of 2^32 is refused before
  // the writer unlinks or creates anything at `path` (and before it
  // reserves a chunk of staging memory).
  const std::string path = temp_path("oversized_capacity.pstr");
  const std::string bytes = "not a trace store";
  {
    std::ofstream existing(path, std::ios::binary | std::ios::trunc);
    existing << bytes;
  }
  EXPECT_THROW(TraceFileWriter(path, {.channels = two_channels,
                                      .chunk_capacity = std::size_t{1} << 32}),
               StoreError);
  std::ifstream kept(path, std::ios::binary);
  const std::string read((std::istreambuf_iterator<char>(kept)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(read, bytes);
}

// Every row of the store at `path`.
core::TraceBatch read_all(const std::string& path) {
  TraceFileReader reader(path);
  core::TraceBatch loaded(reader.channels().size());
  reader.read_rows(0, reader.trace_count(), loaded);
  return loaded;
}

TEST(PstrStore, WriteErrorOnAFullDeviceIsLoudAndSticky) {
  // /dev/full accepts open() and fails every write with ENOSPC. With
  // many chunks the failure surfaces at the append() that drains one;
  // with a single buffered chunk only at finalize()'s close. Either way
  // the writer throws, does not hang, and stays failed: a retried
  // finalize() and a later append() throw too. Chunks still in flight
  // when append() throws are waited out by the destructor.
  std::error_code ec;
  if (!std::filesystem::exists("/dev/full", ec)) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  util::Xoshiro256 rng(9);
  for (const std::size_t rows : {std::size_t{64 * 12 + 5}, std::size_t{5}}) {
    SCOPED_TRACE(rows);
    const core::TraceBatch data = random_batch(rng, rows, 2);
    TraceFileWriter writer("/dev/full",
                           {.channels = two_channels, .chunk_capacity = 64});
    bool threw = false;
    try {
      writer.append(data);
      writer.finalize();
    } catch (const StoreError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    EXPECT_THROW(writer.finalize(), StoreError);
    EXPECT_THROW(writer.append(data), StoreError);
  }
}

TEST(PstrStore, WriterDestroyedWithChunksInFlightFinalizesThem) {
  // No finalize(): the destructor drains every chunk still encoding on
  // the pool, in order, and writes a complete store. Under ASan this
  // also checks that no posted job outlives the writer's buffers.
  const std::string path = temp_path("destroyed_in_flight.pstr");
  util::Xoshiro256 rng(10);
  const core::TraceBatch data = random_batch(rng, 64 * 9 + 3, 2);
  {
    TraceFileWriter writer(
        path, {.channels = two_channels,
               .chunk_capacity = 64,
               .channel_codecs = uniform_channel_codecs(
                   2, ColumnCodec::delta_bitpack)});
    writer.append(data);
  }
  TraceFileReader reader(path);
  EXPECT_EQ(reader.chunk_count(), 10u);
  expect_batches_identical(read_all(path), data);
}

TEST(PstrStore, WritersInsidePoolJobsDoNotDeadlock) {
  // Each unit of an ordered window writes its own many-chunk store from
  // a pool thread, as a RecordingSink in a campaign shard does. Chunks
  // no free pool thread claims are encoded inline by the drain, so every
  // unit completes even with all pool threads busy.
  constexpr std::size_t units = 6;
  util::Xoshiro256 rng(11);
  std::vector<core::TraceBatch> data;
  for (std::size_t u = 0; u < units; ++u) {
    data.push_back(random_batch(rng, 32 * 11 + u, 2));
  }
  const auto path_of = [](std::size_t u) {
    return temp_path("pool_unit_" + std::to_string(u) + ".pstr");
  };
  core::run_ordered_window(
      units, [] { return std::size_t{4}; },
      [&](std::size_t u) {
        TraceFileWriter writer(path_of(u), {.channels = two_channels,
                                            .chunk_capacity = 32});
        for (std::size_t begin = 0; begin < data[u].size(); begin += 50) {
          core::TraceBatch piece(2);
          piece.append(data[u], begin,
                       std::min<std::size_t>(50, data[u].size() - begin));
          writer.append(piece);
        }
        writer.finalize();
      },
      [](std::size_t) {});
  for (std::size_t u = 0; u < units; ++u) {
    SCOPED_TRACE(u);
    expect_batches_identical(read_all(path_of(u)), data[u]);
  }
}

}  // namespace
}  // namespace psc::store
