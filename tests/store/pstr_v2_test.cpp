// PSTR v2: compressed chunk codecs end-to-end through the store layer.
// Round trips must be bit-exact, corruption inside a *compressed*
// column block must be a loud StoreError (the CRC covers
// the decoded payload, so codecs cannot weaken integrity), a CPA
// campaign replayed from a v2 file — through the prefetching source —
// must match the live recording bit for bit, and a v1 recording
// compacted to v2 must replay bit for bit through the TVLA and CPA sinks.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/analysis_sink.h"
#include "core/campaigns.h"
#include "core/trace_source.h"
#include "power/noise.h"
#include "store/file_trace_source.h"
#include "store/trace_file_reader.h"
#include "store/trace_file_writer.h"
#include "util/rng.h"
#include "util/simd.h"

namespace psc::store {
namespace {

constexpr std::size_t rows = 600;
constexpr std::size_t chunk_rows = 128;
constexpr std::size_t n_channels = 3;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// A batch shaped like a real capture: random AES blocks and channel
// columns on quantized float32-truncated sensor grids — exactly what
// victim/fast_trace.cpp records, and what delta_bitpack compresses.
core::TraceBatch quantized_batch(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  core::TraceBatch batch(n_channels);
  batch.resize(rows);
  for (auto& pt : batch.plaintexts()) {
    rng.fill_bytes(pt);
  }
  for (auto& ct : batch.ciphertexts()) {
    rng.fill_bytes(ct);
  }
  const double steps[n_channels] = {1e-6, 1e-3, 0.01};
  for (std::size_t c = 0; c < n_channels; ++c) {
    double level = 4.0;
    for (auto& v : batch.column(c)) {
      level += rng.gaussian(0.0, 50 * steps[c]);
      v = static_cast<double>(
          static_cast<float>(std::round(level / steps[c]) * steps[c]));
    }
  }
  return batch;
}

// The quantized-sensor set: `rails` channels, each a slow random walk
// pushed through the measurement path — power::GaussianNoise (~250
// quantizer steps), a uW power::Quantizer and the SMC client's float32
// truncation (victim/fast_trace.cpp). Sensor-heavy rows like these are
// what delta_bitpack exists for.
core::TraceBatch sensor_rails_batch(std::size_t n_rows, std::size_t rails,
                                    std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const power::GaussianNoise noise(250e-6);
  const power::Quantizer quant(1e-6);
  core::TraceBatch batch(rails);
  batch.resize(n_rows);
  for (auto& pt : batch.plaintexts()) {
    rng.fill_bytes(pt);
  }
  for (auto& ct : batch.ciphertexts()) {
    rng.fill_bytes(ct);
  }
  for (std::size_t c = 0; c < rails; ++c) {
    double level = 4.0;
    for (auto& v : batch.column(c)) {
      level += rng.gaussian(0.0, 10e-6);  // slow baseline drift
      v = static_cast<double>(
          static_cast<float>(quant.apply(noise.apply(level, rng))));
    }
  }
  return batch;
}

std::vector<util::FourCc> rail_names(std::size_t rails) {
  std::vector<util::FourCc> names;
  for (std::size_t c = 0; c < rails; ++c) {
    names.push_back(*util::FourCc::parse("QT" + std::to_string(10 + c)));
  }
  return names;
}

std::string write_v2_file(const std::string& name,
                          const core::TraceBatch& batch) {
  const std::string path = temp_path(name);
  TraceFileWriter writer(
      path,
      {.channels = {util::FourCc("PHPC"), util::FourCc("PMVC"),
                    util::FourCc("PSTR")},
       .chunk_capacity = chunk_rows,
       .channel_codecs =
           uniform_channel_codecs(n_channels, ColumnCodec::delta_bitpack)});
  EXPECT_EQ(writer.format_version(), format_version_v2);
  writer.append(batch);
  writer.finalize();
  return path;
}

void expect_batches_bit_identical(const core::TraceBatch& a,
                                  const core::TraceBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.channels(), b.channels());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.plaintexts()[i], b.plaintexts()[i]) << "row " << i;
    ASSERT_EQ(a.ciphertexts()[i], b.ciphertexts()[i]) << "row " << i;
  }
  for (std::size_t c = 0; c < a.channels(); ++c) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.column(c)[i]),
                std::bit_cast<std::uint64_t>(b.column(c)[i]))
          << "channel " << c << " row " << i;
    }
  }
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void dump(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Offset of chunk 0's header: the first "CHNK" after the file header.
std::size_t first_chunk_offset(const std::vector<char>& bytes) {
  for (std::size_t i = 0; i + 4 <= bytes.size(); ++i) {
    if (bytes[i] == 'C' && bytes[i + 1] == 'H' && bytes[i + 2] == 'N' &&
        bytes[i + 3] == 'K') {
      return i;
    }
  }
  ADD_FAILURE() << "no CHNK magic found";
  return bytes.size();
}

// Directory entry of column `col` in chunk 0 (u32 codec, u32 reserved,
// u64 raw_bytes, u64 stored_bytes).
std::byte* dir_entry(std::vector<char>& bytes, std::size_t col) {
  const std::size_t chunk = first_chunk_offset(bytes);
  return reinterpret_cast<std::byte*>(bytes.data()) + chunk +
         chunk_header_bytes + col * column_entry_bytes;
}

// File offset of the first byte of column `col`'s block in chunk 0.
std::size_t column_block_offset(std::vector<char>& bytes, std::size_t col) {
  const std::size_t chunk = first_chunk_offset(bytes);
  std::size_t off = chunk + chunk_header_bytes +
                    chunk_column_count(n_channels) * column_entry_bytes;
  for (std::size_t c = 0; c < col; ++c) {
    off += pad8(get_u64(dir_entry(bytes, c) + 16));  // stored_bytes
  }
  return off;
}

void expect_chunk0_fails(const std::string& path, const std::string& needle) {
  try {
    TraceFileReader reader(path);
    core::TraceBatch batch(reader.channels().size());
    reader.read_rows(0, chunk_rows, batch);
    FAIL() << "expected StoreError containing \"" << needle << "\"";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(PstrV2, RoundTripsBitExact) {
  const core::TraceBatch original = quantized_batch(3);
  const std::string path = write_v2_file("v2_roundtrip.pstr", original);

  TraceFileReader reader(path);
  EXPECT_EQ(reader.format_version(), format_version_v2);
  ASSERT_EQ(reader.trace_count(), rows);
  core::TraceBatch loaded(n_channels);
  reader.read_rows(0, rows, loaded);
  expect_batches_bit_identical(loaded, original);
}

TEST(PstrV2, CompressionEngagesAndShrinksChannelColumns) {
  // Each input is written as v2 and as v1. The 16-rail sensor set must
  // shrink the whole file — AES columns included — at least 2x (it
  // reads 2.85x: 160 -> 56 bytes/trace).
  struct Input {
    std::string name;
    core::TraceBatch batch;
    std::size_t chunk_capacity;
    double min_file_ratio;
  };
  const std::vector<Input> inputs = {
      {"capture-shaped", quantized_batch(5), chunk_rows, 1.0},
      {"16-rail sensor", sensor_rails_batch(8192, 16, 23), 4096, 2.0},
  };
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.name);
    const std::size_t channels = input.batch.channels();
    const std::string path = temp_path("v2_shrink.pstr");
    TraceFileWriter writer(
        path, {.channels = rail_names(channels),
               .chunk_capacity = input.chunk_capacity,
               .channel_codecs = uniform_channel_codecs(
                   channels, ColumnCodec::delta_bitpack)});
    writer.append(input.batch);
    writer.finalize();
    EXPECT_EQ(writer.channel_raw_bytes(),
              input.batch.size() * channels * 8);
    // Narrow quantized walks pack well below half the raw doubles.
    EXPECT_LT(writer.channel_stored_bytes() * 2, writer.channel_raw_bytes());

    // And the v2 file is genuinely smaller than the same data as v1.
    const std::string v1_path = temp_path("v2_shrink_ref_v1.pstr");
    TraceFileWriter v1_writer(v1_path,
                              {.channels = writer.channels(),
                               .chunk_capacity = input.chunk_capacity});
    v1_writer.append(input.batch);
    v1_writer.finalize();
    const std::size_t v1_bytes = TraceFileReader(v1_path).file_bytes();
    const std::size_t v2_bytes = TraceFileReader(path).file_bytes();
    EXPECT_LT(v2_bytes, v1_bytes);
    EXPECT_GE(static_cast<double>(v1_bytes),
              input.min_file_ratio * static_cast<double>(v2_bytes));
  }
}

std::uint64_t fnv1a(const std::vector<char>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

TEST(PstrV2, CompactedFileBytesMatchRecordedDigest) {
  // Absolute anchor on the writer's output: the whole file (chunk
  // directories, delta_bitpack blocks, payload CRCs, index and footer)
  // of two small fixed stores, pinned by size and FNV-1a digest. Round
  // trips alone would pass an encoder that picked a different step. A
  // mismatch prints the actual values.
  const std::vector<char> capture =
      slurp(write_v2_file("v2_pinned.pstr", quantized_batch(3)));
  EXPECT_EQ(capture.size(), 22424u);
  EXPECT_EQ(fnv1a(capture), 0x6f0723db6f5e57b3ULL);

  const core::TraceBatch rails = sensor_rails_batch(4096 + 100, 4, 29);
  const std::string path = temp_path("v2_pinned_rails.pstr");
  TraceFileWriter writer(
      path, {.channels = rail_names(rails.channels()),
             .chunk_capacity = 4096,
             .channel_codecs = uniform_channel_codecs(
                 rails.channels(), ColumnCodec::delta_bitpack)});
  writer.append(rails);
  writer.finalize();
  const std::vector<char> sensor = slurp(path);
  EXPECT_EQ(sensor.size(), 160112u);
  EXPECT_EQ(fnv1a(sensor), 0xcd6420a0e9655f34ULL);
}

// Rows whose chunks of `chunk` rows alternate between a quantized
// float32 sensor walk (even chunks: delta_bitpack accepts them) and
// off-grid Gaussians (odd chunks: the codec refuses and the chunk stores
// identity).
core::TraceBatch alternating_grid_batch(std::size_t n_rows,
                                        std::size_t chunk,
                                        std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  core::TraceBatch batch(n_channels);
  batch.resize(n_rows);
  for (auto& pt : batch.plaintexts()) {
    rng.fill_bytes(pt);
  }
  for (auto& ct : batch.ciphertexts()) {
    rng.fill_bytes(ct);
  }
  const double steps[n_channels] = {1e-6, 1e-3, 0.01};
  for (std::size_t c = 0; c < n_channels; ++c) {
    double level = 4.0;
    const std::span<double> column = batch.column(c);
    for (std::size_t i = 0; i < n_rows; ++i) {
      if ((i / chunk) % 2 == 1) {
        column[i] = rng.gaussian(0.0, 1.0);
        level = 4.0;  // each grid chunk walks from the same level
        continue;
      }
      // 5 steps per row keeps the walk well above zero: a -0.0 would
      // send the chunk to identity.
      level += rng.gaussian(0.0, 5 * steps[c]);
      column[i] = static_cast<double>(
          static_cast<float>(std::round(level / steps[c]) * steps[c]));
    }
  }
  return batch;
}

// Writes `data` through one writer in appends of 1, 7, 4095, 4097 rows
// and then the rest (each clamped to what is left), so chunk boundaries
// fall inside, at the edge of and across appended batches. Returns the
// file's bytes.
std::vector<char> write_in_uneven_appends(const std::string& name,
                                          const core::TraceBatch& data,
                                          std::size_t chunk_capacity,
                                          bool v2) {
  const std::string path = temp_path(name);
  TraceFileWriter writer(
      path, {.channels = rail_names(data.channels()),
             .chunk_capacity = chunk_capacity,
             .channel_codecs =
                 v2 ? uniform_channel_codecs(data.channels(),
                                             ColumnCodec::delta_bitpack)
                    : std::vector<ColumnCodec>{}});
  core::TraceBatch piece(data.channels());
  std::size_t begin = 0;
  for (const std::size_t size :
       {std::size_t{1}, std::size_t{7}, std::size_t{4095}, std::size_t{4097},
        data.size()}) {
    const std::size_t count = std::min(size, data.size() - begin);
    piece.clear();
    piece.append(data, begin, count);
    writer.append(piece);
    begin += count;
  }
  EXPECT_EQ(begin, data.size());
  writer.finalize();
  return slurp(path);
}

TEST(PstrV2, MultiChunkWriterOutputMatchesRecordedDigest) {
  // Absolute anchor on stores of many more chunks than the writer keeps
  // in flight: 12 full chunks of 1024 rows plus a partial one of 300,
  // codec-accepted chunks alternating with identity fallbacks, written
  // as v2 and as v1, and a store of one row per chunk. Each file is
  // pinned by size and FNV-1a digest on every SIMD mode; a mismatch
  // prints the actual values.
  constexpr std::size_t chunk = 1024;
  const core::TraceBatch data = alternating_grid_batch(12 * chunk + 300,
                                                       chunk, 31);
  const core::TraceBatch single_rows = quantized_batch(37);
  core::TraceBatch fifty(n_channels);
  fifty.append(single_rows, 0, 50);

  for (const util::simd::Backend backend : util::simd::supported_backends()) {
    util::simd::force_backend(backend);
    SCOPED_TRACE(std::string(util::simd::backend_name(backend)));

    const std::vector<char> v2 =
        write_in_uneven_appends("v2_pinned_multi.pstr", data, chunk, true);
    EXPECT_EQ(v2.size(), 566544u);
    EXPECT_EQ(fnv1a(v2), 0xcb5461dc6270437dULL);
    TraceFileReader reader(temp_path("v2_pinned_multi.pstr"));
    ASSERT_EQ(reader.chunk_count(), 13u);
    EXPECT_EQ(reader.chunk_rows(12), 300u);
    for (const TraceFileReader::ColumnStats& col : reader.column_stats()) {
      // The seven even chunks, the partial last one included.
      EXPECT_EQ(col.chunks_coded,
                col.name == "plaintext" || col.name == "ciphertext" ? 0u
                                                                    : 7u)
          << col.name;
    }
    core::TraceBatch loaded(n_channels);
    reader.read_rows(0, reader.trace_count(), loaded);
    expect_batches_bit_identical(loaded, data);

    const std::vector<char> v1 =
        write_in_uneven_appends("v1_pinned_multi.pstr", data, chunk, false);
    EXPECT_EQ(v1.size(), 705552u);
    EXPECT_EQ(fnv1a(v1), 0xfd6755c102d5be36ULL);

    const std::vector<char> single =
        write_in_uneven_appends("v2_pinned_single.pstr", fifty, 1, true);
    EXPECT_EQ(single.size(), 10904u);
    EXPECT_EQ(fnv1a(single), 0x9e18579aee2f2765ULL);
    EXPECT_EQ(TraceFileReader(temp_path("v2_pinned_single.pstr"))
                  .chunk_count(),
              50u);
  }
  util::simd::reset_backend();
}

TEST(PstrV2, UnquantizedDataFallsBackToIdentityAndRoundTrips) {
  util::Xoshiro256 rng(7);
  core::TraceBatch batch(n_channels);
  batch.resize(rows);
  for (auto& pt : batch.plaintexts()) {
    rng.fill_bytes(pt);
  }
  for (auto& ct : batch.ciphertexts()) {
    rng.fill_bytes(ct);
  }
  for (std::size_t c = 0; c < n_channels; ++c) {
    for (auto& v : batch.column(c)) {
      v = rng.gaussian(0.0, 1.0);  // off-grid: the codec must refuse
    }
  }

  const std::string path = temp_path("v2_identity.pstr");
  TraceFileWriter writer(
      path,
      {.channels = {util::FourCc("PHPC"), util::FourCc("PMVC"),
                    util::FourCc("PSTR")},
       .chunk_capacity = chunk_rows,
       .channel_codecs =
           uniform_channel_codecs(n_channels, ColumnCodec::delta_bitpack)});
  writer.append(batch);
  writer.finalize();
  EXPECT_EQ(writer.channel_stored_bytes(), writer.channel_raw_bytes());

  TraceFileReader reader(path);
  core::TraceBatch loaded(n_channels);
  reader.read_rows(0, rows, loaded);
  expect_batches_bit_identical(loaded, batch);
}

TEST(PstrV2, BitFlipInCompressedBlockHeaderIsLoudError) {
  const std::string path =
      write_v2_file("v2_flip_header.pstr", quantized_batch(11));
  auto bytes = slurp(path);
  // Channel 0 (column 2) must actually be compressed, or the test
  // would pass vacuously against an identity block.
  ASSERT_EQ(get_u32(dir_entry(bytes, 2)),
            static_cast<std::uint32_t>(ColumnCodec::delta_bitpack));
  // Corrupt the encoded block's count field: decode fails structurally.
  const std::size_t off = column_block_offset(bytes, 2);
  bytes[off] = static_cast<char>(bytes[off] ^ 0x01);
  dump(path, bytes);
  expect_chunk0_fails(path, "corrupt compressed block");
}

TEST(PstrV2, BitFlipInPackedDeltasFailsDecodedPayloadCrc) {
  const std::string path =
      write_v2_file("v2_flip_payload.pstr", quantized_batch(13));
  auto bytes = slurp(path);
  ASSERT_EQ(get_u32(dir_entry(bytes, 2)),
            static_cast<std::uint32_t>(ColumnCodec::delta_bitpack));
  // Flip a packed delta bit past the 24-byte codec header: the block
  // stays structurally valid and decodes — to different values, which
  // the CRC over the *decoded* payload must catch.
  ASSERT_GT(get_u64(dir_entry(bytes, 2) + 16), std::uint64_t{24});
  const std::size_t off = column_block_offset(bytes, 2) + 24;
  bytes[off] = static_cast<char>(bytes[off] ^ 0x10);
  dump(path, bytes);
  expect_chunk0_fails(path, "payload CRC mismatch");
}

TEST(PstrV2, DirectoryCorruptionIsLoudError) {
  // Unknown codec id.
  {
    const std::string path =
        write_v2_file("v2_bad_codec.pstr", quantized_batch(17));
    auto bytes = slurp(path);
    put_u32(dir_entry(bytes, 2), 7);
    dump(path, bytes);
    expect_chunk0_fails(path, "unknown codec 7");
  }
  // stored_bytes beyond the chunk's byte budget.
  {
    const std::string path =
        write_v2_file("v2_bad_size.pstr", quantized_batch(19));
    auto bytes = slurp(path);
    put_u64(dir_entry(bytes, 2) + 16, 0xfffffffffffff000ull);
    dump(path, bytes);
    expect_chunk0_fails(path, "corrupt chunk 0");
  }
}

TEST(PstrV2, PrefetchOnAndOffProduceBitIdenticalBatches) {
  const core::TraceBatch original = quantized_batch(23);
  const std::string path = write_v2_file("v2_prefetch.pstr", original);

  core::TraceBatch with_prefetch(n_channels);
  core::TraceBatch without(n_channels);
  {
    FileTraceSource source(path, FileSourceOptions{
                                     .prefetch = PrefetchMode::on});
    EXPECT_TRUE(source.prefetch_enabled());
    with_prefetch.resize(rows);
    source.collect_batch(with_prefetch);
  }
  {
    FileTraceSource source(path, FileSourceOptions{
                                     .prefetch = PrefetchMode::off});
    EXPECT_FALSE(source.prefetch_enabled());
    without.resize(rows);
    source.collect_batch(without);
  }
  expect_batches_bit_identical(with_prefetch, without);
  expect_batches_bit_identical(with_prefetch, original);
}

TEST(PstrV2, NoMmapEnvForcesHeapCopy) {
  const core::TraceBatch original = quantized_batch(29);
  const std::string path = write_v2_file("v2_no_mmap.pstr", original);

  // Restored at the end, so a suite run under PSC_NO_MMAP=1 stays on
  // the heap path for the tests after this one.
  const char* prior = std::getenv("PSC_NO_MMAP");
  const std::string saved = prior != nullptr ? prior : "";
  ASSERT_EQ(::setenv("PSC_NO_MMAP", "1", 1), 0);
  {
    // The reader's SharedMapping is now a whole-file heap copy...
    TraceFileReader reader(path);
    EXPECT_FALSE(reader.mapped());
    core::TraceBatch loaded(n_channels);
    reader.read_rows(0, rows, loaded);
    expect_batches_bit_identical(loaded, original);

    // ...and the full replay source (prefetch included) works on it.
    FileTraceSource source(path);
    EXPECT_FALSE(source.reader().mapped());
    core::TraceBatch replayed(n_channels);
    replayed.resize(rows);
    source.collect_batch(replayed);
    expect_batches_bit_identical(replayed, original);
  }
  ASSERT_EQ(::unsetenv("PSC_NO_MMAP"), 0);
  EXPECT_TRUE(TraceFileReader(path).mapped());
  if (prior != nullptr) {
    ASSERT_EQ(::setenv("PSC_NO_MMAP", saved.c_str(), 1), 0);
  }
}

void expect_results_identical(const core::ModelResult& a,
                              const core::ModelResult& b) {
  EXPECT_EQ(a.true_ranks, b.true_ranks);
  EXPECT_EQ(a.best_round_key, b.best_round_key);
  ASSERT_EQ(a.ge_bits, b.ge_bits);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t g = 0; g < 256; ++g) {
      ASSERT_EQ(a.bytes[i].correlation[g], b.bytes[i].correlation[g])
          << "byte " << i << " guess " << g;
    }
  }
}

// The v2 acceptance test: a live campaign teed to a *compressed*
// recording replays bit-identically through the prefetching source.
// Compression and async decode change bytes on disk
// and the schedule — never a single analyzed bit.
TEST(PstrV2, ReplayedCpaFromV2FileBitIdenticalToLiveRecording) {
  const std::string path = temp_path("v2_recorded_campaign.pstr");
  const std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};
  const core::LiveSourceConfig live_config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space(),
  };

  util::Xoshiro256 rng(47);
  aes::Block victim_key;
  rng.fill_bytes(victim_key);
  const auto round_keys = aes::Aes128::expand_key(victim_key);

  core::LiveTraceSource source(live_config, victim_key, 7);
  const auto& channels = source.keys();
  const std::size_t column = static_cast<std::size_t>(
      std::find(channels.begin(), channels.end(), util::FourCc("PHPC")) -
      channels.begin());
  ASSERT_LT(column, channels.size());

  constexpr std::size_t total = 2000;
  core::ModelResult live_result;
  std::uint64_t stored_bytes = 0;
  std::uint64_t raw_bytes = 0;
  {
    TraceFileWriter writer(
        path,
        {.channels = channels,
         .chunk_capacity = 256,
         .metadata = device_metadata(live_config.profile.name,
                                     live_config.profile.os_version),
         .channel_codecs = uniform_channel_codecs(
             channels.size(), ColumnCodec::delta_bitpack)});
    core::CpaSink cpa(models, {column});
    RecordingSink recorder(writer);
    core::MultiSink multi({&cpa, &recorder});

    core::TraceBatch batch(channels.size());
    std::size_t produced = 0;
    while (produced < total) {
      const std::size_t chunk = std::min<std::size_t>(170, total - produced);
      core::collect_random_batch(source, chunk, rng, batch);
      multi.consume(batch, core::BatchLabel::unlabeled());
      produced += chunk;
    }
    writer.finalize();
    stored_bytes = writer.channel_stored_bytes();
    raw_bytes = writer.channel_raw_bytes();
    live_result = cpa.engine(0).analyze(models[0], round_keys);
  }
  // Real recorded sensor grids must compress — this guards the codec
  // against drifting away from what the measurement path emits.
  EXPECT_LT(stored_bytes * 2, raw_bytes);

  FileTraceSource replay(path,
                         FileSourceOptions{.prefetch = PrefetchMode::on});
  EXPECT_EQ(replay.reader().format_version(), format_version_v2);
  ASSERT_EQ(replay.remaining(), total);
  util::Xoshiro256 unused_rng(0);  // replay returns recorded plaintexts
  const core::CpaEngine engine = core::accumulate_cpa(
      replay, util::FourCc("PHPC"), models, /*count=*/0, unused_rng);
  expect_results_identical(engine.analyze(models[0], round_keys),
                           live_result);
}

// Replays a store recorded in TVLA protocol order through one TvlaSink
// over every channel and one CpaSink on `cpa_column`. Set k of the six
// equal consecutive sets is labeled (class k % 3, primed = k >= 3): the
// positional rule of served TVLA jobs (bus/jobs.h).
struct ProtocolReplay {
  core::TvlaSink tvla;
  core::CpaSink cpa;
};

ProtocolReplay replay_in_protocol_order(
    const std::string& path, std::size_t cpa_column,
    const std::vector<power::PowerModel>& models) {
  FileTraceSource source(path);
  const std::size_t channels = source.keys().size();
  ProtocolReplay out{core::TvlaSink(channels),
                     core::CpaSink(models, {cpa_column})};
  core::MultiSink multi({&out.tvla, &out.cpa});
  const std::size_t per_set = source.reader().trace_count() / 6;
  core::TraceBatch batch(channels);
  for (std::size_t k = 0; k < 6; ++k) {
    const core::BatchLabel label = core::BatchLabel::tvla(
        core::all_plaintext_classes[k % 3], /*primed=*/k >= 3);
    for (std::size_t done = 0; done < per_set;) {
      const std::size_t n = std::min<std::size_t>(1000, per_set - done);
      batch.clear();
      batch.resize(n);
      source.collect_batch(batch);
      multi.consume(batch, label);
      done += n;
    }
  }
  return out;
}

void expect_matrices_bit_identical(const core::TvlaMatrix& a,
                                   const core::TvlaMatrix& b) {
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.t[r][c]),
                std::bit_cast<std::uint64_t>(b.t[r][c]))
          << "cell " << r << "," << c;
    }
  }
}

// The `trace_convert compact` loop over a live recording: a v1 capture
// in TVLA protocol order, rewritten chunk by chunk into a delta_bitpack
// v2 writer that keeps the source's chunk capacity and metadata. Both
// files must replay bit-identically through the TVLA and CPA sinks, so
// serving the compacted file in place of the recording changes nothing.
TEST(PstrV2, CompactedLiveRecordingReplaysBitIdenticalThroughTvlaAndCpa) {
  const std::string v1_path = temp_path("v2_compact_src.pstr");
  const std::string v2_path = temp_path("v2_compact_dst.pstr");
  const std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};
  const core::LiveSourceConfig live_config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space(),
  };
  const std::vector<util::FourCc> channels =
      core::LiveTraceSource::channel_names(live_config);
  const std::size_t column = static_cast<std::size_t>(
      std::find(channels.begin(), channels.end(), util::FourCc("PHPC")) -
      channels.begin());
  ASSERT_LT(column, channels.size());

  constexpr std::size_t per_set = 500;
  core::SinkCampaignConfig campaign;
  campaign.channels = channels;
  campaign.make_source = [&live_config](const core::ShardSource& shard) {
    return std::make_unique<core::LiveTraceSource>(live_config, shard.secret,
                                                   shard.seed);
  };
  campaign.traces = per_set;
  campaign.seed = 53;
  campaign.shards = 1;  // one writer sees the stream in protocol order
  core::SinkCampaignResult live;
  {
    TraceFileWriter writer(
        v1_path,
        {.channels = channels,
         .chunk_capacity = 256,
         .metadata = device_metadata(live_config.profile.name,
                                     live_config.profile.os_version)});
    RecordingSink recorder(writer);
    campaign.extra_sink = [&recorder](std::size_t) { return &recorder; };
    live = core::run_sink_campaign(campaign);
    writer.finalize();
  }

  {
    TraceFileReader src(v1_path);
    TraceFileWriter compact(
        v2_path,
        {.channels = src.channels(),
         .chunk_capacity = src.chunk_capacity(),
         .metadata = src.metadata(),
         .channel_codecs = uniform_channel_codecs(
             src.channels().size(), ColumnCodec::delta_bitpack)});
    core::TraceBatch batch(src.channels().size());
    for (std::size_t i = 0; i < src.chunk_count(); ++i) {
      batch.clear();
      src.chunk(i).append_to(batch);
      compact.append(batch);
    }
    compact.finalize();
    // The recorded sensor grids must actually compress, or the replays
    // below would only compare identity blocks.
    EXPECT_LT(compact.channel_stored_bytes(), compact.channel_raw_bytes());

    const TraceFileReader out(v2_path);
    EXPECT_EQ(out.format_version(), format_version_v2);
    EXPECT_EQ(out.trace_count(), 6 * per_set);
    EXPECT_EQ(out.chunk_count(), src.chunk_count());
    EXPECT_EQ(out.metadata(), src.metadata());
  }

  const ProtocolReplay from_v1 =
      replay_in_protocol_order(v1_path, column, models);
  const ProtocolReplay from_v2 =
      replay_in_protocol_order(v2_path, column, models);
  for (std::size_t c = 0; c < channels.size(); ++c) {
    SCOPED_TRACE(channels[c].str());
    // Positional labeling recovers the live campaign's sets exactly...
    expect_matrices_bit_identical(from_v1.tvla.accumulator(c).matrix(),
                                  live.tvla[c].matrix);
    // ...and the compacted file replays the recording bit for bit.
    expect_matrices_bit_identical(from_v2.tvla.accumulator(c).matrix(),
                                  from_v1.tvla.accumulator(c).matrix());
  }
  ASSERT_EQ(from_v1.cpa.trace_count(), 2 * per_set);
  ASSERT_EQ(from_v2.cpa.trace_count(), 2 * per_set);
  expect_results_identical(
      from_v2.cpa.engine(0).analyze(models[0], live.round_keys),
      from_v1.cpa.engine(0).analyze(models[0], live.round_keys));
}

}  // namespace
}  // namespace psc::store
