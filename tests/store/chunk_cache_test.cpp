// ChunkCache unit + reader-integration tests: decode-once semantics
// (including under concurrency), LRU eviction driven by the byte budget,
// ref-counted pins surviving eviction, drop_dataset, loud decode
// failures that publish nothing, and TraceFileReader routing v2 chunk
// decodes through a shared cache bit-identically to private decodes.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/trace_batch.h"
#include "store/chunk_cache.h"
#include "store/pstr_format.h"
#include "store/shared_mapping.h"
#include "store/trace_file_reader.h"
#include "store/trace_file_writer.h"
#include "util/rng.h"

namespace psc::store {
namespace {

// A recognizable payload: `size` bytes of (dataset ^ chunk ^ i).
std::vector<std::byte> pattern(std::uint64_t dataset, std::size_t chunk,
                               std::size_t size) {
  std::vector<std::byte> out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<std::byte>((dataset ^ chunk ^ i) & 0xff);
  }
  return out;
}

ChunkCache::Payload fill(ChunkCache& cache, std::uint64_t dataset,
                         std::size_t chunk, std::size_t size) {
  return cache.get_or_decode(dataset, chunk, [&](std::vector<std::byte>& d) {
    d = pattern(dataset, chunk, size);
  });
}

TEST(ChunkCache, DecodeOnceThenHits) {
  ChunkCache cache(1 << 20);
  int decodes = 0;
  const auto decode = [&](std::vector<std::byte>& d) {
    ++decodes;
    d = pattern(1, 0, 100);
  };
  const ChunkCache::Payload first = cache.get_or_decode(1, 0, decode);
  const ChunkCache::Payload again = cache.get_or_decode(1, 0, decode);
  EXPECT_EQ(decodes, 1);
  EXPECT_EQ(first.get(), again.get());  // one shared immutable buffer
  EXPECT_EQ(*first, pattern(1, 0, 100));

  const ChunkCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.resident_bytes, 100u);
  EXPECT_EQ(cache.capacity_bytes(), std::size_t{1} << 20);
}

TEST(ChunkCache, DistinctKeysAreDistinctEntries) {
  ChunkCache cache(1 << 20);
  const auto a = fill(cache, 1, 0, 10);
  const auto b = fill(cache, 1, 1, 10);
  const auto c = fill(cache, 2, 0, 10);  // same chunk index, other dataset
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(ChunkCache, LruEvictionUnderPressure) {
  // Budget fits exactly two 100-byte entries.
  ChunkCache cache(200);
  fill(cache, 1, 0, 100);
  fill(cache, 1, 1, 100);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch chunk 0 so chunk 1 is the LRU victim.
  fill(cache, 1, 0, 100);
  EXPECT_EQ(cache.stats().hits, 1u);

  fill(cache, 1, 2, 100);  // over budget: evicts chunk 1
  ChunkCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.resident_bytes, 200u);

  // Chunk 0 survived (hit), chunk 1 was evicted (fresh miss).
  fill(cache, 1, 0, 100);
  EXPECT_EQ(cache.stats().hits, 2u);
  fill(cache, 1, 1, 100);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(ChunkCache, PinnedPayloadSurvivesEviction) {
  ChunkCache cache(100);
  const ChunkCache::Payload pinned = fill(cache, 1, 0, 100);
  // Both later entries overflow the budget and push chunk 0 out.
  fill(cache, 1, 1, 100);
  fill(cache, 1, 2, 100);
  EXPECT_GE(cache.stats().evictions, 2u);
  // The pin keeps the evicted bytes alive and intact.
  EXPECT_EQ(*pinned, pattern(1, 0, 100));
}

TEST(ChunkCache, OversizedEntryIsEvictedButStillServed) {
  ChunkCache cache(10);  // smaller than any entry
  const ChunkCache::Payload p = fill(cache, 1, 0, 100);
  EXPECT_EQ(*p, pattern(1, 0, 100));
  // The entry cannot stay resident, but the caller still got the bytes.
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

TEST(ChunkCache, DropDatasetRemovesOnlyThatDataset) {
  ChunkCache cache(1 << 20);
  fill(cache, 1, 0, 50);
  fill(cache, 1, 1, 50);
  fill(cache, 2, 0, 50);
  cache.drop_dataset(1);
  ChunkCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.resident_bytes, 50u);
  // Dataset 2 is untouched; dataset 1 decodes fresh.
  fill(cache, 2, 0, 50);
  EXPECT_EQ(cache.stats().hits, 1u);
  fill(cache, 1, 0, 50);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(ChunkCache, ThrowingDecodePublishesNothing) {
  ChunkCache cache(1 << 20);
  const auto boom = [](std::vector<std::byte>&) {
    throw std::runtime_error("corrupt chunk");
  };
  EXPECT_THROW(cache.get_or_decode(1, 0, boom), std::runtime_error);
  EXPECT_EQ(cache.stats().entries, 0u);
  // The key is free again: the next caller decodes (successfully) anew.
  const ChunkCache::Payload p = fill(cache, 1, 0, 10);
  EXPECT_EQ(*p, pattern(1, 0, 10));
}

TEST(ChunkCache, ConcurrentCallersDecodeExactlyOnce) {
  ChunkCache cache(1 << 20);
  constexpr int threads = 8;
  constexpr std::size_t chunks = 4;
  std::atomic<int> decodes{0};
  std::atomic<int> ready{0};

  std::vector<std::array<ChunkCache::Payload, chunks>> got(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) {
      }
      for (std::size_t c = 0; c < chunks; ++c) {
        got[t][c] = cache.get_or_decode(7, c, [&](std::vector<std::byte>& d) {
          decodes.fetch_add(1);
          d = pattern(7, c, 256);
        });
      }
    });
  }
  for (std::thread& th : pool) {
    th.join();
  }

  // Every chunk was decoded exactly once; every thread shares the same
  // immutable buffer and sees the same bytes.
  EXPECT_EQ(decodes.load(), static_cast<int>(chunks));
  for (std::size_t c = 0; c < chunks; ++c) {
    for (int t = 0; t < threads; ++t) {
      ASSERT_EQ(got[t][c].get(), got[0][c].get());
      ASSERT_EQ(*got[t][c], pattern(7, c, 256));
    }
  }
  const ChunkCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, chunks);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(threads) * chunks);
}

// ---------- TraceFileReader integration ----------

constexpr std::size_t rows = 1200;
constexpr std::size_t chunk_rows = 128;
constexpr std::size_t n_channels = 2;

// Quantized channels so delta_bitpack engages and every chunk actually
// goes through a decode (no identity zero-copy shortcut).
std::string write_compressed(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  util::Xoshiro256 rng(4242);
  core::TraceBatch batch(n_channels);
  batch.resize(rows);
  for (auto& pt : batch.plaintexts()) {
    rng.fill_bytes(pt);
  }
  for (auto& ct : batch.ciphertexts()) {
    rng.fill_bytes(ct);
  }
  for (std::size_t c = 0; c < n_channels; ++c) {
    double level = 1.0 + static_cast<double>(c);
    for (auto& v : batch.column(c)) {
      level += rng.gaussian(0.0, 1e-4);
      v = static_cast<double>(
          static_cast<float>(std::round(level * 1e6) / 1e6));
    }
  }
  TraceFileWriter writer(
      path, {.channels = {util::FourCc("PHPC"), util::FourCc("PMVC")},
             .chunk_capacity = chunk_rows,
             .channel_codecs = uniform_channel_codecs(
                 n_channels, ColumnCodec::delta_bitpack)});
  writer.append(batch);
  writer.finalize();
  return path;
}

void expect_chunks_bit_identical(ChunkView a, ChunkView b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.channels(), b.channels());
  ASSERT_EQ(a.row_begin(), b.row_begin());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    ASSERT_EQ(a.plaintexts()[r], b.plaintexts()[r]);
    ASSERT_EQ(a.ciphertexts()[r], b.ciphertexts()[r]);
  }
  for (std::size_t c = 0; c < a.channels(); ++c) {
    for (std::size_t r = 0; r < a.rows(); ++r) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.column(c)[r]),
                std::bit_cast<std::uint64_t>(b.column(c)[r]))
          << "channel " << c << " row " << r;
    }
  }
}

TEST(ChunkCacheReader, SharedCacheDecodesOnceAndMatchesPrivateDecode) {
  const std::string path =
      write_compressed("chunk_cache_shared.pstr");
  const auto mapping = SharedMapping::open(path);
  const auto cache = std::make_shared<ChunkCache>(std::size_t{64} << 20);

  TraceFileReader plain(mapping);  // private decodes, the reference
  TraceFileReader cached_a(mapping);
  TraceFileReader cached_b(mapping);
  cached_a.set_chunk_cache(cache);
  cached_b.set_chunk_cache(cache);

  const std::size_t chunks = plain.chunk_count();
  ASSERT_GT(chunks, 2u);
  TraceFileReader::ChunkBuffer buf_a;
  TraceFileReader::ChunkBuffer buf_b;
  for (std::size_t i = 0; i < chunks; ++i) {
    SCOPED_TRACE("chunk " + std::to_string(i));
    // Reader A via read_chunk_into, reader B via chunk(): both cache
    // paths serve bytes bit-identical to a private decode.
    expect_chunks_bit_identical(plain.chunk(i),
                                cached_a.read_chunk_into(i, buf_a));
    expect_chunks_bit_identical(cached_a.read_chunk_into(i, buf_a),
                                cached_b.chunk(i));
  }

  // Both readers walked every chunk (reader A twice per chunk), but each
  // chunk was decoded exactly once.
  const ChunkCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.misses, chunks);
  EXPECT_EQ(stats.hits, 2 * chunks);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ChunkCacheReader, TinyCacheStillServesBitIdenticalBytes) {
  const std::string path = write_compressed("chunk_cache_tiny.pstr");
  const auto mapping = SharedMapping::open(path);
  // A budget below one decoded chunk: every access evicts, none corrupts.
  const auto cache = std::make_shared<ChunkCache>(1024);

  TraceFileReader plain(mapping);
  TraceFileReader cached(mapping);
  cached.set_chunk_cache(cache);

  TraceFileReader::ChunkBuffer buf;
  for (std::size_t i = 0; i < plain.chunk_count(); ++i) {
    SCOPED_TRACE("chunk " + std::to_string(i));
    expect_chunks_bit_identical(plain.chunk(i),
                                cached.read_chunk_into(i, buf));
  }
  EXPECT_GT(cache->stats().evictions, 0u);
}

TEST(ChunkCacheReader, MappingIdsAreUniquePerOpen) {
  const std::string path = write_compressed("chunk_cache_ids.pstr");
  const auto a = SharedMapping::open(path);
  const auto b = SharedMapping::open(path);
  EXPECT_NE(a->id(), 0u);
  EXPECT_NE(a->id(), b->id());  // same file, distinct cache keyspace
}

}  // namespace
}  // namespace psc::store
