// Property tests for the columnar TraceBatch core: batch feeding must be
// bit-identical to per-trace feeding for every engine, the pooled
// clear-and-refill loop must be allocation-free in steady state, and the
// CSV round-trip must be exact in batch form.
#include "core/trace_batch.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/cpa.h"
#include "core/trace_source.h"
#include "core/tvla.h"
#include "util/rng.h"

namespace psc::core {
namespace {

aes::Block random_block(util::Xoshiro256& rng) {
  aes::Block b;
  rng.fill_bytes(b);
  return b;
}

// A batch of random traces with `channels` value columns.
TraceBatch random_batch(util::Xoshiro256& rng, std::size_t n,
                        std::size_t channels) {
  TraceBatch batch(channels);
  batch.resize(n);
  for (auto& pt : batch.plaintexts()) {
    rng.fill_bytes(pt);
  }
  for (auto& ct : batch.ciphertexts()) {
    rng.fill_bytes(ct);
  }
  for (std::size_t c = 0; c < channels; ++c) {
    for (auto& v : batch.column(c)) {
      v = rng.uniform(-5.0, 5.0);
    }
  }
  return batch;
}

TEST(TraceBatch, ShapeAndAppend) {
  TraceBatch batch(2);
  EXPECT_EQ(batch.channels(), 2u);
  EXPECT_TRUE(batch.empty());

  util::Xoshiro256 rng(1);
  const aes::Block pt = random_block(rng);
  const aes::Block ct = random_block(rng);
  batch.append(pt, ct, std::vector<double>{1.0, 2.0});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.plaintexts()[0], pt);
  EXPECT_EQ(batch.ciphertexts()[0], ct);
  EXPECT_DOUBLE_EQ(batch.column(0)[0], 1.0);
  EXPECT_DOUBLE_EQ(batch.column(1)[0], 2.0);
  EXPECT_EQ(batch.row(0).values.size(), 2u);
  EXPECT_DOUBLE_EQ(batch.row(0).values[1], 2.0);

  EXPECT_THROW(batch.append(pt, ct, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(batch.column(2), std::out_of_range);
}

TEST(TraceBatch, RangeAppendAndErrors) {
  util::Xoshiro256 rng(2);
  const TraceBatch source = random_batch(rng, 10, 3);
  TraceBatch dest(3);
  dest.append(source, 2, 5);
  ASSERT_EQ(dest.size(), 5u);
  for (std::size_t t = 0; t < 5; ++t) {
    EXPECT_EQ(dest.plaintexts()[t], source.plaintexts()[t + 2]);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(dest.column(c)[t], source.column(c)[t + 2]);
    }
  }
  EXPECT_THROW(dest.append(source, 8, 5), std::out_of_range);
  TraceBatch wrong(2);
  EXPECT_THROW(wrong.append(source), std::invalid_argument);
}

TEST(TraceBatch, ClearAndRefillIsAllocationFree) {
  TraceBatch batch(4);
  batch.reserve(256);
  batch.resize(256);
  const aes::Block* pt_data = batch.plaintexts().data();
  const double* col_data = batch.column(3).data();
  for (int cycle = 0; cycle < 10; ++cycle) {
    batch.clear();
    EXPECT_TRUE(batch.empty());
    batch.resize(100 + cycle);
    // Within capacity, clear+resize must not reallocate any array.
    EXPECT_EQ(batch.plaintexts().data(), pt_data);
    EXPECT_EQ(batch.column(3).data(), col_data);
  }
}

TEST(TraceBatchPool, RecyclesCapacityAcrossLeases) {
  TraceBatchPool pool(2, 128);
  const double* col_data = nullptr;
  {
    auto lease = pool.acquire();
    EXPECT_EQ(lease->channels(), 2u);
    EXPECT_GE(lease->capacity(), 128u);
    lease->resize(64);
    col_data = lease->column(0).data();
  }
  {
    // Returned batch comes back cleared but with its storage intact.
    auto lease = pool.acquire();
    EXPECT_TRUE(lease->empty());
    lease->resize(64);
    EXPECT_EQ(lease->column(0).data(), col_data);
  }
}

// Feeding a CpaEngine one n-row batch is bit-identical to feeding it n
// one-row batches (the accumulators stripe by global trace index), for
// every histogram family (plaintext, ciphertext, and ciphertext-pair
// models).
TEST(TraceBatch, CpaBatchFeedingBitIdenticalToPerTrace) {
  util::Xoshiro256 rng(3);
  const std::vector<power::PowerModel> models = {
      power::PowerModel::rd0_hw, power::PowerModel::rd10_hw,
      power::PowerModel::rd10_hd};
  const TraceBatch batch = random_batch(rng, 777, 2);

  CpaEngine batched(models);
  batched.add_batch(batch, 1);

  CpaEngine looped(models);
  for (std::size_t t = 0; t < batch.size(); ++t) {
    looped.add_trace_batch(batch.plaintexts().subspan(t, 1),
                           batch.ciphertexts().subspan(t, 1),
                           batch.column(1).subspan(t, 1));
  }

  ASSERT_EQ(batched.trace_count(), looped.trace_count());
  const auto round_keys = aes::Aes128::expand_key(random_block(rng));
  for (const power::PowerModel model : models) {
    for (std::size_t i = 0; i < 16; ++i) {
      const ByteRanking a = batched.analyze_byte(model, i);
      const ByteRanking b = looped.analyze_byte(model, i);
      for (int g = 0; g < 256; ++g) {
        // Exact equality: the accumulator state must match to the bit.
        ASSERT_EQ(a.correlation[static_cast<std::size_t>(g)],
                  b.correlation[static_cast<std::size_t>(g)])
            << "model " << static_cast<int>(model) << " byte " << i
            << " guess " << g;
      }
    }
    const ModelResult ra = batched.analyze(model, round_keys);
    const ModelResult rb = looped.analyze(model, round_keys);
    EXPECT_EQ(ra.true_ranks, rb.true_ranks);
    EXPECT_EQ(ra.ge_bits, rb.ge_bits);
  }
}

// Splitting one stream into arbitrary batch boundaries must not change
// the engine state either (the campaign chunking property).
TEST(TraceBatch, CpaChunkingInvariant) {
  util::Xoshiro256 rng(4);
  const TraceBatch batch = random_batch(rng, 500, 1);

  CpaEngine whole({power::PowerModel::rd0_hw});
  whole.add_batch(batch, 0);

  CpaEngine chunked({power::PowerModel::rd0_hw});
  const std::size_t cuts[] = {1, 63, 64, 200, 500};
  std::size_t begin = 0;
  TraceBatch piece(1);
  for (const std::size_t end : cuts) {
    piece.clear();
    piece.append(batch, begin, end - begin);
    chunked.add_batch(piece, 0);
    begin = end;
  }

  for (std::size_t i = 0; i < 16; ++i) {
    const ByteRanking a = whole.analyze_byte(power::PowerModel::rd0_hw, i);
    const ByteRanking b = chunked.analyze_byte(power::PowerModel::rd0_hw, i);
    for (int g = 0; g < 256; ++g) {
      ASSERT_EQ(a.correlation[static_cast<std::size_t>(g)],
                b.correlation[static_cast<std::size_t>(g)]);
    }
  }
}

TEST(TraceBatch, TvlaBatchFeedingBitIdenticalToPerValue) {
  util::Xoshiro256 rng(5);
  const TraceBatch batch = random_batch(rng, 333, 1);

  TvlaAccumulator batched;
  TvlaAccumulator looped;
  batched.add_batch(PlaintextClass::all_ones, true, batch.column(0));
  for (const double v : batch.column(0)) {
    looped.add(PlaintextClass::all_ones, true, v);
  }
  // Add a second set so the matrix has a defined cross-class cell.
  batched.add_batch(PlaintextClass::all_zeros, false, batch.column(0));
  looped.add_batch(PlaintextClass::all_zeros, false, batch.column(0));

  EXPECT_EQ(batched.count(PlaintextClass::all_ones, true),
            looped.count(PlaintextClass::all_ones, true));
  const TvlaMatrix ma = batched.matrix();
  const TvlaMatrix mb = looped.matrix();
  for (const PlaintextClass row : all_plaintext_classes) {
    for (const PlaintextClass col : all_plaintext_classes) {
      ASSERT_EQ(ma.score(row, col), mb.score(row, col));
    }
  }
}

// CSV round-trip over the batch path is exact: persist a live capture,
// reload it, and compare every column bit for bit.
TEST(TraceBatch, CsvRoundTripOfBatchIsExact) {
  util::Xoshiro256 rng(6);
  const aes::Block victim_key = random_block(rng);
  LiveTraceSource source({.profile = soc::DeviceProfile::macbook_air_m2(),
                          .victim = victim::VictimModel::user_space()},
                         victim_key, 7);
  TraceBatch batch(source.keys().size());
  collect_random_batch(source, 64, rng, batch);
  TraceSet set(source.keys());
  set.append(batch);

  std::stringstream csv;
  TraceCsvWriter(csv, set.keys()).write(set.batch());
  const TraceSet reloaded = TraceSet::load_csv(csv);

  const TraceBatch& a = set.batch();
  const TraceBatch& b = reloaded.batch();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.channels(), b.channels());
  for (std::size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a.plaintexts()[t], b.plaintexts()[t]);
    ASSERT_EQ(a.ciphertexts()[t], b.ciphertexts()[t]);
    for (std::size_t c = 0; c < a.channels(); ++c) {
      ASSERT_EQ(a.column(c)[t], b.column(c)[t]) << "trace " << t
                                                << " column " << c;
    }
  }
}

}  // namespace
}  // namespace psc::core
