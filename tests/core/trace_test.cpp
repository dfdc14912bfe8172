#include "core/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <span>

#include "util/rng.h"

namespace psc::core {
namespace {

TraceRecord make_record(util::Xoshiro256& rng, std::size_t values) {
  TraceRecord r;
  rng.fill_bytes(r.plaintext);
  rng.fill_bytes(r.ciphertext);
  for (std::size_t i = 0; i < values; ++i) {
    r.values.push_back(rng.uniform(0.0, 10.0));
  }
  return r;
}

TEST(TraceSet, AddAndAccess) {
  TraceSet set({util::FourCc("PHPC"), util::FourCc("PSTR")});
  util::Xoshiro256 rng(1);
  set.add(make_record(rng, 2));
  set.add(make_record(rng, 2));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_FALSE(set.empty());
  EXPECT_EQ(set[0].values.size(), 2u);
}

TEST(TraceSet, RejectsMismatchedValues) {
  TraceSet set({util::FourCc("PHPC")});
  util::Xoshiro256 rng(2);
  EXPECT_THROW(set.add(make_record(rng, 3)), std::invalid_argument);
}

TEST(TraceSet, KeyIndexLookup) {
  TraceSet set({util::FourCc("PHPC"), util::FourCc("PSTR")});
  EXPECT_EQ(set.key_index(util::FourCc("PSTR")), 1u);
  EXPECT_FALSE(set.key_index(util::FourCc("XXXX")).has_value());
}

TEST(TraceSet, ColumnExtraction) {
  TraceSet set({util::FourCc("PHPC")});
  for (double v : {1.0, 2.0, 3.0}) {
    TraceRecord r;
    r.values = {v};
    set.add(r);
  }
  const std::span<const double> column = set.column(0);
  ASSERT_EQ(column.size(), 3u);
  EXPECT_TRUE(std::equal(column.begin(), column.end(),
                         std::vector<double>{1.0, 2.0, 3.0}.begin()));
  // Zero-copy: the view aliases the set's columnar storage.
  EXPECT_EQ(column.data(), set.batch().column(0).data());
  EXPECT_THROW(set.column(1), std::out_of_range);
}

TEST(TraceSet, BulkAppendFromBatch) {
  TraceSet set({util::FourCc("PHPC")});
  TraceBatch batch(1);
  util::Xoshiro256 rng(7);
  for (double v : {4.0, 5.0}) {
    aes::Block pt;
    aes::Block ct;
    rng.fill_bytes(pt);
    rng.fill_bytes(ct);
    batch.append(pt, ct, std::array<double, 1>{v});
  }
  set.append(batch);
  set.append(batch);
  ASSERT_EQ(set.size(), 4u);
  EXPECT_DOUBLE_EQ(set[0].values[0], 4.0);
  EXPECT_DOUBLE_EQ(set[3].values[0], 5.0);
  EXPECT_EQ(set[0].plaintext, set[2].plaintext);

  TraceBatch wrong_shape(2);
  EXPECT_THROW(set.append(wrong_shape), std::invalid_argument);
}

TEST(TraceSet, CsvRoundTrip) {
  TraceSet set({util::FourCc("PHPC"), util::FourCc("PDTR")});
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 10; ++i) {
    set.add(make_record(rng, 2));
  }
  std::stringstream buffer;
  TraceCsvWriter(buffer, set.keys()).write(set.batch());
  const TraceSet loaded = TraceSet::load_csv(buffer);
  ASSERT_EQ(loaded.size(), set.size());
  ASSERT_EQ(loaded.keys(), set.keys());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(loaded[i].plaintext, set[i].plaintext);
    EXPECT_EQ(loaded[i].ciphertext, set[i].ciphertext);
    for (std::size_t v = 0; v < 2; ++v) {
      EXPECT_NEAR(loaded[i].values[v], set[i].values[v], 1e-9);
    }
  }
}

// With a first row, the writer prepends a "row" column numbering the
// rows across every batch it writes.
TEST(TraceCsvWriter, RowColumnCountsAcrossBatches) {
  TraceSet set({util::FourCc("PHPC")});
  TraceRecord r;
  r.plaintext.fill(0x01);
  r.ciphertext.fill(0xab);
  r.values = {0.5};
  set.add(r);
  std::stringstream out;
  TraceCsvWriter csv(out, set.keys(), 7);
  csv.write(set.batch());
  csv.write(set.batch());
  EXPECT_EQ(out.str(),
            "row,plaintext,ciphertext,PHPC\n"
            "7,01010101010101010101010101010101,"
            "abababababababababababababababab,0.5\n"
            "8,01010101010101010101010101010101,"
            "abababababababababababababababab,0.5\n");
}

TEST(TraceSet, LoadRejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW(TraceSet::load_csv(empty), std::runtime_error);

  std::stringstream bad_header("foo,bar\n");
  EXPECT_THROW(TraceSet::load_csv(bad_header), std::runtime_error);

  std::stringstream bad_key("plaintext,ciphertext,TOOLONGKEY\n");
  EXPECT_THROW(TraceSet::load_csv(bad_key), std::runtime_error);

  std::stringstream bad_hex(
      "plaintext,ciphertext,PHPC\nzz,00112233445566778899aabbccddeeff,1.0\n");
  EXPECT_THROW(TraceSet::load_csv(bad_hex), std::runtime_error);
}

}  // namespace
}  // namespace psc::core
