// Trace records and sets: what the attacker logs per measurement window —
// the chosen plaintext, the observed ciphertext and the SMC key values
// read right after the window (paper section 3.4).
//
// Storage is columnar: TraceSet is a thin wrapper over core::TraceBatch
// (one contiguous array per field, one contiguous value column per
// channel), so replay and offline analysis ingest whole columns without
// gathering. TraceRecord and the per-record add() path remain as thin
// conveniences over the batch core. CSV round-tripping (TraceCsvWriter,
// TraceSet::load_csv) uses shortest-round-trip float formatting so
// captures replay bit-identically.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "aes/aes128.h"
#include "core/trace_batch.h"
#include "util/csv.h"
#include "util/fourcc.h"

namespace psc::core {

// One logical trace in record (AoS) form — the convenience currency of
// tests and small captures; bulk paths use TraceBatch columns directly.
struct TraceRecord {
  aes::Block plaintext{};
  aes::Block ciphertext{};
  std::vector<double> values;  // aligned with TraceSet::keys()
};

class TraceSet {
 public:
  TraceSet() = default;
  explicit TraceSet(std::vector<util::FourCc> keys)
      : keys_(std::move(keys)), batch_(keys_.size()) {}

  const std::vector<util::FourCc>& keys() const noexcept { return keys_; }
  std::size_t size() const noexcept { return batch_.size(); }
  bool empty() const noexcept { return batch_.empty(); }

  // Appends a record; its value count must match keys().size(). Thin
  // wrapper over the columnar append.
  void add(TraceRecord record);

  // Bulk-appends every row of `batch` (channel count must match).
  void append(const TraceBatch& batch);

  // Row view into the columnar storage (no value copy).
  TraceBatch::ConstRow operator[](std::size_t i) const {
    return batch_.row(i);
  }

  // The columnar storage itself: replay sources and engines consume this.
  const TraceBatch& batch() const noexcept { return batch_; }

  // Index of a key's value column; nullopt if absent.
  std::optional<std::size_t> key_index(util::FourCc key) const noexcept;

  // All values of one key column — a zero-copy view into the column,
  // valid until the set is modified or destroyed.
  std::span<const double> column(std::size_t key_idx) const;

  // Reads the CSV a TraceCsvWriter without a row column writes.
  static TraceSet load_csv(std::istream& in);

 private:
  std::vector<util::FourCc> keys_;
  TraceBatch batch_;
};

// The trace CSV format, streamed batch by batch: header
// "plaintext,ciphertext,<KEY>..." then one row per trace with hex blocks
// and shortest-round-trip decimal values, so a reloaded capture feeds the
// analysis engines bit-identical values. With `first_row` set, a leading
// "row" column numbers the rows from it.
class TraceCsvWriter {
 public:
  // Writes the header; `out` must outlive the writer.
  TraceCsvWriter(std::ostream& out, const std::vector<util::FourCc>& keys,
                 std::optional<std::size_t> first_row = std::nullopt);

  // Appends every row of `batch`.
  void write(const TraceBatch& batch);

 private:
  util::CsvWriter csv_;
  std::optional<std::size_t> next_row_;
};

}  // namespace psc::core
