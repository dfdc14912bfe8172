#include "core/trace.h"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/csv.h"
#include "util/hex.h"

namespace psc::core {

void TraceSet::add(TraceRecord record) {
  if (record.values.size() != keys_.size()) {
    throw std::invalid_argument("TraceSet::add: value count mismatch");
  }
  batch_.append(record.plaintext, record.ciphertext, record.values);
}

void TraceSet::append(const TraceBatch& batch) {
  batch_.append(batch);
}

std::optional<std::size_t> TraceSet::key_index(
    util::FourCc key) const noexcept {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) {
      return i;
    }
  }
  return std::nullopt;
}

std::span<const double> TraceSet::column(std::size_t key_idx) const {
  return batch_.column(key_idx);
}

TraceCsvWriter::TraceCsvWriter(std::ostream& out,
                               const std::vector<util::FourCc>& keys,
                               std::optional<std::size_t> first_row)
    : csv_(out), next_row_(first_row) {
  std::vector<std::string> header;
  if (next_row_) {
    header.push_back("row");
  }
  header.push_back("plaintext");
  header.push_back("ciphertext");
  for (const util::FourCc key : keys) {
    header.push_back(key.str());
  }
  csv_.row(header);
}

void TraceCsvWriter::write(const TraceBatch& batch) {
  const auto pts = batch.plaintexts();
  const auto cts = batch.ciphertexts();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto row = csv_.start_row();
    if (next_row_) {
      row.cell(std::to_string((*next_row_)++));
    }
    row.cell(util::to_hex(pts[i]));
    row.cell(util::to_hex(cts[i]));
    for (std::size_t c = 0; c < batch.channels(); ++c) {
      row.cell(util::format_double_exact(batch.column(c)[i]));
    }
    row.done();
  }
}

TraceSet TraceSet::load_csv(std::istream& in) {
  util::CsvReader csv(in);
  std::vector<std::string> cells;
  if (!csv.next_record(cells)) {
    throw std::runtime_error("TraceSet::load_csv: empty input");
  }
  if (cells.size() < 2 || cells[0] != "plaintext" || cells[1] != "ciphertext") {
    throw std::runtime_error("TraceSet::load_csv: bad header");
  }
  std::vector<util::FourCc> keys;
  for (std::size_t i = 2; i < cells.size(); ++i) {
    const auto key = util::FourCc::parse(cells[i]);
    if (!key) {
      throw std::runtime_error("TraceSet::load_csv: bad key name " +
                               cells[i]);
    }
    keys.push_back(*key);
  }

  TraceSet set(keys);
  std::vector<double> values;
  while (csv.next_record(cells)) {
    if (cells.size() == 1 && cells[0].empty()) {
      continue;  // blank line
    }
    aes::Block plaintext{};
    aes::Block ciphertext{};
    values.clear();
    for (std::size_t col = 0; col < cells.size(); ++col) {
      if (col == 0) {
        if (!util::from_hex_exact(cells[col], plaintext)) {
          throw std::runtime_error("TraceSet::load_csv: bad plaintext hex");
        }
      } else if (col == 1) {
        if (!util::from_hex_exact(cells[col], ciphertext)) {
          throw std::runtime_error("TraceSet::load_csv: bad ciphertext hex");
        }
      } else {
        values.push_back(std::stod(cells[col]));
      }
    }
    if (values.size() != keys.size()) {
      throw std::invalid_argument("TraceSet::load_csv: value count mismatch");
    }
    set.batch_.append(plaintext, ciphertext, values);
  }
  return set;
}

}  // namespace psc::core
