// trace_convert: the dataset toolbox for the PSTR trace store. Converts
// captures between the two persistence formats — CSV (human-readable,
// interchange) and PSTR (chunked binary, CRC-checked, out-of-core
// replay) — and inspects store files without loading them.
//
//   trace_convert info     <file.pstr>
//   trace_convert csv2pstr <in.csv>  <out.pstr> [chunk_rows]
//   trace_convert pstr2csv <in.pstr> <out.csv>
//   trace_convert compact  <in.pstr> <out.pstr> [chunk_rows]
//   trace_convert verify   <file.pstr>
//   trace_convert cat      <file.pstr> [begin [count]]
//
// Both conversions are value-exact: CSV cells use shortest-round-trip
// float formatting and PSTR stores raw IEEE-754 doubles, so
// csv -> pstr -> csv and pstr -> csv -> pstr reproduce the same bits.
// pstr2csv streams batch by batch through core::TraceCsvWriter, so
// converting a file larger than RAM is fine; csv2pstr currently loads
// the CSV through core::TraceSet.
//
// compact rewrites any readable store as a version-2 file with the
// delta_bitpack codec requested on every channel (chunks that do not
// compress stay identity — the output always round-trips bit-exactly);
// verify walks every chunk, CRC-checking and decoding it, and exits
// non-zero on the first corruption; cat streams a trace range to stdout
// in the pstr2csv format. All three stream out-of-core. A chunk size,
// begin or count that is not a decimal integer is a usage error (exit 2).
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/trace.h"
#include "store/dataset_summary.h"
#include "store/file_trace_source.h"
#include "store/trace_file_writer.h"

#include "cli_args.h"

namespace {

int usage() {
  std::cerr << "usage:\n"
               "  trace_convert info     <file.pstr>\n"
               "  trace_convert csv2pstr <in.csv>  <out.pstr> [chunk_rows]\n"
               "  trace_convert pstr2csv <in.pstr> <out.csv>\n"
               "  trace_convert compact  <in.pstr> <out.pstr> [chunk_rows]\n"
               "  trace_convert verify   <file.pstr>\n"
               "  trace_convert cat      <file.pstr> [begin [count]]\n";
  return 2;
}

int cmd_info(const std::string& path) {
  using namespace psc;
  store::TraceFileReader reader(path);
  // The shared summary (store/dataset_summary.h) is what the bus daemon
  // serves for `psc_busctl datasets` — same struct, same formatter, so
  // local and daemon-side views of a dataset print identically. It walks
  // chunk headers and column directories only; per-column codec,
  // raw/stored bytes and compression ratios come without decoding a
  // single payload byte.
  const store::DatasetSummary summary = store::summarize_dataset(reader);
  print_dataset_summary(std::cout, summary);
  std::cout << "reader      : " << (reader.mapped() ? "mmap" : "heap")
            << "\n";
  if (reader.chunk_count() > 0) {
    const std::size_t last = reader.chunk_count() - 1;
    std::cout << "last chunk  : " << reader.chunk_rows(last)
              << " traces at row " << reader.chunk_row_begin(last) << "\n";
  }
  return 0;
}

int cmd_csv2pstr(const std::string& in_path, const std::string& out_path,
                 std::size_t chunk_rows) {
  using namespace psc;
  std::ifstream in(in_path);
  if (!in) {
    std::cerr << "cannot open " << in_path << "\n";
    return 1;
  }
  const core::TraceSet set = core::TraceSet::load_csv(in);
  store::TraceFileWriter writer(out_path,
                                {.channels = set.keys(),
                                 .chunk_capacity = chunk_rows,
                                 .metadata = {{"source", in_path}}});
  writer.append(set);
  writer.finalize();
  std::cout << "wrote " << set.size() << " traces ("
            << set.keys().size() << " channels) -> " << out_path << "\n";
  return 0;
}

// Streams every row `source` has left as trace CSV, one bounded batch at
// a time: resident memory stays one batch, whatever the file size.
void write_csv(psc::store::FileTraceSource& source, std::ostream& out,
               std::optional<std::size_t> first_row) {
  using namespace psc;
  core::TraceCsvWriter csv(out, source.keys(), first_row);
  core::TraceBatch batch;
  batch.reset_channels(source.keys().size());
  while (source.remaining().value() > 0) {
    batch.resize(std::min<std::size_t>(4096, source.remaining().value()));
    source.collect_batch(batch);
    csv.write(batch);
  }
}

int cmd_pstr2csv(const std::string& in_path, const std::string& out_path) {
  using namespace psc;
  store::FileTraceSource source(in_path);
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  write_csv(source, out, std::nullopt);
  std::cout << "wrote " << source.reader().trace_count() << " traces ("
            << source.keys().size() << " channels) -> " << out_path << "\n";
  return 0;
}

int cmd_compact(const std::string& in_path, const std::string& out_path,
                std::size_t chunk_rows) {
  using namespace psc;
  store::TraceFileReader reader(in_path);
  store::TraceFileWriter writer(
      out_path,
      {.channels = reader.channels(),
       .chunk_capacity = chunk_rows ? chunk_rows : reader.chunk_capacity(),
       .metadata = reader.metadata(),
       .channel_codecs = store::uniform_channel_codecs(
           reader.channels().size(), store::ColumnCodec::delta_bitpack)});
  core::TraceBatch batch;
  batch.reset_channels(reader.channels().size());
  for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
    batch.clear();
    reader.chunk(i).append_to(batch);
    writer.append(batch);
  }
  writer.finalize();

  store::TraceFileReader out(out_path);
  const double file_ratio = out.file_bytes() > 0
                                ? static_cast<double>(reader.file_bytes()) /
                                      static_cast<double>(out.file_bytes())
                                : 0.0;
  const double channel_ratio =
      writer.channel_stored_bytes() > 0
          ? static_cast<double>(writer.channel_raw_bytes()) /
                static_cast<double>(writer.channel_stored_bytes())
          : 0.0;
  std::cout << "compacted " << reader.trace_count() << " traces (v"
            << reader.format_version() << " -> v" << out.format_version()
            << ") " << reader.file_bytes() << " -> " << out.file_bytes()
            << " bytes\n"
            << std::fixed << std::setprecision(2)  //
            << "file ratio  : " << file_ratio << "x\n"
            << "chan ratio  : " << channel_ratio << "x ("
            << writer.channel_raw_bytes() << " -> "
            << writer.channel_stored_bytes() << " channel bytes)\n";
  return 0;
}

int cmd_verify(const std::string& path) {
  using namespace psc;
  try {
    store::TraceFileReader reader(path);
    std::uint64_t rows = 0;
    // chunk() decodes every column and checks the payload CRC, so this
    // walk exercises exactly the bytes a replay campaign would consume.
    for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
      rows += reader.chunk(i).rows();
    }
    if (rows != reader.trace_count()) {
      std::cerr << "verify FAILED: " << path << ": chunk rows " << rows
                << " != trace count " << reader.trace_count() << "\n";
      return 1;
    }
    std::cout << "OK: " << path << " v" << reader.format_version() << ", "
              << reader.trace_count() << " traces in "
              << reader.chunk_count() << " chunks, "
              << reader.channels().size() << " channels\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "verify FAILED: " << e.what() << "\n";
    return 1;
  }
}

int cmd_cat(const std::string& path, std::size_t begin, std::size_t count) {
  using namespace psc;
  store::FileTraceSource source(path, begin, count);
  write_csv(source, std::cout, begin);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return usage();
  }
  const std::string command = argv[1];
  try {
    if (command == "info" && argc == 3) {
      return cmd_info(argv[2]);
    }
    if (command == "csv2pstr" && (argc == 4 || argc == 5)) {
      const std::size_t chunk_rows =
          argc == 5 ? psc::cli::parse_u64("chunk_rows", argv[4]) : 4096;
      return cmd_csv2pstr(argv[2], argv[3], chunk_rows);
    }
    if (command == "pstr2csv" && argc == 4) {
      return cmd_pstr2csv(argv[2], argv[3]);
    }
    if (command == "compact" && (argc == 4 || argc == 5)) {
      const std::size_t chunk_rows =
          argc == 5 ? psc::cli::parse_u64("chunk_rows", argv[4]) : 0;
      return cmd_compact(argv[2], argv[3], chunk_rows);
    }
    if (command == "verify" && argc == 3) {
      return cmd_verify(argv[2]);
    }
    if (command == "cat" && argc >= 3 && argc <= 5) {
      const std::size_t begin =
          argc >= 4 ? psc::cli::parse_u64("begin", argv[3]) : 0;
      const std::size_t count =
          argc == 5 ? psc::cli::parse_u64("count", argv[4])
                    : std::numeric_limits<std::size_t>::max();
      return cmd_cat(argv[2], begin, count);
    }
  } catch (const psc::cli::UsageError& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
