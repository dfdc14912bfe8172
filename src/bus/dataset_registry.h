// Named dataset registry: the daemon-side map from dataset name to one
// shared mmap of its PSTR file.
//
// Each file is opened exactly once (store::SharedMapping); every job —
// and every shard inside a job — builds its own cheap TraceFileReader
// over the same refcounted bytes, so N concurrent campaigns on one
// dataset share one mapping and one page-cache working set. The summary
// captured at open() comes from chunk headers and column directories
// only (store/dataset_summary.h), so listing never touches chunk data.
//
// Thread-safe: connection threads open/list concurrently with job
// threads resolving mappings. close() only drops the registry's
// reference — jobs holding the mapping keep the bytes alive until they
// finish.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "store/dataset_summary.h"
#include "store/shared_mapping.h"

namespace psc::store {
class ChunkCache;  // store/chunk_cache.h
}

namespace psc::bus {

class DatasetRegistry {
 public:
  // Attaches the daemon's shared decoded-chunk cache: close() then drops
  // the closed dataset's entries. Mapping ids are never reused, so this
  // only frees the bytes earlier — stale aliasing is impossible either
  // way.
  void set_chunk_cache(std::shared_ptr<store::ChunkCache> cache);

  // Opens `path` and registers it under `name`; a relative path is made
  // absolute against the current working directory, and the summary
  // reports that absolute path. Throws
  // std::invalid_argument when the name is taken and StoreError when the
  // file does not validate; a failed open registers nothing.
  void open(const std::string& name, const std::string& path);

  // The shared bytes for `name`, or nullptr when unknown.
  std::shared_ptr<const store::SharedMapping> mapping(
      const std::string& name) const;

  // Summary captured at open(), or nullptr when unknown. (Value copy:
  // the registry entry may be closed concurrently.)
  std::unique_ptr<store::DatasetSummary> summary(
      const std::string& name) const;

  // Name-sorted snapshot of everything registered.
  struct Entry {
    std::string name;
    store::DatasetSummary summary;
  };
  std::vector<Entry> list() const;

  // Drops the registry's reference; running jobs are unaffected. Returns
  // false when the name is unknown.
  bool close(const std::string& name);

  std::size_t size() const;

 private:
  struct Dataset {
    std::shared_ptr<const store::SharedMapping> mapping;
    store::DatasetSummary summary;
  };

  mutable std::mutex mu_;
  std::shared_ptr<store::ChunkCache> chunk_cache_;
  std::vector<std::pair<std::string, Dataset>> datasets_;  // name-sorted
};

}  // namespace psc::bus
