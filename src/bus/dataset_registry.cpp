#include "bus/dataset_registry.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "store/chunk_cache.h"
#include "store/trace_file_reader.h"

namespace psc::bus {

namespace {

// Sorted-vector lookup keeps list() allocation-free of surprises and the
// registry deterministic; registries hold a handful of datasets, so
// binary search vs hash is irrelevant.
template <typename Vec>
auto find_entry(Vec& datasets, const std::string& name) {
  const auto it = std::lower_bound(
      datasets.begin(), datasets.end(), name,
      [](const auto& entry, const std::string& n) { return entry.first < n; });
  return it != datasets.end() && it->first == name ? it : datasets.end();
}

}  // namespace

void DatasetRegistry::set_chunk_cache(
    std::shared_ptr<store::ChunkCache> cache) {
  std::lock_guard<std::mutex> lock(mu_);
  chunk_cache_ = std::move(cache);
}

void DatasetRegistry::open(const std::string& name, const std::string& path) {
  if (name.empty()) {
    throw std::invalid_argument("DatasetRegistry: empty dataset name");
  }
  // Map and summarize outside the lock: opening a cold file does disk
  // I/O and must not stall list()/mapping() calls from other sessions.
  // The mapping keeps the absolute path, so a client in another working
  // directory can open the file the listing names.
  std::shared_ptr<const store::SharedMapping> mapping =
      store::SharedMapping::open(
          path.empty() ? path : std::filesystem::absolute(path).string());
  store::TraceFileReader reader(mapping);
  store::DatasetSummary summary = store::summarize_dataset(reader);

  std::lock_guard<std::mutex> lock(mu_);
  if (find_entry(datasets_, name) != datasets_.end()) {
    throw std::invalid_argument("DatasetRegistry: name already registered: " +
                                name);
  }
  const auto at = std::lower_bound(
      datasets_.begin(), datasets_.end(), name,
      [](const auto& entry, const std::string& n) { return entry.first < n; });
  datasets_.insert(at, {name, Dataset{std::move(mapping),
                                      std::move(summary)}});
}

std::shared_ptr<const store::SharedMapping> DatasetRegistry::mapping(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = find_entry(datasets_, name);
  return it == datasets_.end() ? nullptr : it->second.mapping;
}

std::unique_ptr<store::DatasetSummary> DatasetRegistry::summary(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = find_entry(datasets_, name);
  if (it == datasets_.end()) {
    return nullptr;
  }
  return std::make_unique<store::DatasetSummary>(it->second.summary);
}

std::vector<DatasetRegistry::Entry> DatasetRegistry::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  out.reserve(datasets_.size());
  for (const auto& [name, dataset] : datasets_) {
    out.push_back({name, dataset.summary});
  }
  return out;
}

bool DatasetRegistry::close(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = find_entry(datasets_, name);
  if (it == datasets_.end()) {
    return false;
  }
  if (chunk_cache_ != nullptr && it->second.mapping != nullptr) {
    chunk_cache_->drop_dataset(it->second.mapping->id());
  }
  datasets_.erase(it);
  return true;
}

std::size_t DatasetRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return datasets_.size();
}

}  // namespace psc::bus
