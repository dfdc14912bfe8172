// Refcounted read-only bytes of one PSTR file, shared across readers.
//
// Every TraceFileReader reads through one of these. The bus daemon serves
// many concurrent jobs over one dataset, so it opens the file once as a
// SharedMapping and builds each job's (and each shard's) reader over the
// same bytes: one mapping, one page-cache working set, any number of
// single-threaded readers on top. The handle is handed around as
// shared_ptr<const SharedMapping>; the bytes unmap when the last reader
// and the registry drop it.
//
// The file is mmap'ed when it can be. When mmap fails, or under
// PSC_NO_MMAP=1, the whole file is read into one heap buffer instead —
// still a single shared copy, so the sharing contract survives the
// fallback, but resident memory is then the whole file. Both flavors
// give an 8-aligned base (page or operator new alignment), which the
// reader's zero-copy chunk views rely on.
//
// The bytes are immutable after open(), so concurrent readers need no
// locking on the mapping itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace psc::store {

class SharedMapping {
 public:
  // Opens `path` and maps (or loads) its current contents. Throws
  // StoreError when the file cannot be opened or read, or is not a
  // regular file (a directory, a device).
  static std::shared_ptr<const SharedMapping> open(const std::string& path);

  ~SharedMapping();

  SharedMapping(const SharedMapping&) = delete;
  SharedMapping& operator=(const SharedMapping&) = delete;

  const std::string& path() const noexcept { return path_; }
  const std::byte* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  // True when the bytes are an mmap of the file (zero-copy reads); false
  // for the heap-loaded fallback.
  bool mmap_backed() const noexcept { return mapped_; }
  // Process-unique id, assigned at open() and never reused. Caches keyed
  // by mapping cannot key on the pointer — a mapping closed and reopened
  // can land at the same address — so this is the stable dataset key for
  // anything that outlives an individual reader (store::ChunkCache).
  std::uint64_t id() const noexcept { return id_; }

 private:
  SharedMapping() = default;

  std::string path_;
  std::uint64_t id_ = 0;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<std::byte> heap_;  // fallback storage when not mapped
};

}  // namespace psc::store
