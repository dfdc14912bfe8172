#include "store/shared_mapping.h"

#include <atomic>
#include <cerrno>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "store/pstr_format.h"
#include "util/env.h"

namespace psc::store {

namespace {

// Closes the descriptor on every exit from open(), throwing ones included.
struct FdGuard {
  int fd;
  ~FdGuard() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
};

}  // namespace

std::shared_ptr<const SharedMapping> SharedMapping::open(
    const std::string& path) {
  // shared_ptr with a custom-constructible target: the constructor is
  // private, so go through a local subclass-free allocation.
  static std::atomic<std::uint64_t> next_id{1};
  std::shared_ptr<SharedMapping> mapping(new SharedMapping());
  mapping->path_ = path;
  mapping->id_ = next_id.fetch_add(1, std::memory_order_relaxed);

  // One descriptor answers every question: what the file is, how big it
  // is, and its bytes — so a directory or device is rejected up front
  // instead of being sized as a huge stream and allocated.
  const FdGuard file{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (file.fd < 0) {
    throw StoreError("PSTR " + path + ": cannot open file");
  }
  struct stat st {};
  if (::fstat(file.fd, &st) != 0) {
    throw StoreError("PSTR " + path + ": cannot stat file");
  }
  if (!S_ISREG(st.st_mode)) {
    throw StoreError("PSTR " + path + ": not a regular file");
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  mapping->size_ = size;

  if (!util::env_flag("PSC_NO_MMAP") && size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, file.fd, 0);
    if (map != MAP_FAILED) {
      mapping->data_ = static_cast<const std::byte*>(map);
      mapping->mapped_ = true;
      return mapping;
    }
  }

  // Heap fallback: one shared copy of the file.
  mapping->heap_.resize(size);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n =
        ::pread(file.fd, mapping->heap_.data() + done, size - done,
                static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      throw StoreError("PSTR " + path + ": short read loading file");
    }
    done += static_cast<std::size_t>(n);
  }
  mapping->data_ = mapping->heap_.data();
  return mapping;
}

SharedMapping::~SharedMapping() {
  if (mapped_) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
}

}  // namespace psc::store
