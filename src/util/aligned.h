// Cache-line / vector-register aligned storage.
//
// The analysis accumulators (CpaEngine histograms, striped moment sums)
// are written millions of times per second from worker-pool threads; each
// shard's accumulators live in their own allocations, and aligning those
// allocations to the cache line guarantees (a) no two shards' hot state
// ever share a line (false sharing) and (b) the SIMD kernels in
// util/simd.h see vector-register-aligned rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

namespace psc::util {

inline constexpr std::size_t cache_line_bytes = 64;

// Minimal C++17 aligned allocator: every allocation starts on an
// `Alignment`-byte boundary.
template <typename T, std::size_t Alignment = cache_line_bytes>
struct AlignedAllocator {
  using value_type = T;

  static_assert(Alignment >= alignof(T),
                "AlignedAllocator: alignment below the type's own");
  static_assert((Alignment & (Alignment - 1)) == 0,
                "AlignedAllocator: alignment must be a power of two");

  AlignedAllocator() noexcept = default;
  template <typename U>
  explicit AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  // Over-allocates through the plain operator new and aligns by hand,
  // keeping the block's own address just below the aligned one. The
  // aligned operator new is glibc memalign, which splits small leading
  // and trailing fragments off each block; with the churn of histogram
  // copies that campaign checkpoints make on several threads, those
  // fragments kept megabytes of freed memory resident in the per-thread
  // arenas.
  T* allocate(std::size_t n) {
    constexpr std::size_t overhead = Alignment + sizeof(void*);
    if (n > (static_cast<std::size_t>(-1) - overhead) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    void* block = ::operator new(n * sizeof(T) + overhead);
    const std::uintptr_t aligned =
        (reinterpret_cast<std::uintptr_t>(block) + overhead - 1) &
        ~std::uintptr_t{Alignment - 1};
    std::memcpy(reinterpret_cast<void*>(aligned - sizeof(void*)), &block,
                sizeof block);
    return reinterpret_cast<T*>(aligned);
  }
  void deallocate(T* p, std::size_t) noexcept {
    void* block = nullptr;
    std::memcpy(&block, reinterpret_cast<const std::byte*>(p) - sizeof block,
                sizeof block);
    ::operator delete(block);
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

// std::vector whose data() is cache-line aligned.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace psc::util
