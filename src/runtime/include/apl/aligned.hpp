// Cache-line / SIMD aligned storage.
//
// Dats and staging buffers are 64-byte aligned so that auto-vectorized
// loops and the simdev coalescing model see the alignment a real
// vectorized backend would arrange for.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace apl {

inline constexpr std::size_t kAlignment = 64;

/// Minimal aligned allocator for std::vector.
template <class T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = std::aligned_alloc(kAlignment, round_up(n * sizeof(T)));
    if (!p) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  static std::size_t round_up(std::size_t bytes) {
    return (bytes + kAlignment - 1) / kAlignment * kAlignment;
  }

  template <class U>
  bool operator==(const AlignedAllocator<U>&) const {
    return true;
  }
};

template <class T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

}  // namespace apl
