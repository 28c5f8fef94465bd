// Storage for the edge-sized arrays: an allocator whose vectors skip the
// zero fill and whose large blocks sit on huge pages.
//
// A fresh edge array costs two things that the pass filling it does not
// need from std::vector:
//  - resize(n) value-initializes every new element on the calling thread
//    before that pass overwrites it, so the zero fill and every
//    first-touch page fault land on one thread.  BigArrayAllocator's
//    construct(p) default-initializes instead, so the (parallel) pass
//    that writes the array is the one that first-touches it.
//    assign(n, v) and resize(n, v) still write v.
//  - each 4 KB page costs a fault.  A block of at least one huge page
//    is mapped on its own at a huge-page-aligned address, and its whole
//    huge pages are advised MADV_HUGEPAGE; the tail below one huge page
//    stays on base pages, so rounding never grows the resident set.  The
//    advice is a hint: whether the kernel backs it depends on the host's
//    THP mode and free memory, and a failed madvise is ignored.  The
//    block is unmapped on free.  Smaller blocks come from operator new.
//
// Builds without NDEBUG fill every default-initialized element with the
// byte kBigArrayPoison, so a pass that reads an element it never wrote
// computes garbage that the bit-identity tests catch, where a zero fill
// would hide it.  Under TSan every block comes from operator new, so the
// sanitizer keeps its shadow on these arrays.  Under ASan a BigVector is
// a plain std::vector: libstdc++ annotates only std::allocator's vectors,
// and those annotations report a read past size() into recycled capacity
// (the contraction's spare arrays keep such capacity).
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace commdet {

/// Size and alignment of one transparent huge page (x86-64, 4 KB base pages).
inline constexpr std::size_t kHugePageBytes = std::size_t{1} << 21;

/// Whether blocks of at least kHugePageBytes are mapped on their own.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kBigArrayMapsBlocks = false;
#else
inline constexpr bool kBigArrayMapsBlocks = true;
#endif

/// The byte a default-initialized element holds in builds without NDEBUG.
inline constexpr unsigned char kBigArrayPoison = 0xA5;

namespace detail {

/// Whether a block of `bytes` is mapped on its own (else operator new).
[[nodiscard]] constexpr bool big_block_is_mapped(std::size_t bytes) noexcept {
  return kBigArrayMapsBlocks && bytes >= kHugePageBytes;
}

/// Bytes from a mapped block's (huge-page-aligned) start that are
/// advised MADV_HUGEPAGE: its whole huge pages.
[[nodiscard]] constexpr std::size_t huge_page_advice_bytes(std::size_t bytes) noexcept {
  return bytes & ~(kHugePageBytes - 1);
}

/// Maps `bytes` at a huge-page-aligned address and advises its whole
/// huge pages.  Throws std::bad_alloc when the mapping fails.
[[nodiscard]] inline void* map_big_block(std::size_t bytes) {
  static const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const std::uintptr_t length = (bytes + page - 1) & ~(page - 1);
  void* raw = mmap(nullptr, length + kHugePageBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  // Trim the over-allocation on both sides of the aligned block.
  const auto lo = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t at = (lo + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  if (at > lo) munmap(raw, at - lo);
  munmap(reinterpret_cast<void*>(at + length), lo + kHugePageBytes - at);
  auto* block = reinterpret_cast<void*>(at);
  (void)madvise(block, huge_page_advice_bytes(bytes), MADV_HUGEPAGE);
  return block;
}

}  // namespace detail

/// Allocator of the edge-sized arrays (see the file comment).  Stateless;
/// T must be trivially copyable, since elements start out with no value.
template <class T>
struct BigArrayAllocator {
  static_assert(std::is_trivially_copyable_v<T>, "BigArrayAllocator holds trivial data only");
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  using value_type = T;

  BigArrayAllocator() noexcept = default;
  template <class U>
  BigArrayAllocator(const BigArrayAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) throw std::bad_array_new_length();
    const std::size_t bytes = n * sizeof(T);
    if (detail::big_block_is_mapped(bytes)) return static_cast<T*>(detail::map_big_block(bytes));
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (detail::big_block_is_mapped(bytes)) {
      munmap(p, bytes);
    } else {
      ::operator delete(p, bytes);
    }
  }

  /// Default-initializes: the element keeps whatever the block held
  /// (poison bytes in builds without NDEBUG).
  template <class U>
  void construct(U* p) noexcept {
    [[maybe_unused]] U* made = ::new (static_cast<void*>(p)) U;
#ifndef NDEBUG
    std::memset(static_cast<void*>(made), kBigArrayPoison, sizeof(U));
#endif
  }

  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const BigArrayAllocator&, const BigArrayAllocator&) noexcept {
    return true;
  }
};

/// A vector of an edge-sized array: resize(n) leaves the new elements
/// for the pass that sized it to write (except under ASan, see above).
#ifdef __SANITIZE_ADDRESS__
template <class T>
using BigVector = std::vector<T>;
#else
template <class T>
using BigVector = std::vector<T, BigArrayAllocator<T>>;
#endif

}  // namespace commdet
