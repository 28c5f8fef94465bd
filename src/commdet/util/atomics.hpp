// Thin helpers over std::atomic_ref for lock-free access to plain arrays.
//
// std::atomic_ref (C++20) lets shared arrays stay plain std::vectors in
// the sequential parts of the code; the matcher reads mates concurrently
// with the claims that set them through atomic_load.  Counts and sums
// merge through chunk-private arrays instead (util/parallel.hpp).
#pragma once

#include <atomic>
#include <type_traits>

namespace commdet {

template <typename T>
  requires std::is_integral_v<T>
inline void atomic_store(T& location, T value,
                         std::memory_order order = std::memory_order_relaxed) noexcept {
  std::atomic_ref<T>(location).store(value, order);
}

template <typename T>
inline T atomic_load(const T& location,
                     std::memory_order order = std::memory_order_relaxed) noexcept {
  return std::atomic_ref<const T>(location).load(order);
}

template <typename T>
  requires std::is_integral_v<T>
inline bool atomic_cas(T& location, T& expected, T desired,
                       std::memory_order order = std::memory_order_acq_rel) noexcept {
  return std::atomic_ref<T>(location).compare_exchange_strong(expected, desired, order);
}

}  // namespace commdet
