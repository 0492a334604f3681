// Cache-line alignment utilities for contended per-worker state.
#pragma once

#include <cstddef>
#include <new>

namespace hls {

// Fixed 64 B rather than std::hardware_destructive_interference_size so that
// layouts (and thus the memsim's modelled line size) are identical across
// toolchains.
inline constexpr std::size_t kCacheLine = 64;

// Wraps a value in its own cache line so adjacent array elements never share
// a line. Used for the hybrid claim flags' 64-partition words and per-worker
// counters.
template <typename T>
struct alignas(kCacheLine) padded {
  T value{};

  padded() = default;
  explicit padded(const T& v) : value(v) {}

  T& operator*() noexcept { return value; }
  const T& operator*() const noexcept { return value; }
  T* operator->() noexcept { return &value; }
  const T* operator->() const noexcept { return &value; }
};

static_assert(alignof(padded<int>) == kCacheLine);
static_assert(sizeof(padded<char>) == kCacheLine);

}  // namespace hls
