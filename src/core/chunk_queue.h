// The central cursor of the self-scheduling policies. OpenMP's dynamic and
// guided schedules are one queue that differs only in its chunk-size rule:
// a fixed chunk, or max(min_chunk, remaining / (2 P)). The threaded
// runtime's queue_record and the simulator's queue both take their chunks
// from this object; in the single-threaded simulator its atomics are
// plain, deterministic steps.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "core/partition_set.h"
#include "util/cacheline.h"

namespace hls::core {

class chunk_queue {
 public:
  // Hands out [begin, end). chunk > 0 selects fixed chunks of that size;
  // chunk == 0 selects guided chunks of max(min_chunk, remaining / (2 p)).
  chunk_queue(std::int64_t begin, std::int64_t end, std::int64_t chunk,
              std::int64_t min_chunk, std::uint32_t p) noexcept
      : end_(end),
        chunk_(chunk),
        min_chunk_(std::max<std::int64_t>(min_chunk, 1)),
        two_p_(2 * static_cast<std::int64_t>(p == 0 ? 1 : p)),
        next_(begin) {}

  // The next chunk, empty once the queue has drained. A fixed chunk is one
  // fetch_add; a guided chunk, whose size depends on the cursor it moves,
  // is a CAS loop.
  iter_range take() noexcept {
    if (chunk_ > 0) {
      const std::int64_t lo =
          next_.fetch_add(chunk_, std::memory_order_acq_rel);
      return {lo, std::min(lo + chunk_, end_)};
    }
    std::int64_t lo = next_.load(std::memory_order_acquire);
    std::int64_t hi;
    do {
      if (lo >= end_) return {lo, lo};
      hi = std::min(lo + std::max(min_chunk_, (end_ - lo) / two_p_), end_);
    } while (!next_.compare_exchange_weak(lo, hi, std::memory_order_acq_rel,
                                          std::memory_order_acquire));
    return {lo, hi};
  }

  // Everything not yet handed out, in one exchange: the prompt stop of a
  // cancelled, timed-out or failed loop. The rest is disjoint from every
  // chunk taken before, and every later take() is empty, so each
  // iteration is still handed out exactly once.
  iter_range take_rest() noexcept {
    return {next_.exchange(end_, std::memory_order_acq_rel), end_};
  }

 private:
  const std::int64_t end_;
  const std::int64_t chunk_;  // 0 selects the guided rule
  const std::int64_t min_chunk_;
  const std::int64_t two_p_;
  alignas(kCacheLine) std::atomic<std::int64_t> next_;
};

}  // namespace hls::core
