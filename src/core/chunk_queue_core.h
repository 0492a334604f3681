// The central cursor of the self-scheduling policies, as a protocol core:
// a header template over the synchronization traits. OpenMP's dynamic and
// guided schedules are one queue that differs only in its chunk-size rule:
// a fixed chunk, or max(min_chunk, remaining / (2 P)).
//
// The cursor counts the iterations handed out so far, 0 to N = end -
// begin. A take reads it, sizes its chunk from the value it read, and
// claims the chunk with one fetch_add, which cannot fail: the chunk is
// [lo, min(lo + size, N)) at whatever lo the add returns, so the chunks
// tile [begin, end) and each iteration is handed out exactly once. A
// drained queue answers with the read alone.
//
// When other takes move the cursor between the read and the add, a guided
// chunk is sized from a cursor behind its own and can exceed the rule at
// its lo; it is never larger than the first chunk, whose remainder is N.
// A fixed chunk is the same chunk either way. A lone taker always reads
// the cursor its last add left, so its chunk sequence is exactly the
// rule's, which is what the single-threaded simulator sees.
//
// No chunk or min_chunk overflows the take. Sizes are unsigned and capped
// at the remainder read, at most N <= INT64_MAX (parallel_for's n), and
// at cap = (2^64 - 1 - N) / (p + 1). With at most p takers the cursor
// cannot wrap: an add that starts below N ends below N + cap, and each
// taker makes at most one add that starts at or past N, because its next
// read sees at least what that add left. The cap binds only for N above
// (2^64 - 1) / (p + 2) iterations.
//
// Template parameters:
//   Traits — synchronization traits (verify/sync.h): sync::real_traits in
//            core::chunk_queue (the runtime's queue_record and the DES),
//            verify_traits in the chunk-queue model.
//   Policy — protocol-variant knobs; shipping code always uses
//            chunk_queue_policy_default (see verify_test.cpp for why the
//            broken variant exists).
#pragma once

#include <algorithm>
#include <atomic>  // std::memory_order (the traits' atomics share its enum)
#include <cstdint>
#include <limits>

#include "core/partition_set.h"
#include "util/cacheline.h"

namespace hls::core {

// atomic_rmw: a take claims its chunk with one fetch_add. Disabling it
// makes the claim a store of the cursor the take read, advanced: two
// takers can then read the same cursor and both hand out the chunk at it
// (caught by the chunk-queue-broken-nonatomic model).
struct chunk_queue_policy_default {
  static constexpr bool atomic_rmw = true;
};

struct chunk_queue_policy_nonatomic {
  static constexpr bool atomic_rmw = false;
};

template <typename Traits, typename Policy = chunk_queue_policy_default>
class chunk_queue_core {
  template <typename U>
  using atomic_t = typename Traits::template atomic<U>;

 public:
  // Hands out [begin, end), end - begin <= INT64_MAX. chunk > 0 selects
  // fixed chunks of that size; chunk == 0 selects guided chunks of
  // max(min_chunk, remaining / (2 p)). At most p threads take from one
  // queue (the runtime's workers).
  chunk_queue_core(std::int64_t begin, std::int64_t end, std::int64_t chunk,
                   std::int64_t min_chunk, std::uint32_t p) noexcept
      : begin_(begin),
        end_(std::max(begin, end)),
        n_(static_cast<std::uint64_t>(end_) -
           static_cast<std::uint64_t>(begin_)),
        chunk_(static_cast<std::uint64_t>(std::max<std::int64_t>(chunk, 0))),
        min_chunk_(
            static_cast<std::uint64_t>(std::max<std::int64_t>(min_chunk, 1))),
        two_p_(2 * std::uint64_t{p == 0 ? 1 : p}),
        cap_((std::numeric_limits<std::uint64_t>::max() - n_) /
             (std::uint64_t{p == 0 ? 1 : p} + 1)),
        next_(0) {}

  chunk_queue_core(const chunk_queue_core&) = delete;
  chunk_queue_core& operator=(const chunk_queue_core&) = delete;

  // The next chunk, empty once the queue has drained.
  iter_range take() noexcept {
    const std::uint64_t seen = next_.load(std::memory_order_acquire);
    if (seen >= n_) return {end_, end_};
    const std::uint64_t rest = n_ - seen;
    const std::uint64_t rule =
        chunk_ > 0 ? chunk_ : std::max(min_chunk_, rest / two_p_);
    const std::uint64_t size = std::min({rule, rest, cap_});
    const std::uint64_t lo = claim(seen, size);
    if (lo >= n_) return {end_, end_};
    return {at(lo), at(std::min(lo + size, n_))};
  }

  // Everything not yet handed out, in one exchange: the prompt stop of a
  // cancelled, timed-out or failed loop. The rest is disjoint from every
  // chunk taken before, and every later take() is empty, so each
  // iteration is still handed out exactly once.
  iter_range take_rest() noexcept {
    const std::uint64_t lo = next_.exchange(n_, std::memory_order_acq_rel);
    return lo >= n_ ? iter_range{end_, end_} : iter_range{at(lo), end_};
  }

 private:
  // Claims `size` iterations at the cursor; returns where they start.
  std::uint64_t claim(std::uint64_t seen, std::uint64_t size) noexcept {
    if constexpr (Policy::atomic_rmw) {
      return next_.fetch_add(size, std::memory_order_acq_rel);
    } else {
      next_.store(seen + size, std::memory_order_release);
      return seen;
    }
  }

  // The iteration `off` iterations past begin, for off <= N.
  std::int64_t at(std::uint64_t off) const noexcept {
    return begin_ + static_cast<std::int64_t>(off);
  }

  const std::int64_t begin_;
  const std::int64_t end_;
  const std::uint64_t n_;
  const std::uint64_t chunk_;  // 0 selects the guided rule
  const std::uint64_t min_chunk_;
  const std::uint64_t two_p_;
  const std::uint64_t cap_;
  alignas(kCacheLine) atomic_t<std::uint64_t> next_;
};

}  // namespace hls::core
