// Concurrent partition bookkeeping for a hybrid loop (the structure `A`
// initialized by Algorithm 1 line 1): the claim flags, held by
// claim_bitmap_core (one bit per partition, packed 64 to a cacheline-
// padded word, one fetch_or per claim), plus the arithmetic that maps
// partitions to iteration sub-ranges.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/claim_bitmap_core.h"
#include "util/bits.h"
#include "verify/sync.h"

namespace hls::core {

struct iter_range {
  std::int64_t begin = 0;
  std::int64_t end = 0;  // exclusive
  std::int64_t size() const noexcept { return end - begin; }
  bool empty() const noexcept { return begin >= end; }
};

// Piece k of [begin, end) split into `pieces` balanced pieces: the first
// (end - begin) mod pieces pieces carry one extra iteration. The split of
// static blocks and of unweighted partitions, in the runtime and the
// simulator alike. The remainder compare stays in int64: a 32-bit compare
// truncates for N > 2^32 and mis-sizes the boundary pieces (the
// N = 2^32 + 3 case in huge_n_test.cpp).
constexpr iter_range balanced_range(std::int64_t begin, std::int64_t end,
                                    std::uint64_t pieces,
                                    std::uint64_t k) noexcept {
  const auto p = static_cast<std::int64_t>(pieces);
  const auto ki = static_cast<std::int64_t>(k);
  const std::int64_t base = (end - begin) / p;
  const std::int64_t rem = (end - begin) % p;
  const std::int64_t lo = begin + ki * base + std::min(ki, rem);
  return {lo, lo + base + (ki < rem ? 1 : 0)};
}

class partition_set {
 public:
  // Divides [begin, end) into next_pow2(max(num_partitions, 1)) equal-sized
  // partitions. `num_partitions` is normally the worker count P; when P is
  // not a power of two the set is rounded up and the extra partitions are
  // unassociated with any worker (paper Section III).
  partition_set(std::int64_t begin, std::int64_t end,
                std::uint32_t num_partitions);

  // Weighted variant (paper Section VI extension): partition boundaries
  // equalize the per-iteration weight sums instead of iteration counts, so
  // an annotated unbalanced loop starts from balanced earmarked partitions.
  // The claim heuristic is unchanged.
  partition_set(std::int64_t begin, std::int64_t end,
                std::uint32_t num_partitions,
                const std::function<double(std::int64_t)>& weight);

  std::uint64_t count() const noexcept { return claims_.count(); }  // R
  std::uint64_t log2_count() const noexcept { return lg_r_; }    // lg R
  std::int64_t begin() const noexcept { return begin_; }
  std::int64_t end() const noexcept { return end_; }

  // Iteration sub-range of partition r: the weighted boundaries, or
  // balanced_range's piece r of R.
  iter_range range(std::uint64_t r) const noexcept;

  // Atomically claims partition r; returns true if this call won the claim
  // (the fetch_and_or of Algorithm 2 line 5 succeeded).
  bool try_claim(std::uint64_t r) noexcept { return !claims_.test_and_set(r); }

  // Non-destructive peek used by the DoHybridLoop steal protocol: a thief
  // checks whether its designated partition is still available before
  // entering the loop.
  bool is_claimed(std::uint64_t r) const noexcept {
    return claims_.is_claimed(r);
  }

  // Number of partitions claimed so far / whether all are claimed.
  std::uint64_t claimed_count() const noexcept {
    return claims_.claimed_count();
  }
  bool all_claimed() const noexcept { return claims_.all_claimed(); }

  // Number of 64-partition blocks (ceil(R / 64)).
  std::uint64_t block_count() const noexcept { return claims_.block_count(); }

  // Atomically claims every still-unclaimed partition in 64-partition
  // block `b` (partitions [64b, min(64b+64, R))). Returns the mask of
  // partitions won by THIS call, bit i = partition 64b + i: one fetch_or
  // for the whole block, preceded by a load that skips a fully-claimed
  // block without an RMW.
  std::uint64_t claim_block(std::uint64_t b) noexcept {
    return claims_.claim_block(b);
  }

  // Adapter satisfying core::claim_flags so run_claim_loop drives this set.
  struct flags_adapter {
    partition_set& set;
    bool test_and_set(std::uint64_t r) noexcept { return !set.try_claim(r); }
  };
  flags_adapter flags() noexcept { return flags_adapter{*this}; }

 private:
  std::int64_t begin_;
  std::int64_t end_;
  claim_bitmap_core<sync::real_traits> claims_;  // R flags
  std::uint64_t lg_r_;
  std::vector<std::int64_t> weighted_bounds_;  // R+1 entries when weighted
};

}  // namespace hls::core
