// Concurrent partition bookkeeping for a hybrid loop (the structure `A`
// initialized by Algorithm 1 line 1).
//
// Two storage modes behind one interface, selected by R:
//
//   R <  kBitmapThreshold  one claimed-flag per partition, padded to a
//                          cache line each so concurrent fetch_or
//                          operations from different workers never
//                          contend on a line.
//   R >= kBitmapThreshold  a packed bitmap of cacheline-padded 64-bit
//                          words, 64 partitions per word. A claim is
//                          still one fetch_or on the partition's bit —
//                          test_and_set semantics are bit-for-bit those
//                          of the per-partition flag, so Theorem 3
//                          (exactly-once) and Lemma 4 (lg R bound) carry
//                          over unchanged — while scans (is-anything-
//                          left, leftover sweeps) cover 64 partitions
//                          per load and the rescue sweep claims up to 64
//                          leftovers per RMW. At R = 2^20 this is 1 MB
//                          of flags instead of 64 MB.
//
// Plus the arithmetic that maps partitions to iteration sub-ranges.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/bits.h"
#include "util/cacheline.h"

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
  // R at or above this uses the packed-bitmap storage. 64 keeps every
  // sub-threshold set on the zero-false-sharing per-partition flags
  // (claim-rate-bound workloads have small R) and every bitmap set an
  // exact multiple of one word (R is rounded to a power of two).
  static constexpr std::uint64_t kBitmapThreshold = 64;

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

  std::uint64_t count() const noexcept { return r_; }            // R
  std::uint64_t log2_count() const noexcept { return lg_r_; }    // lg R
  std::int64_t begin() const noexcept { return begin_; }
  std::int64_t end() const noexcept { return end_; }

  // Iteration sub-range of partition r: the weighted boundaries, or
  // balanced_range's piece r of R.
  iter_range range(std::uint64_t r) const noexcept;

  // Atomically claims partition r; returns true if this call won the claim
  // (the fetch_and_or of Algorithm 2 line 5 succeeded).
  bool try_claim(std::uint64_t r) noexcept;

  // Non-destructive peek used by the DoHybridLoop steal protocol: a thief
  // checks whether its designated partition is still available before
  // entering the loop.
  bool is_claimed(std::uint64_t r) const noexcept;

  // Number of partitions claimed so far / whether all are claimed.
  std::uint64_t claimed_count() const noexcept;
  bool all_claimed() const noexcept;

  // True when the packed-bitmap storage is in use (R >= kBitmapThreshold).
  bool bitmap() const noexcept { return words_ != nullptr; }

  // Number of 64-partition blocks (ceil(R / 64)); the block/claim_block
  // API below is defined for both storage modes.
  std::uint64_t block_count() const noexcept { return (r_ + 63) >> 6; }

  // Atomically claims every still-unclaimed partition in 64-partition
  // block `b` (partitions [64b, min(64b+64, R))). Returns the mask of
  // partitions won by THIS call, bit i = partition 64b + i. In bitmap
  // mode this is one fetch_or for the whole block (preceded by a load
  // that skips fully-claimed blocks without an RMW); each won bit is an
  // individual test_and_set win, so exactly-once is untouched.
  std::uint64_t claim_block(std::uint64_t b) noexcept;

  // First unclaimed partition index >= from, or count() when none; skips
  // fully-claimed blocks one load at a time in bitmap mode.
  std::uint64_t next_unclaimed(std::uint64_t from) const noexcept;

  // Adapter satisfying core::claim_flags so run_claim_loop drives this set.
  struct flags_adapter {
    partition_set& set;
    bool test_and_set(std::uint64_t r) noexcept { return !set.try_claim(r); }
  };
  flags_adapter flags() noexcept { return flags_adapter{*this}; }

 private:
  // Valid-partition mask for block b (all-ones except a trailing partial
  // block, which cannot occur for pow2 R >= 64 but is handled anyway).
  std::uint64_t block_mask(std::uint64_t b) const noexcept {
    const std::uint64_t lo = b << 6;
    const std::uint64_t n = r_ - lo >= 64 ? 64 : r_ - lo;
    return n == 64 ? ~0ull : (1ull << n) - 1;
  }

  std::int64_t begin_;
  std::int64_t end_;
  std::uint64_t r_;
  std::uint64_t lg_r_;
  std::vector<std::int64_t> weighted_bounds_;  // R+1 entries when weighted
  // Exactly one of these is non-null: per-partition padded flags (small
  // R) or the packed bitmap (R >= kBitmapThreshold).
  std::unique_ptr<padded<std::atomic<std::uint8_t>>[]> claimed_;
  std::unique_ptr<padded<std::atomic<std::uint64_t>>[]> words_;
  alignas(kCacheLine) std::atomic<std::uint64_t> claimed_count_{0};
};

}  // namespace hls::core
