// The claim flags of a hybrid loop — the paper's array `A` (Algorithm 1
// line 1) — as a protocol core: a header template over the
// synchronization traits.
//
// One bit per partition, packed 64 to a word, each word padded to its own
// cache line. One storage serves every R. A claim is one fetch_or on the
// partition's bit (the fetch_and_or of Algorithm 2 line 5): the call that
// turns the bit from 0 to 1 wins, so each partition is won exactly once
// (Theorem 3), and each outcome is exactly a per-partition test_and_set's,
// so Lemma 4's lg R bound carries over. Nothing else is written on a won
// claim. Scans (is everything claimed? how many?) read 64 partitions per
// acquire load, and the leftover sweep (claim_block) claims up to 64 per
// fetch_or. At R = 2^20 the flags take 1 MB.
//
// Template parameters:
//   Traits — synchronization traits (verify/sync.h): sync::real_traits in
//            core::partition_set, verify_traits in the claim models, so
//            the model checker runs the code that ships.
//   Policy — protocol-variant knobs; shipping code always uses
//            claim_bitmap_policy_default (see verify_test.cpp for why the
//            broken variant exists).
#pragma once

#include <atomic>  // std::memory_order (the traits' atomics share its enum)
#include <bit>
#include <cstdint>
#include <memory>

#include "util/cacheline.h"

namespace hls::core {

// atomic_rmw: claims and sweeps set their bits with one fetch_or.
// Disabling it makes both a load-then-store: two claimants can then read
// the same bit clear and both win it — the double claim the RMW exists to
// prevent (caught by the claim-bitmap-broken-nonatomic model).
struct claim_bitmap_policy_default {
  static constexpr bool atomic_rmw = true;
};

struct claim_bitmap_policy_nonatomic {
  static constexpr bool atomic_rmw = false;
};

template <typename Traits, typename Policy = claim_bitmap_policy_default>
class claim_bitmap_core {
  template <typename U>
  using atomic_t = typename Traits::template atomic<U>;

 public:
  // R >= 1 partitions, all unclaimed (value-initialized words).
  explicit claim_bitmap_core(std::uint64_t r)
      : r_(r), words_(new padded<atomic_t<std::uint64_t>>[block_count()]) {}

  claim_bitmap_core(const claim_bitmap_core&) = delete;
  claim_bitmap_core& operator=(const claim_bitmap_core&) = delete;

  std::uint64_t count() const noexcept { return r_; }

  // Number of 64-partition blocks, one word each: ceil(R / 64).
  std::uint64_t block_count() const noexcept { return (r_ + 63) >> 6; }

  // Claims partition r and returns its previous flag: false means this
  // call won the claim. The name and sense are core::claim_flags', so
  // run_claim_loop drives the core directly.
  bool test_and_set(std::uint64_t r) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << (r & 63);
    return (set_bits(r >> 6, bit) & bit) != 0;
  }

  bool is_claimed(std::uint64_t r) const noexcept {
    return (words_[r >> 6].value.load(std::memory_order_acquire) &
            (std::uint64_t{1} << (r & 63))) != 0;
  }

  // Claims every still-unclaimed partition of block b (partitions
  // [64b, min(64b + 64, R))). Returns the mask this call won, bit i =
  // partition 64b + i: each won bit is the same 0 -> 1 transition a
  // test_and_set win is, so exactly-once is untouched. A load skips a
  // full block without an RMW.
  std::uint64_t claim_block(std::uint64_t b) noexcept {
    const std::uint64_t valid = block_mask(b);
    if ((words_[b].value.load(std::memory_order_acquire) & valid) == valid) {
      return 0;
    }
    return valid & ~set_bits(b, valid);
  }

  std::uint64_t claimed_count() const noexcept {
    std::uint64_t n = 0;
    for (std::uint64_t b = 0; b < block_count(); ++b) {
      n += static_cast<std::uint64_t>(std::popcount(
          words_[b].value.load(std::memory_order_acquire) & block_mask(b)));
    }
    return n;
  }

  bool all_claimed() const noexcept {
    for (std::uint64_t b = 0; b < block_count(); ++b) {
      const std::uint64_t valid = block_mask(b);
      if ((words_[b].value.load(std::memory_order_acquire) & valid) !=
          valid) {
        return false;
      }
    }
    return true;
  }

 private:
  // Valid-partition mask of block b: all ones except in a last block
  // holding fewer than 64 partitions (every R < 64).
  std::uint64_t block_mask(std::uint64_t b) const noexcept {
    const std::uint64_t n = r_ - (b << 6);
    return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  }

  // Sets `bits` in word b; returns the word's previous value.
  std::uint64_t set_bits(std::uint64_t b, std::uint64_t bits) noexcept {
    if constexpr (Policy::atomic_rmw) {
      return words_[b].value.fetch_or(bits, std::memory_order_acq_rel);
    } else {
      const std::uint64_t prev =
          words_[b].value.load(std::memory_order_acquire);
      words_[b].value.store(prev | bits, std::memory_order_release);
      return prev;
    }
  }

  std::uint64_t r_;
  std::unique_ptr<padded<atomic_t<std::uint64_t>>[]> words_;
};

}  // namespace hls::core
