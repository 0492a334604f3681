#include "core/partition_set.h"

#include <bit>

#include "core/weighted_split.h"

namespace hls::core {

partition_set::partition_set(std::int64_t begin, std::int64_t end,
                             std::uint32_t num_partitions)
    : begin_(begin),
      end_(end < begin ? begin : end),
      r_(next_pow2(num_partitions == 0 ? 1 : num_partitions)),
      lg_r_(ilog2(r_)) {
  if (r_ >= kBitmapThreshold) {
    words_.reset(new padded<std::atomic<std::uint64_t>>[block_count()]);
    for (std::uint64_t b = 0; b < block_count(); ++b) {
      words_[b].value.store(0, std::memory_order_relaxed);
    }
  } else {
    claimed_.reset(new padded<std::atomic<std::uint8_t>>[r_]);
    for (std::uint64_t r = 0; r < r_; ++r) {
      claimed_[r].value.store(0, std::memory_order_relaxed);
    }
  }
}

partition_set::partition_set(
    std::int64_t begin, std::int64_t end, std::uint32_t num_partitions,
    const std::function<double(std::int64_t)>& weight)
    : partition_set(begin, end, num_partitions) {
  weighted_bounds_ = weighted_boundaries(begin_, end_, r_, weight);
}

iter_range partition_set::range(std::uint64_t r) const noexcept {
  if (!weighted_bounds_.empty()) {
    return {weighted_bounds_[r], weighted_bounds_[r + 1]};
  }
  return balanced_range(begin_, end_, r_, r);
}

bool partition_set::try_claim(std::uint64_t r) noexcept {
  if (words_ != nullptr) {
    const std::uint64_t bit = 1ull << (r & 63);
    const std::uint64_t prev =
        words_[r >> 6].value.fetch_or(bit, std::memory_order_acq_rel);
    if ((prev & bit) == 0) {
      claimed_count_.fetch_add(1, std::memory_order_acq_rel);
      return true;
    }
    return false;
  }
  const std::uint8_t prev =
      claimed_[r].value.fetch_or(1, std::memory_order_acq_rel);
  if (prev == 0) {
    claimed_count_.fetch_add(1, std::memory_order_acq_rel);
    return true;
  }
  return false;
}

bool partition_set::is_claimed(std::uint64_t r) const noexcept {
  if (words_ != nullptr) {
    return (words_[r >> 6].value.load(std::memory_order_acquire) &
            (1ull << (r & 63))) != 0;
  }
  return claimed_[r].value.load(std::memory_order_acquire) != 0;
}

std::uint64_t partition_set::claim_block(std::uint64_t b) noexcept {
  const std::uint64_t valid = block_mask(b);
  if (words_ != nullptr) {
    // Skip fully-claimed blocks with a plain load; otherwise one fetch_or
    // wins every bit not already set — each won bit is exactly the
    // test_and_set transition try_claim performs for that partition.
    if ((words_[b].value.load(std::memory_order_acquire) & valid) == valid) {
      return 0;
    }
    const std::uint64_t prev =
        words_[b].value.fetch_or(valid, std::memory_order_acq_rel);
    const std::uint64_t won = valid & ~prev;
    if (won != 0) {
      claimed_count_.fetch_add(std::popcount(won),
                               std::memory_order_acq_rel);
    }
    return won;
  }
  std::uint64_t won = 0;
  const std::uint64_t lo = b << 6;
  for (std::uint64_t m = valid; m != 0; m &= m - 1) {
    const auto i = static_cast<std::uint64_t>(std::countr_zero(m));
    if (try_claim(lo + i)) won |= 1ull << i;
  }
  return won;
}

std::uint64_t partition_set::claimed_count() const noexcept {
  return claimed_count_.load(std::memory_order_acquire);
}

bool partition_set::all_claimed() const noexcept {
  return claimed_count() == r_;
}

}  // namespace hls::core
