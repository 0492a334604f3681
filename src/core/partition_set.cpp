#include "core/partition_set.h"

#include "core/weighted_split.h"

namespace hls::core {

partition_set::partition_set(std::int64_t begin, std::int64_t end,
                             std::uint32_t num_partitions)
    : begin_(begin),
      end_(end < begin ? begin : end),
      claims_(next_pow2(num_partitions == 0 ? 1 : num_partitions)),
      lg_r_(ilog2(claims_.count())) {}

partition_set::partition_set(
    std::int64_t begin, std::int64_t end, std::uint32_t num_partitions,
    const std::function<double(std::int64_t)>& weight)
    : partition_set(begin, end, num_partitions) {
  weighted_bounds_ = weighted_boundaries(begin_, end_, count(), weight);
}

iter_range partition_set::range(std::uint64_t r) const noexcept {
  if (!weighted_bounds_.empty()) {
    return {weighted_bounds_[r], weighted_bounds_[r + 1]};
  }
  return balanced_range(begin_, end_, count(), r);
}

}  // namespace hls::core
