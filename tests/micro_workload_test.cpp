#include "workloads/micro.h"

#include <gtest/gtest.h>

#include <numeric>

namespace hls::workloads {
namespace {

TEST(MicroSlices, BalancedSlicesTileAndAreEqual) {
  micro_params p;
  p.iterations = 100;
  p.total_bytes = 100 * 128 * sizeof(double);
  const auto sizes = micro_slice_sizes(p);
  ASSERT_EQ(sizes.size(), 100u);
  for (auto s : sizes) EXPECT_EQ(s, 128);
}

TEST(MicroSlices, BalancedHandlesRemainder) {
  micro_params p;
  p.iterations = 7;
  p.total_bytes = 100 * sizeof(double);
  const auto sizes = micro_slice_sizes(p);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::int64_t{0}),
            100);
  for (auto s : sizes) EXPECT_TRUE(s == 14 || s == 15);
}

TEST(MicroSlices, UnbalancedRampTilesExactly) {
  micro_params p;
  p.iterations = 512;
  p.total_bytes = 1ull << 22;
  p.balanced = false;
  const auto sizes = micro_slice_sizes(p);
  const std::int64_t total =
      std::accumulate(sizes.begin(), sizes.end(), std::int64_t{0});
  EXPECT_EQ(total, static_cast<std::int64_t>(p.total_bytes / sizeof(double)));
  // Cubic ramp: last slice ~25x the first (0.2 -> 5.0).
  EXPECT_GT(sizes.back(), sizes.front() * 10);
  for (auto s : sizes) EXPECT_GE(s, 0);
}

TEST(MicroSlices, UnbalancedStaticBlockImbalance) {
  // The property Fig. 1's bottom row exploits: with a P-way static split of
  // the ramp, the heaviest block carries ~1.9x the average work.
  micro_params p;
  p.iterations = 2048;
  p.total_bytes = 1ull << 24;
  p.balanced = false;
  const auto sizes = micro_slice_sizes(p);
  constexpr int kP = 32;
  const std::int64_t per = p.iterations / kP;
  std::int64_t heaviest = 0, total = 0;
  for (int b = 0; b < kP; ++b) {
    std::int64_t blk = 0;
    for (std::int64_t i = b * per; i < (b + 1) * per; ++i) blk += sizes[i];
    heaviest = std::max(heaviest, blk);
    total += blk;
  }
  const double mean = static_cast<double>(total) / kP;
  EXPECT_GT(static_cast<double>(heaviest) / mean, 2.8);
  EXPECT_LT(static_cast<double>(heaviest) / mean, 3.8);
}

TEST(MicroSpec, SpecMatchesParams) {
  micro_params p;
  p.iterations = 256;
  p.total_bytes = 1ull << 20;
  p.outer_iterations = 5;
  const auto spec = micro_spec(p);
  EXPECT_EQ(spec.loops.size(), 1u);
  EXPECT_EQ(spec.loops[0].n, 256);
  EXPECT_EQ(spec.outer_iterations, 5);
  EXPECT_EQ(spec.region_count, 256);
  std::uint64_t bytes = 0;
  for (std::int64_t i = 0; i < 256; ++i) {
    bytes += spec.loops[0].region_bytes(i);
    EXPECT_GT(spec.loops[0].cpu(i), 0.0);
  }
  EXPECT_EQ(bytes, p.total_bytes);
}

TEST(MicroBench, SerialAndParallelTouchSameData) {
  micro_params p;
  p.iterations = 64;
  p.total_bytes = 64 * 256 * sizeof(double);
  micro_bench a(p), b(p);
  rt::runtime rt(4);
  const double serial = a.run_serial();
  const double par = b.run_once(rt, policy::hybrid);
  // Same multiset of per-slice updates; only summation order differs.
  EXPECT_NEAR(serial, par, 1e-6 * std::abs(serial));
}

TEST(MicroBench, RepeatedStepsEvolveDeterministically) {
  micro_params p;
  p.iterations = 32;
  p.total_bytes = 32 * 128 * sizeof(double);
  micro_bench a(p), b(p);
  rt::runtime rt(2);
  for (int step = 0; step < 4; ++step) {
    const double sa = a.run_serial();
    const double sb = b.run_once(rt, policy::dynamic_ws);
    EXPECT_NEAR(sa, sb, 1e-6 * std::abs(sa)) << "step " << step;
  }
}

TEST(MicroBench, SliceBoundariesAreMonotone) {
  micro_params p;
  p.iterations = 100;
  p.total_bytes = 1ull << 18;
  p.balanced = false;
  micro_bench mb(p);
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_LE(mb.slice_begin(i), mb.slice_end(i));
    if (i > 0) {
      EXPECT_EQ(mb.slice_begin(i), mb.slice_end(i - 1));
    }
  }
}

TEST(MicroBench, EveryPolicyProducesSameChecksum) {
  micro_params p;
  p.iterations = 48;
  p.total_bytes = 48 * 200 * sizeof(double);
  rt::runtime rt(3);
  double reference = 0.0;
  {
    micro_bench mb(p);
    reference = mb.run_serial();
  }
  for (policy pol : kAllParallelPolicies) {
    micro_bench mb(p);
    const double got = mb.run_once(rt, pol);
    EXPECT_NEAR(got, reference, 1e-6 * std::abs(reference))
        << policy_name(pol);
  }
}

}  // namespace
}  // namespace hls::workloads
