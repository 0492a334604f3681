// Huge-N regression tests: iteration counts past 2^32 (static block
// arithmetic) and past 2^31 (the old packed range_slot span cap). Bodies
// are O(1) per *chunk*, never per iteration, so these run in milliseconds
// despite billion-iteration spans.
//
// scripts/ci.sh runs this binary under a hard RSS cap (ulimit -v): a
// regression that re-materializes O(N) state — an eager task tree, a
// per-iteration owner map — fails by allocation, not by timeout.
#include "sched/loop.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "telemetry/registry.h"
#include "trace/loop_trace.h"

namespace hls {
namespace {

// N = 2^32 + 3: n % blocks no longer fits in uint32. The old boundary
// arithmetic cast the remainder through uint32 before comparing, which
// mis-sized the first `rem` blocks for any N > 2^32.
TEST(HugeN, StaticBoundaryBlocksPastUint32) {
  constexpr std::uint32_t kP = 4;
  constexpr std::int64_t kN = (std::int64_t{1} << 32) + 3;
  constexpr std::int64_t kBase = kN / kP;  // 2^30
  constexpr std::int64_t kRem = kN % kP;   // 3
  rt::runtime rt(kP);
  trace::loop_trace tr(kP);
  loop_options opt;
  opt.trace = &tr;
  const loop_result res = parallel_for(rt, 0, kN, policy::static_part,
                                       [](std::int64_t, std::int64_t) {}, opt);
  ASSERT_TRUE(res.ok());
  // One contiguous block per worker; the first rem blocks carry the +1.
  ASSERT_EQ(tr.chunk_count(), kP);
  std::int64_t expect_lo = 0;
  for (std::uint32_t w = 0; w < kP; ++w) {
    ASSERT_EQ(tr.of_worker(w).size(), 1u) << "worker " << w;
    const auto& c = tr.of_worker(w).front();
    const std::int64_t want = kBase + (w < kRem ? 1 : 0);
    EXPECT_EQ(c.begin, expect_lo) << "worker " << w;
    EXPECT_EQ(c.end - c.begin, want) << "worker " << w;
    expect_lo = c.end;
  }
  EXPECT_EQ(expect_lo, kN);  // the last block ends exactly at N
  EXPECT_EQ(tr.total_iterations(), kN);
}

// The lazy-span smoke shared by the dynamic_ws and hybrid cases below:
// every chunk handed to the body is in-bounds and grain-bounded, the
// chunk sizes tile N exactly, and — the headline property — the whole
// loop runs on the zero-allocation span path (no eager subtasks).
void run_lazy_span_smoke(policy pol, std::uint32_t workers) {
  constexpr std::int64_t kN = std::int64_t{1} << 33;
  constexpr std::int64_t kGrain = std::int64_t{1} << 22;
  rt::runtime rt(workers);
  loop_options opt;
  opt.grain = kGrain;
  std::atomic<std::int64_t> covered{0};
  std::atomic<bool> bounds_ok{true};
  const telemetry::counter_set before = rt.tel().totals();
  const loop_result res = parallel_for(
      rt, 0, kN, pol,
      [&](std::int64_t lo, std::int64_t hi) {
        if (lo < 0 || hi <= lo || hi > kN || hi - lo > kGrain) {
          bounds_ok.store(false, std::memory_order_relaxed);
        }
        covered.fetch_add(hi - lo, std::memory_order_relaxed);
      },
      opt);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(bounds_ok.load());
  EXPECT_EQ(covered.load(), kN);
  const telemetry::counter_set delta = rt.tel().totals() - before;
  // Pre-fix, a span this wide fell off the lazy path into eager bisection
  // (heap task per split). Now it opens directly: zero tasks, no
  // serial-chunk fallback, and every reservation advance is a
  // range_splits refill.
  EXPECT_EQ(delta.tasks_run, 0u) << policy_name(pol);
  EXPECT_EQ(delta.alloc_fallbacks, 0u) << policy_name(pol);
  EXPECT_GT(delta.range_splits, 0u) << policy_name(pol);
}

TEST(HugeN, DynamicWsStaysOnZeroAllocLazyPath) {
  run_lazy_span_smoke(policy::dynamic_ws, 4);
}

TEST(HugeN, HybridStaysOnZeroAllocLazyPath) {
  run_lazy_span_smoke(policy::hybrid, 4);
}

// Single worker, 2^33 iterations: with no thief the span must close whole
// (spans_unsplit) with zero steals and zero tasks — the Corollary 6 "no
// contention, no cost" corner at a width the old layout could not open.
TEST(HugeN, SingleWorkerHugeSpanClosesWhole) {
  constexpr std::int64_t kN = std::int64_t{1} << 33;
  rt::runtime rt(1);
  loop_options opt;
  opt.grain = std::int64_t{1} << 24;
  std::atomic<std::int64_t> covered{0};
  const telemetry::counter_set before = rt.tel().totals();
  const loop_result res = parallel_for(
      rt, 0, kN, policy::dynamic_ws,
      [&](std::int64_t lo, std::int64_t hi) {
        covered.fetch_add(hi - lo, std::memory_order_relaxed);
      },
      opt);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(covered.load(), kN);
  const telemetry::counter_set delta = rt.tel().totals() - before;
  EXPECT_EQ(delta.tasks_run, 0u);
  EXPECT_EQ(delta.range_steals, 0u);
  EXPECT_EQ(delta.spans_unsplit, 1u);
}

}  // namespace
}  // namespace hls
