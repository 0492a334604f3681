// Graceful-degradation tests: worker-spawn failure shrinks the team
// instead of aborting construction, range-slot exhaustion falls back to
// bounded serial-chunk execution, and the parallel_for admission gate
// serializes submissions past the in-flight limit — all while every loop
// stays exactly-once with a correct loop_result.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "sched/loop.h"
#include "telemetry/profiler.h"

namespace hls {
namespace {

// Runs one loop and asserts every iteration ran exactly once.
void assert_exactly_once(rt::runtime& rt, policy pol, std::int64_t n,
                         const loop_options& opt = {}) {
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  const loop_result res = for_each(
      rt, 0, n, pol,
      [&](std::int64_t i) {
        hits[static_cast<std::size_t>(i)].fetch_add(
            1, std::memory_order_relaxed);
      },
      opt);
  ASSERT_TRUE(res.ok()) << policy_name(pol);
  EXPECT_EQ(res.skipped, 0);
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
        << policy_name(pol) << " iteration " << i;
  }
}

// ------------------------------------------------- spawn-failure shrink

TEST(Degrade, SpawnFailureShrinksTeamAndLoopsStillComplete) {
  rt::runtime_options o;
  o.num_workers = 4;
  o.watchdog = false;
  o.chaos = "thread_spawn=1";  // every background spawn attempt fails
  rt::runtime rt(o);

  // The team shrank to the constructing thread; the loss is counted.
  EXPECT_EQ(rt.num_workers(), 1u);
  EXPECT_EQ(rt.options().num_workers, 4u);  // requested size is preserved
  EXPECT_EQ(rt.tel().totals().degraded_workers, 3u);

  // Degraded-but-functional: every policy still completes exactly-once.
  constexpr policy kPolicies[] = {policy::serial,        policy::static_part,
                                  policy::dynamic_shared, policy::guided,
                                  policy::dynamic_ws,    policy::hybrid};
  for (policy pol : kPolicies) assert_exactly_once(rt, pol, 256);
}

// --------------------------------------------- slot-exhaustion fallback

// Calls f from inside rt::worker::kSpanSlots nested dynamic_ws spans. On a
// one-worker runtime nothing is stolen, so every range slot is open while
// f runs and any span f starts finds none free.
template <typename F>
void with_full_span_stack(rt::runtime& rt, const F& f,
                          std::uint32_t depth = 0) {
  if (depth == rt::worker::kSpanSlots) {
    f();
    return;
  }
  loop_options opt;
  opt.grain = 1;  // a two-iteration loop still opens a span
  for_each(
      rt, 0, 2, policy::dynamic_ws,
      [&](std::int64_t i) {
        if (i == 0) with_full_span_stack(rt, f, depth + 1);
      },
      opt);
}

TEST(Degrade, AllocFailureFallsBackToSerialChunks) {
  rt::runtime rt(1);
  // The innermost loops are nested kSpanSlots + 1 deep: the dynamic_ws
  // span and the hybrid partition both run as serial chunks.
  with_full_span_stack(rt, [&] {
    assert_exactly_once(rt, policy::dynamic_ws, 512);
    assert_exactly_once(rt, policy::hybrid, 512);
  });
  EXPECT_GT(rt.tel().totals().alloc_fallbacks, 0u);
}

TEST(Degrade, AllocFallbackPreservesCancelStatus) {
  rt::runtime rt(1);
  cancel_source src;
  loop_options opt;
  opt.cancel = src.token();
  std::atomic<int> seen{0};
  loop_result res;
  with_full_span_stack(rt, [&] {
    res = for_each(rt, 0, 4096, policy::dynamic_ws,
                   [&](std::int64_t) {
                     if (seen.fetch_add(1) == 100) src.request_cancel();
                   },
                   opt);
  });
  // The serial-chunk fallback still polls the stop word, so cancellation
  // surfaces with the skipped count intact.
  EXPECT_GT(rt.tel().totals().alloc_fallbacks, 0u);
  EXPECT_EQ(res.status, loop_status::cancelled);
  EXPECT_GT(res.skipped, 0);
}

// ------------------------------------------------------ admission gate

TEST(Degrade, AdmissionGateCountsAndReleases) {
  rt::runtime_options o;
  o.num_workers = 1;
  o.watchdog = false;
  o.max_inflight_loops = 2;
  rt::runtime rt(o);
  EXPECT_TRUE(rt.try_admit_loop());
  EXPECT_TRUE(rt.try_admit_loop());
  EXPECT_FALSE(rt.try_admit_loop());  // gate full
  rt.release_loop();
  EXPECT_TRUE(rt.try_admit_loop());
  rt.release_loop();
  rt.release_loop();
  EXPECT_EQ(rt.inflight_loops(), 0u);
}

TEST(Degrade, UnlimitedGateAlwaysAdmitsWithoutCounting) {
  rt::runtime rt(1);
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(rt.try_admit_loop());
  EXPECT_EQ(rt.inflight_loops(), 0u);
}

TEST(Degrade, AdmissionGateSerializesNestedLoopsExactlyOnce) {
  rt::runtime_options o;
  o.num_workers = 2;
  o.watchdog = false;
  o.max_inflight_loops = 1;
  rt::runtime rt(o);

  telemetry::loop_profiler prof;
  rt.tel().set_profiler(&prof);

  constexpr std::int64_t kOuter = 4;
  constexpr std::int64_t kInner = 64;
  std::vector<std::atomic<int>> hits(
      static_cast<std::size_t>(kOuter * kInner));
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);

  const loop_result res = for_each(rt, 0, kOuter, policy::dynamic_ws,
                                   [&](std::int64_t i) {
    // The outer loop holds the only admission slot, so every nested
    // submission is gated and runs serially on its worker — but must
    // still be exactly-once with an ok result.
    const loop_result inner = for_each(
        rt, 0, kInner, policy::hybrid,
        [&, i](std::int64_t j) {
          hits[static_cast<std::size_t>(i * kInner + j)].fetch_add(
              1, std::memory_order_relaxed);
        });
    ASSERT_TRUE(inner.ok());
  });
  ASSERT_TRUE(res.ok());
  rt.tel().set_profiler(nullptr);

  for (std::int64_t k = 0; k < kOuter * kInner; ++k) {
    ASSERT_EQ(hits[static_cast<std::size_t>(k)].load(), 1) << k;
  }
  EXPECT_EQ(rt.tel().totals().gated_loops,
            static_cast<std::uint64_t>(kOuter));
  EXPECT_EQ(rt.inflight_loops(), 0u);

  // The profiler distinguishes the gate from the foreign-thread degrade.
  std::uint64_t gated = 0;
  for (const auto& site : prof.snapshot()) {
    for (const auto& r : site.records) {
      if (r.degrade == telemetry::degrade_reason::admission_gate) ++gated;
      EXPECT_NE(r.degrade, telemetry::degrade_reason::foreign_thread);
    }
  }
  EXPECT_EQ(gated, static_cast<std::uint64_t>(kOuter));
}

}  // namespace
}  // namespace hls
