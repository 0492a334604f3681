// The lazy range-splitting path: the range_slot protocol itself (two-word
// split/hi layout with full 64-bit spans, owner reserve, thief half-steal,
// close/drain), raw concurrent exactly-once stress (owner advancing at lo
// vs thief CAS at split — the TSAN target), including a >2^31-iteration
// span, the scheduler integration (dynamic_ws and hybrid spans, recursive
// thief splitting, the eager escape hatch and the nested-loop fallback),
// and a 200-seed chaos sweep asserting no iteration is lost or duplicated
// with the range-steal CAS under fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "faultsim/faultsim.h"
#include "runtime/range_slot.h"
#include "sched/loop.h"
#include "trace/loop_trace.h"
#include "util/bits.h"

namespace hls {
namespace {

void dummy_runner(rt::worker&, void*, std::int64_t, std::int64_t) {}

int marker;  // opaque ctx for raw-slot tests

// ---- raw protocol ----------------------------------------------------

TEST(RangeSlot, OpenPublishesCloseUnpublishes) {
  rt::range_slot slot;
  EXPECT_FALSE(slot.looks_open());
  EXPECT_FALSE(slot.owner_open());
  EXPECT_FALSE(slot.try_steal());

  ASSERT_TRUE(slot.open(&marker, &dummy_runner, 100, 200, 10));
  EXPECT_TRUE(slot.looks_open());
  EXPECT_TRUE(slot.owner_open());
  // A second open while a span is published reports busy (nested loop).
  EXPECT_FALSE(slot.open(&marker, &dummy_runner, 0, 50, 5));

  EXPECT_FALSE(slot.close());  // nobody stole: the span was never split
  EXPECT_FALSE(slot.looks_open());
  EXPECT_FALSE(slot.owner_open());
  EXPECT_FALSE(slot.try_steal());

  // Reusable after close.
  ASSERT_TRUE(slot.open(&marker, &dummy_runner, 0, 64, 4));
  EXPECT_TRUE(slot.close() == false);
}

TEST(RangeSlot, ReserveWalksWholeSpanWhenUnstolen) {
  rt::range_slot slot;
  ASSERT_TRUE(slot.open(&marker, &dummy_runner, 1000, 2000, 10));
  std::int64_t cur = 1000;
  std::int64_t covered = 0;
  while (true) {
    const std::int64_t res = slot.reserve(cur);
    if (res <= cur) break;
    EXPECT_GT(res, cur);
    EXPECT_LE(res, 2000);
    covered += res - cur;
    cur = res;
  }
  EXPECT_EQ(cur, 2000);
  EXPECT_EQ(covered, 1000);
  EXPECT_FALSE(slot.close());
}

TEST(RangeSlot, StealTakesUpperHalfRecursively) {
  rt::range_slot slot;
  ASSERT_TRUE(slot.open(&marker, &dummy_runner, 0, 1000, 10));

  const rt::range_slot::stolen s1 = slot.try_steal();
  ASSERT_TRUE(s1);
  EXPECT_EQ(s1.lo, 500);
  EXPECT_EQ(s1.hi, 1000);
  EXPECT_EQ(s1.ctx, &marker);
  EXPECT_EQ(s1.run, &dummy_runner);

  // The remaining [0, 500) halves again.
  const rt::range_slot::stolen s2 = slot.try_steal();
  ASSERT_TRUE(s2);
  EXPECT_EQ(s2.lo, 250);
  EXPECT_EQ(s2.hi, 500);

  // The owner's reserve sees the shrunken span and the close reports it.
  std::int64_t cur = 0;
  while (true) {
    const std::int64_t res = slot.reserve(cur);
    if (res <= cur) break;
    cur = res;
  }
  EXPECT_EQ(cur, 250);
  EXPECT_TRUE(slot.close());
}

TEST(RangeSlot, StealRefusedBelowTwoGrains) {
  rt::range_slot slot;
  // 30 iterations at grain 16: both halves cannot stay >= grain.
  ASSERT_TRUE(slot.open(&marker, &dummy_runner, 0, 30, 16));
  EXPECT_FALSE(slot.try_steal());
  EXPECT_FALSE(slot.close());

  // Exactly two grains is the threshold.
  ASSERT_TRUE(slot.open(&marker, &dummy_runner, 0, 32, 16));
  const rt::range_slot::stolen s = slot.try_steal();
  ASSERT_TRUE(s);
  EXPECT_EQ(s.lo, 16);
  EXPECT_EQ(s.hi, 32);
  EXPECT_TRUE(slot.close());
}

TEST(RangeSlot, MaxSpanBoundaryOpens) {
  rt::range_slot slot;
  ASSERT_TRUE(slot.open(&marker, &dummy_runner, 0, rt::range_slot::kMaxSpan,
                        1 << 20));
  const rt::range_slot::stolen s = slot.try_steal();
  ASSERT_TRUE(s);
  EXPECT_EQ(s.lo, rt::range_slot::kMaxSpan / 2);
  EXPECT_EQ(s.hi, rt::range_slot::kMaxSpan);
  EXPECT_TRUE(slot.close());
}

// A span beyond the old packed-word limit (2^31) opens directly — no
// eager-bisection prefix any more — and steals carry 64-bit offsets.
TEST(RangeSlot, WideSpanOpensAndSteals) {
  constexpr std::int64_t kWide = (std::int64_t{1} << 31) + 12345;
  rt::range_slot slot;
  ASSERT_TRUE(slot.open(&marker, &dummy_runner, 0, kWide, 1 << 20));
  const rt::range_slot::stolen s = slot.try_steal();
  ASSERT_TRUE(s);
  EXPECT_EQ(s.lo, kWide / 2);
  EXPECT_EQ(s.hi, kWide);
  EXPECT_TRUE(slot.close());
}

// Release-build validation: a degenerate or oversized span is rejected
// (returns false) rather than corrupting the protocol words — this must
// hold with NDEBUG, not just as a debug assert.
TEST(RangeSlot, OpenRejectsInvalidSpansInRelease) {
  rt::range_slot slot;
  EXPECT_FALSE(slot.open(&marker, &dummy_runner, 10, 10, 1));  // empty
  EXPECT_FALSE(slot.open(&marker, &dummy_runner, 10, 9, 1));   // inverted
  EXPECT_FALSE(
      slot.open(&marker, &dummy_runner, 0, rt::range_slot::kMaxSpan + 1, 1));
  EXPECT_FALSE(slot.looks_open());
  EXPECT_FALSE(slot.owner_open());
  // The slot is untouched by the rejections and still opens normally.
  ASSERT_TRUE(slot.open(&marker, &dummy_runner, 0, 100, 1));
  EXPECT_FALSE(slot.close());
}

// The satellite stress: the owner advancing at lo races thief CASes at
// split across repeated open/close eras. Every iteration must be claimed
// exactly once — this is the suite's ThreadSanitizer target, exercising
// the announce/drain lifetime protocol (a thief reading span fields while
// the owner closes and immediately reopens).
TEST(RangeSlot, ConcurrentSplitAdvanceExactlyOnce) {
  constexpr std::int64_t kN = 1 << 12;
  constexpr int kRounds = 200;
  constexpr int kThieves = 3;

  rt::range_slot slot;
  std::vector<std::atomic<std::uint8_t>> hits(kN);
  std::atomic<std::int64_t> claimed{0};
  std::atomic<bool> stop{false};

  const auto mark = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                  std::memory_order_relaxed);
    }
    claimed.fetch_add(hi - lo, std::memory_order_acq_rel);
  };

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (const rt::range_slot::stolen s = slot.try_steal()) {
          mark(s.lo, s.hi);
        }
      }
    });
  }

  for (int round = 0; round < kRounds; ++round) {
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    claimed.store(0, std::memory_order_release);
    ASSERT_TRUE(slot.open(&marker, &dummy_runner, 0, kN, 1));
    std::int64_t cur = 0;
    for (;;) {
      const std::int64_t res = slot.reserve(cur);
      if (res <= cur) break;
      mark(cur, res);
      cur = res;
    }
    slot.close();
    // Thieves may still be marking a range they claimed before the close;
    // the claimed counter tells us when the whole span has landed.
    while (claimed.load(std::memory_order_acquire) != kN) {
      std::this_thread::yield();
    }
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "round " << round << " iteration " << i;
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
}

// The 64-bit stress: the same owner-vs-thieves race over a span wider
// than the old 2^31 packed-word limit, exercising the full-width offsets
// of the two-word protocol (also a ThreadSanitizer target). Marking 2^31
// iterations individually is infeasible, so every thread records the
// half-open intervals it claimed; once the claimed-iteration counter
// closes the span, the sorted intervals must tile [0, kWide) exactly —
// any double-execution shows up as an overlap, any loss as a hole.
TEST(RangeSlot, ConcurrentWideSpanSplitAdvanceExactlyOnce) {
  constexpr std::int64_t kWide = (std::int64_t{1} << 31) + 98765;
  constexpr std::int64_t kGrain = std::int64_t{1} << 16;
  constexpr int kRounds = 5;
  constexpr int kThieves = 3;

  rt::range_slot slot;
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  std::atomic<std::int64_t> claimed{0};
  std::atomic<bool> stop{false};

  // Record before counting: claimed == kWide then implies every interval
  // is already in the vector.
  const auto record = [&](std::int64_t lo, std::int64_t hi) {
    {
      std::lock_guard<std::mutex> lk(mu);
      intervals.emplace_back(lo, hi);
    }
    claimed.fetch_add(hi - lo, std::memory_order_acq_rel);
  };

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (const rt::range_slot::stolen s = slot.try_steal()) {
          record(s.lo, s.hi);
        }
      }
    });
  }

  for (int round = 0; round < kRounds; ++round) {
    {
      std::lock_guard<std::mutex> lk(mu);
      intervals.clear();
    }
    claimed.store(0, std::memory_order_release);
    ASSERT_TRUE(slot.open(&marker, &dummy_runner, 0, kWide, kGrain));
    std::int64_t cur = 0;
    for (;;) {
      const std::int64_t res = slot.reserve(cur);
      if (res <= cur) break;
      record(cur, res);
      cur = res;
    }
    slot.close();
    while (claimed.load(std::memory_order_acquire) != kWide) {
      std::this_thread::yield();
    }
    std::lock_guard<std::mutex> lk(mu);
    std::sort(intervals.begin(), intervals.end());
    std::int64_t expect = 0;
    for (const auto& [lo, hi] : intervals) {
      ASSERT_EQ(lo, expect) << "round " << round
                            << (lo < expect ? ": overlap" : ": hole");
      ASSERT_GT(hi, lo);
      expect = hi;
    }
    ASSERT_EQ(expect, kWide) << "round " << round;
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
}

// ---- scheduler integration ------------------------------------------

void assert_exactly_once(rt::runtime& rt, policy pol, std::int64_t n,
                         const loop_options& opt) {
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  const loop_result res =
      for_each(rt, 0, n, pol, [&](std::int64_t i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                    std::memory_order_relaxed);
      }, opt);
  ASSERT_TRUE(res.ok());
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
        << policy_name(pol) << " iteration " << i;
  }
}

TEST(RangeSpan, DynamicWsFineGrainExactlyOnce) {
  rt::runtime rt(4);
  loop_options opt;
  opt.grain = 1;
  const telemetry::counter_set before = rt.tel().totals();
  for (int rep = 0; rep < 50; ++rep) {
    assert_exactly_once(rt, policy::dynamic_ws, 4096, opt);
  }
  const telemetry::counter_set delta = rt.tel().totals() - before;
  EXPECT_GT(delta.range_splits, 0u);  // spans were published and consumed
}

TEST(RangeSpan, HybridFineGrainExactlyOnce) {
  rt::runtime rt(4);
  loop_options opt;
  opt.grain = 1;
  const telemetry::counter_set before = rt.tel().totals();
  for (int rep = 0; rep < 50; ++rep) {
    assert_exactly_once(rt, policy::hybrid, 4096, opt);
  }
  const telemetry::counter_set delta = rt.tel().totals() - before;
  EXPECT_GT(delta.range_splits, 0u);
  EXPECT_EQ(rt.tel().lemma4_violations(), 0u);
}

TEST(RangeSpan, SingleWorkerAllocatesNoTasksAndStaysUnsplit) {
  rt::runtime rt(1);
  loop_options opt;
  opt.grain = 8;
  const telemetry::counter_set before = rt.tel().totals();
  constexpr int kLoops = 20;
  for (int rep = 0; rep < kLoops; ++rep) {
    assert_exactly_once(rt, policy::dynamic_ws, 1 << 12, opt);
  }
  const telemetry::counter_set delta = rt.tel().totals() - before;
  // The headline fast-path property: with nobody to steal, the lazy path
  // allocates zero tasks and every span closes whole.
  EXPECT_EQ(delta.tasks_run, 0u);
  EXPECT_EQ(delta.range_steals, 0u);
  EXPECT_EQ(delta.spans_unsplit, static_cast<std::uint64_t>(kLoops));
}

TEST(RangeSpan, EagerSubtasksOptOutRestoresTaskPath) {
  rt::runtime rt(2);
  loop_options opt;
  opt.grain = 8;
  opt.eager_subtasks = true;
  const telemetry::counter_set before = rt.tel().totals();
  for (int rep = 0; rep < 5; ++rep) {
    assert_exactly_once(rt, policy::dynamic_ws, 1 << 12, opt);
    assert_exactly_once(rt, policy::hybrid, 1 << 12, opt);
  }
  const telemetry::counter_set delta = rt.tel().totals() - before;
  EXPECT_GT(delta.tasks_run, 0u);       // subtasks were heap-allocated again
  EXPECT_EQ(delta.range_splits, 0u);    // and no span was ever published
  EXPECT_EQ(delta.spans_unsplit, 0u);
}

TEST(RangeSpan, NestedLoopInsideSpanFallsBackAndCompletes) {
  rt::runtime rt(4);
  constexpr std::int64_t kOuter = 64;
  constexpr std::int64_t kInner = 256;
  loop_options outer_opt;
  outer_opt.grain = 1;
  std::vector<std::atomic<int>> hits(
      static_cast<std::size_t>(kOuter * kInner));
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  const loop_result res = for_each(
      rt, 0, kOuter, policy::dynamic_ws,
      [&](std::int64_t o) {
        // The worker's slot is owned by the outer span here, so the inner
        // loop must take the eager fallback (and still complete).
        for_each(rt, 0, kInner, policy::dynamic_ws, [&](std::int64_t i) {
          hits[static_cast<std::size_t>(o * kInner + i)].fetch_add(
              1, std::memory_order_relaxed);
        });
      },
      outer_opt);
  ASSERT_TRUE(res.ok());
  for (std::int64_t i = 0; i < kOuter * kInner; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
  }
}

// Regression (freed loop_ctx read): a worker waiting on a nested loop
// inside its own open span steals half of a peer's outer span; its slot is
// busy, so run_stolen runs the range serially. The last of those chunks
// may retire the outer loop, which lets the poster return and free the
// loop's context — the serial loop used to re-read ctx->grain after that.
// Many short outer loops make the retire-then-free window common; under
// TSAN/ASan the old read is reported, and exactly-once must hold anyway.
TEST(RangeSpan, StolenRangeIntoBusySlotNeverReadsRetiredLoop) {
  rt::runtime rt(4);
  constexpr std::int64_t kOuter = 64;
  constexpr std::int64_t kInner = 64;
  loop_options outer_opt;
  outer_opt.grain = 2;  // stolen outer ranges exceed the grain
  std::vector<std::atomic<int>> hits(
      static_cast<std::size_t>(kOuter * kInner));
  for (int rep = 0; rep < 100; ++rep) {
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    const loop_result res = for_each(
        rt, 0, kOuter, policy::dynamic_ws,
        [&](std::int64_t o) {
          for_each(rt, 0, kInner, policy::dynamic_ws, [&](std::int64_t i) {
            hits[static_cast<std::size_t>(o * kInner + i)].fetch_add(
                1, std::memory_order_relaxed);
          });
        },
        outer_opt);
    ASSERT_TRUE(res.ok());
    for (std::int64_t i = 0; i < kOuter * kInner; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "rep " << rep << " iteration " << i;
    }
  }
}

TEST(RangeSpan, ExplicitGrainBoundsTraceChunks) {
  rt::runtime rt(4);
  trace::loop_trace tr(4);
  loop_options opt;
  opt.grain = 16;
  opt.trace = &tr;
  parallel_for(rt, 0, 4096, policy::dynamic_ws,
               [](std::int64_t, std::int64_t) {}, opt);
  EXPECT_EQ(tr.total_iterations(), 4096);
  for (const trace::chunk_rec& c : tr.sorted_by_seq()) {
    EXPECT_LE(c.end - c.begin, 16);
  }
}

// ---- chaos sweep (satellite) -----------------------------------------

// 200 seeds of the default chaos mix — which includes range_fail, the
// forced range-steal CAS failure — over both span-based policies: no
// iteration may be lost or run twice, and Lemma 4 must survive.
TEST(RangeSpanChaos, ExactlyOnceAcross200Seeds) {
  constexpr std::uint32_t kWorkers = 4;
  constexpr std::uint32_t kPartitions = 8;
  rt::runtime rt(kWorkers);
  loop_options opt;
  opt.partitions = kPartitions;
  opt.grain = 4;  // fine grain: many chunks per span, many steal windows
  std::uint64_t range_faults = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    auto inj = std::make_shared<faultsim::injector>(
        faultsim::config::default_mix(seed), kWorkers);
    rt.set_chaos(inj);
    assert_exactly_once(rt, policy::dynamic_ws, 512, opt);
    assert_exactly_once(rt, policy::hybrid, 512, opt);
    range_faults += inj->fired(faultsim::hook::range_steal);
  }
  rt.set_chaos(nullptr);
  const telemetry::counter_set total = rt.tel().totals();
  EXPECT_GT(total.faults_injected, 0u);
  // The new hook actually perturbed range steals somewhere in the sweep.
  EXPECT_GT(range_faults, 0u);
  const std::uint64_t bound = ceil_log2(kPartitions) + 1;
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    EXPECT_LE(rt.tel().of_worker(w).max_claim_seq_len, bound) << w;
  }
  EXPECT_EQ(rt.tel().lemma4_violations(), 0u);
}

}  // namespace
}  // namespace hls
