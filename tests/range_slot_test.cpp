// The lazy range-splitting path: the range_slot protocol itself (the
// one-word {split | hi} claims, in units of 2^shift iterations for spans
// of 2^32 - 1 iterations and more, owner reserve, thief half-steal,
// close/drain), raw concurrent exactly-once stress (owner CAS at split vs
// thief CAS at hi — the TSAN target), including spans past 2^31 and 2^32
// iterations and a split floor the owner lowers mid-span, the scheduler
// integration (dynamic_ws and hybrid spans, recursive thief splitting,
// nested loops on the worker's slot stack and its full-stack fallback),
// the measured split floor (a heavy tail splits below the grain, a cheap
// loop keeps it), and a 200-seed chaos sweep asserting no iteration is
// lost or duplicated with the range-steal CAS under fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "faultsim/faultsim.h"
#include "runtime/range_slot.h"
#include "sched/loop.h"
#include "sched/policies.h"
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
  // A second open while a span is published reports busy.
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

// Spans past 2^31 open directly — no eager-bisection prefix — and steals
// carry 64-bit offsets. Below 2^32 - 1 iterations a unit is one
// iteration, so the steal takes exactly the upper half.
TEST(RangeSlot, WideSpanOpensAndSteals) {
  constexpr std::int64_t kWide = (std::int64_t{1} << 31) + 12345;
  rt::range_slot slot;
  ASSERT_TRUE(slot.open(&marker, &dummy_runner, 0, kWide, 1 << 20));
  const rt::range_slot::stolen s = slot.try_steal();
  ASSERT_TRUE(s);
  EXPECT_EQ(s.lo, kWide / 2);
  EXPECT_EQ(s.hi, kWide);
  EXPECT_TRUE(slot.close());

  // 2^32 + 5 iterations pack as 2^31 + 3 units of two iterations, the
  // last one partial: the steal splits on a unit boundary, ends at the
  // span's end, and the owner's reserves stop exactly where it begins.
  constexpr std::int64_t kBase = -1001;
  constexpr std::int64_t kShifted = (std::int64_t{1} << 32) + 5;
  ASSERT_TRUE(slot.open(&marker, &dummy_runner, kBase, kBase + kShifted,
                        1 << 20));
  const rt::range_slot::stolen t = slot.try_steal();
  ASSERT_TRUE(t);
  EXPECT_EQ((t.lo - kBase) % 2, 0);
  EXPECT_EQ(t.hi, kBase + kShifted);
  std::int64_t cur = kBase;
  for (;;) {
    const std::int64_t res = slot.reserve(cur);
    if (res <= cur) break;
    EXPECT_LE(res, t.lo);
    cur = res;
  }
  EXPECT_EQ(cur, t.lo);
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

// The split floor can drop while the span is open (the sched layer lowers
// it when a grain measures slow): a region the old floor refused to split
// — fewer than two old grains — becomes stealable, and the owner's
// reserves and the thief's range still tile the span exactly once.
TEST(RangeSlot, LoweredFloorLetsAThiefSplitBelowTheOldGrain) {
  rt::range_slot slot;
  ASSERT_TRUE(slot.open(&marker, &dummy_runner, 0, 40, 16));
  // First batch: max(16, 40/8) = 16, leaving [16, 40) — 24 < 2 * 16.
  ASSERT_EQ(slot.reserve(0), 16);
  EXPECT_FALSE(slot.try_steal());

  slot.set_grain(4);
  const rt::range_slot::stolen s = slot.try_steal();
  ASSERT_TRUE(s);
  EXPECT_EQ(s.lo, 28);
  EXPECT_EQ(s.hi, 40);
  EXPECT_LT(s.hi - s.lo, 2 * 16);

  // The owner walks the rest in floor-4 batches up to the thief's range.
  std::int64_t cur = 16;
  for (;;) {
    const std::int64_t res = slot.reserve(cur);
    if (res <= cur) break;
    EXPECT_LE(res - cur, 4);
    cur = res;
  }
  EXPECT_EQ(cur, s.lo);  // [0, 28) owner + [28, 40) thief: no hole, no overlap
  EXPECT_TRUE(slot.close());
}

// The satellite stress: the owner advancing at lo races thief CASes at
// split across `rounds` open/close eras. Every iteration must be claimed
// exactly once — this is the suite's ThreadSanitizer target, exercising
// the announce/drain lifetime protocol (a thief reading span fields while
// the owner closes and immediately reopens). Each span opens at floor
// `open_grain`; after the owner's first batch the floor becomes
// `lowered_grain` (set_grain), as the measured split floor does.
void split_advance_stress(std::int64_t open_grain, std::int64_t lowered_grain,
                          int rounds) {
  constexpr std::int64_t kN = 1 << 12;
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

  for (int round = 0; round < rounds; ++round) {
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    claimed.store(0, std::memory_order_release);
    ASSERT_TRUE(slot.open(&marker, &dummy_runner, 0, kN, open_grain));
    std::int64_t cur = 0;
    for (;;) {
      const std::int64_t res = slot.reserve(cur);
      if (res <= cur) break;
      mark(cur, res);
      cur = res;
      slot.set_grain(lowered_grain);
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

TEST(RangeSlot, ConcurrentSplitAdvanceExactlyOnce) {
  split_advance_stress(1, 1, 200);
}

// The floor drops from 256 to 1 after the owner's first batch while the
// thieves probe, so they split regions the opening floor had refused.
TEST(RangeSlot, ConcurrentFloorLoweringExactlyOnce) {
  split_advance_stress(256, 1, 100);
}

// The 64-bit stress: the same owner-vs-thieves race over spans wider than
// 2^31 (also a ThreadSanitizer target). 2^31 + 98765 iterations still
// count one iteration per unit; 2^33 + 98765 counts four (shift 2), the
// last unit partial. Marking 2^31 iterations individually is infeasible,
// so every thread records the half-open intervals it claimed; once the
// claimed-iteration counter closes the span, the sorted intervals must
// tile [0, wide) exactly — any double-execution shows up as an overlap,
// any loss as a hole.
TEST(RangeSlot, ConcurrentWideSpanSplitAdvanceExactlyOnce) {
  constexpr std::int64_t kWidths[] = {(std::int64_t{1} << 31) + 98765,
                                      (std::int64_t{1} << 33) + 98765};
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

  for (const std::int64_t wide : kWidths) {
    for (int round = 0; round < kRounds; ++round) {
      {
        std::lock_guard<std::mutex> lk(mu);
        intervals.clear();
      }
      claimed.store(0, std::memory_order_release);
      ASSERT_TRUE(slot.open(&marker, &dummy_runner, 0, wide, kGrain));
      std::int64_t cur = 0;
      for (;;) {
        const std::int64_t res = slot.reserve(cur);
        if (res <= cur) break;
        record(cur, res);
        cur = res;
      }
      slot.close();
      while (claimed.load(std::memory_order_acquire) != wide) {
        std::this_thread::yield();
      }
      std::lock_guard<std::mutex> lk(mu);
      std::sort(intervals.begin(), intervals.end());
      std::int64_t expect = 0;
      for (const auto& [lo, hi] : intervals) {
        ASSERT_EQ(lo, expect) << "width " << wide << " round " << round
                              << (lo < expect ? ": overlap" : ": hole");
        ASSERT_GT(hi, lo);
        expect = hi;
      }
      ASSERT_EQ(expect, wide) << "width " << wide << " round " << round;
    }
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

// A nested loop runs on the same lazy engine as a top-level one: its span
// opens the next slot of the worker's stack. Nothing allocates a task, and
// every (outer, inner) pair runs exactly once.
TEST(RangeSpan, NestedLoopOpensItsOwnSlotAndCompletes) {
  rt::runtime rt(4);
  constexpr std::int64_t kOuter = 64;
  constexpr std::int64_t kInner = 256;
  loop_options outer_opt;
  outer_opt.grain = 1;
  std::vector<std::atomic<int>> hits(
      static_cast<std::size_t>(kOuter * kInner));
  for (const policy pol : {policy::dynamic_ws, policy::hybrid}) {
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    const telemetry::counter_set before = rt.tel().totals();
    const loop_result res = for_each(
        rt, 0, kOuter, pol,
        [&](std::int64_t o) {
          for_each(rt, 0, kInner, pol, [&](std::int64_t i) {
            hits[static_cast<std::size_t>(o * kInner + i)].fetch_add(
                1, std::memory_order_relaxed);
          });
        },
        outer_opt);
    ASSERT_TRUE(res.ok()) << policy_name(pol);
    for (std::int64_t i = 0; i < kOuter * kInner; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << policy_name(pol) << " iteration " << i;
    }
    const telemetry::counter_set delta = rt.tel().totals() - before;
    EXPECT_EQ(delta.tasks_run, 0u) << policy_name(pol);
  }
}

// Regression (freed loop_ctx read): a worker whose slot stack is full
// steals half of a peer's span; with no free slot, run_stolen runs the
// range serially through run_range. The last of those chunks may retire
// the peer's loop, which lets the peer return and build its next loop's
// context in the same frame — the serial loop used to re-read ctx->grain
// after that. Here the posting thread holds every slot (kSpanSlots nested
// spans) while it waits on a static loop whose other blocks run dynamic_ws
// loops back to back from one frame, so the ranges it steals land in the
// full stack. Under TSAN the old read is reported, and exactly-once must
// hold anyway.
TEST(RangeSpan, StolenRangeIntoBusySlotNeverReadsRetiredLoop) {
  constexpr std::int64_t kWorkers = 4;
  constexpr std::int64_t kRounds = 32;
  constexpr std::int64_t kInner = 64;
  rt::runtime rt(kWorkers);
  loop_options fine;
  fine.grain = 1;  // two-iteration loops still open a span
  std::vector<std::atomic<int>> hits(
      static_cast<std::size_t>(kWorkers * kRounds * kInner));
  // Block b runs its rounds; the poster's block 0 runs one, in its full
  // stack, and then waits while the peers run theirs.
  const auto block = [&](std::int64_t b) {
    for (std::int64_t r = 0; r < (b == 0 ? 1 : kRounds); ++r) {
      const std::int64_t base = (b * kRounds + r) * kInner;
      for_each(
          rt, 0, kInner, policy::dynamic_ws,
          [&](std::int64_t i) {
            // Only the upper half has work, so a stolen upper half tends
            // to retire after its owner's lower half: the thief's retire
            // is the loop's last.
            volatile std::int64_t work = 0;
            for (std::int64_t k = 0; 2 * i >= kInner && k < 8192; ++k) {
              work = work + k;
            }
            hits[static_cast<std::size_t>(base + i)].fetch_add(
                1, std::memory_order_relaxed);
          },
          fine);
    }
  };
  const std::function<void(std::uint32_t)> descend = [&](std::uint32_t depth) {
    if (depth == rt::worker::kSpanSlots) {
      for_each(rt, 0, kWorkers, policy::static_part, block);
      return;
    }
    for_each(
        rt, 0, 2, policy::dynamic_ws,
        [&](std::int64_t j) {
          if (j == 0) descend(depth + 1);
        },
        fine);
  };
  const telemetry::counter_set before = rt.tel().totals();
  for (int rep = 0; rep < 50; ++rep) {
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    descend(0);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      const bool ran = i < kInner || i >= kRounds * kInner;
      ASSERT_EQ(hits[i].load(), ran ? 1 : 0)
          << "rep " << rep << " iteration " << i;
    }
  }
  // The poster's own round met the full stack every time.
  EXPECT_GT((rt.tel().totals() - before).alloc_fallbacks, 0u);
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

// ---- the measured split floor -----------------------------------------

void spin_for(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// A loop whose last quarter spins 25 us per iteration on 4 workers, posted
// once the three peers have parked (so the spans reach them as handoffs
// and steals, as in a steady-state step). A span whose first chunk lands
// in that quarter measures a grain far above the split target and lowers
// the loop's floor, so the heavy quarter runs in more than two chunks per
// grain. With the grain as a fixed floor it ran in about one chunk per
// grain, plus the boundary pieces of stolen ranges.
void expect_heavy_tail_splits_below_the_grain(policy pol) {
  constexpr std::int64_t kN = 512;
  constexpr std::int64_t kGrain = 8;
  constexpr std::int64_t kHeavyLo = kN - kN / 4;
  constexpr std::uint32_t kWorkers = 4;
  rt::runtime rt(kWorkers);
  while (rt.parking().waiters() != kWorkers - 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  trace::loop_trace tr(kWorkers);
  loop_options opt;
  opt.grain = kGrain;
  opt.trace = &tr;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(kN));
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  const loop_result res = for_each(
      rt, 0, kN, pol,
      [&](std::int64_t i) {
        if (i >= kHeavyLo) spin_for(std::chrono::microseconds(25));
        hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                    std::memory_order_relaxed);
      },
      opt);
  ASSERT_TRUE(res.ok());
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
        << policy_name(pol) << " iteration " << i;
  }
  EXPECT_EQ(tr.total_iterations(), kN);
  std::int64_t heavy_chunks = 0;
  for (const trace::chunk_rec& c : tr.sorted_by_seq()) {
    EXPECT_LE(c.end - c.begin, kGrain) << "the grain stays the largest chunk";
    if (c.end > kHeavyLo) ++heavy_chunks;
  }
  EXPECT_GT(heavy_chunks, 2 * (kN - kHeavyLo) / kGrain) << policy_name(pol);
}

TEST(SplitFloor, DynamicWsHeavyTailSplitsBelowTheGrain) {
  expect_heavy_tail_splits_below_the_grain(policy::dynamic_ws);
}

TEST(SplitFloor, HybridHeavyTailSplitsBelowTheGrain) {
  expect_heavy_tail_splits_below_the_grain(policy::hybrid);
}

// A cheap body never lowers the floor. On one worker nobody steals, so the
// chunk structure is deterministic: max(grain, rest/8) reservations cut
// into grain-sized chunks, exactly as with a fixed floor; and the loop's
// floor is still its grain after a span ran. One loop can still measure a
// slow first chunk: a preemption, a page fault or a sanitizer's lazily
// grown fake stack inside those 16 iterations lowers that loop's floor,
// as it should. So each case gets five loops, and the fewest chunks among
// them must be the fixed-floor count; a floor that every cheap loop
// lowered fails all five.
TEST(SplitFloor, CheapBodyKeepsTheGrainAsItsFloor) {
  constexpr std::int64_t kN = 4096;
  constexpr std::int64_t kGrain = 16;
  constexpr int kLoops = 5;
  std::uint64_t expect = 0;
  for (std::int64_t cur = 0; cur < kN;) {
    const std::int64_t rest = kN - cur;
    const std::int64_t take =
        rest <= kGrain ? rest : std::max(kGrain, rest / 8);
    expect += static_cast<std::uint64_t>((take + kGrain - 1) / kGrain);
    cur += take;
  }
  rt::runtime rt(1);
  loop_options opt;
  opt.grain = kGrain;
  for (const policy pol : {policy::dynamic_ws, policy::hybrid}) {
    std::uint64_t fewest = ~std::uint64_t{0};
    for (int rep = 0; rep < kLoops; ++rep) {
      const telemetry::counter_set before = rt.tel().totals();
      ASSERT_TRUE(parallel_for(rt, 0, kN, pol,
                               [](std::int64_t, std::int64_t) {}, opt)
                      .ok());
      fewest = std::min(fewest, (rt.tel().totals() - before).chunks_run);
    }
    EXPECT_EQ(fewest, expect) << policy_name(pol);
  }
  const auto noop = [](std::int64_t, std::int64_t) {};
  std::int64_t highest_floor = 0;
  for (int rep = 0; rep < kLoops; ++rep) {
    sched::loop_ctx ctx(0, kN, noop, kGrain, nullptr);
    sched::range_span::run(rt.current_worker(), &ctx, 0, kN);
    EXPECT_TRUE(ctx.finished());
    highest_floor = std::max(highest_floor, ctx.split_floor());
  }
  EXPECT_EQ(highest_floor, kGrain);
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
