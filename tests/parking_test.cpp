// Parking subsystem suite: the per-worker parking_lot protocol (prepare /
// cancel / park / unpark / unpark_n and the hint a wake carries), the
// runtime wake path built on it, and a chaos-seeded run that shakes the
// park/unpark edges under fault injection. The wall-clock latency tests
// (the pickup that replaced the old 200 µs poll, whole-team arrival) live
// in wake_latency_test.cpp, which runs serially.
#include "runtime/parking.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "faultsim/faultsim.h"
#include "sched/loop.h"
#include "sched/task_group.h"

namespace hls::rt {
namespace {

using namespace std::chrono_literals;

TEST(ParkingLot, CancelLeavesNoWaiters) {
  parking_lot pl(4);
  EXPECT_EQ(pl.waiters(), 0u);
  (void)pl.prepare_park(2);
  EXPECT_EQ(pl.waiters(), 1u);
  EXPECT_FALSE(pl.cancel_park(2));  // no wake had landed
  EXPECT_EQ(pl.waiters(), 0u);
  EXPECT_FALSE(pl.unpark_one());  // nobody to wake
}

TEST(ParkingLot, UnparkWithNoWaitersIsANoOp) {
  parking_lot pl(2);
  EXPECT_FALSE(pl.unpark_one());
  pl.unpark_all();  // must not crash or wedge anything
  EXPECT_EQ(pl.waiters(), 0u);
}

TEST(ParkingLot, BackstopTimeoutReportsTimeout) {
  parking_lot pl(1);
  const std::uint32_t ticket = pl.prepare_park(0);
  const parking_lot::park_result res = pl.park(0, ticket, 1ms);
  EXPECT_EQ(res.reason, parking_lot::wake_reason::timeout);
  EXPECT_TRUE(res.waited);
}

// Regression (phantom sleep accounting): a park that never blocks must say
// so. After request_stop the park returns immediately with waited == false,
// so the caller cannot count it as an idle sleep.
TEST(ParkingLot, ParkAfterStopDoesNotBlockOrCountAsWait) {
  parking_lot pl(1);
  pl.request_stop();
  const std::uint32_t ticket = pl.prepare_park(0);
  const parking_lot::park_result res = pl.park(0, ticket, 10s);
  EXPECT_EQ(res.reason, parking_lot::wake_reason::stop);
  EXPECT_FALSE(res.waited);
}

TEST(ParkingLot, RequestStopReleasesParkedThreads) {
  parking_lot pl(2);
  std::atomic<int> released{0};
  std::vector<std::thread> threads;
  for (std::uint32_t i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      const std::uint32_t ticket = pl.prepare_park(i);
      const parking_lot::park_result res = pl.park(i, ticket, 10s);
      EXPECT_EQ(res.reason, parking_lot::wake_reason::stop);
      released.fetch_add(1);
    });
  }
  while (pl.waiters() != 2) std::this_thread::yield();
  pl.request_stop();
  for (auto& t : threads) t.join();
  EXPECT_EQ(released.load(), 2);
}

// Targeted wake: with two workers parked, one unpark_one releases exactly
// one of them — the other rides out its backstop. This is the thundering-
// herd property the old global notify_all could not provide.
TEST(ParkingLot, UnparkOneWakesExactlyOne) {
  parking_lot pl(2);
  std::atomic<int> notified{0};
  std::atomic<int> timed_out{0};
  std::vector<std::thread> threads;
  for (std::uint32_t i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      const std::uint32_t ticket = pl.prepare_park(i);
      const parking_lot::park_result res = pl.park(i, ticket, 200ms);
      if (res.reason == parking_lot::wake_reason::notified) {
        notified.fetch_add(1);
      } else {
        timed_out.fetch_add(1);
      }
    });
  }
  while (pl.waiters() != 2) std::this_thread::yield();
  EXPECT_TRUE(pl.unpark_one());
  for (auto& t : threads) t.join();
  EXPECT_EQ(notified.load(), 1);
  EXPECT_EQ(timed_out.load(), 1);
}

// Regression (merged wakes): a second unpark_one used to re-bump the epoch
// of a waiter that already held an unconsumed wake and report success —
// two wakes collapsing into one delivered signal and overcounting
// wakes_sent. A slot with a pending wake must be skipped in favour of a
// different waiter (here there is none, so the call reports failure).
TEST(ParkingLot, UnparkOneSkipsWaiterWithUnconsumedWake) {
  parking_lot pl(2);
  const std::uint32_t ticket = pl.prepare_park(1);
  EXPECT_TRUE(pl.unpark_one());
  EXPECT_FALSE(pl.unpark_one());
  EXPECT_FALSE(pl.park(1, ticket, 10ms).waited);
  // Once the wake is consumed, the slot is eligible again.
  const std::uint32_t t2 = pl.prepare_park(1);
  EXPECT_TRUE(pl.unpark_one());
  EXPECT_FALSE(pl.park(1, t2, 10ms).waited);
}

// Fan-out: one unpark_n reaches up to k distinct waiters and reports how
// many it reached. A waiter still holding an unconsumed wake neither gets
// a second one nor uses up the budget, so the count is the number of
// waiters that will really wake.
TEST(ParkingLot, UnparkNWakesDistinctWaitersAndCountsThem) {
  parking_lot pl(4);
  const std::uint32_t t1 = pl.prepare_park(1);
  const std::uint32_t t2 = pl.prepare_park(2);
  const std::uint32_t t3 = pl.prepare_park(3);
  EXPECT_EQ(pl.unpark_n(0), 0u);
  EXPECT_EQ(pl.unpark_n(1), 1u);
  EXPECT_EQ(pl.unpark_n(3), 2u);  // the pending waiter is skipped
  EXPECT_EQ(pl.unpark_n(3), 0u);  // every waiter already holds a wake
  // Each waiter consumes exactly one wake without blocking.
  EXPECT_FALSE(pl.park(1, t1, 10ms).waited);
  EXPECT_FALSE(pl.park(2, t2, 10ms).waited);
  EXPECT_FALSE(pl.park(3, t3, 10ms).waited);
  EXPECT_EQ(pl.waiters(), 0u);
}

// A wake delivered between prepare_park and cancel_park is consumed by the
// cancel (the canceller is awake and about to process the work it saw); it
// must not linger and block the slot from receiving future wakes.
TEST(ParkingLot, CancelConsumesPendingWake) {
  parking_lot pl(1);
  (void)pl.prepare_park(0);
  EXPECT_TRUE(pl.unpark_one());
  EXPECT_TRUE(pl.cancel_park(0));
  EXPECT_EQ(pl.waiters(), 0u);
  const std::uint32_t ticket = pl.prepare_park(0);
  EXPECT_TRUE(pl.unpark_one());
  EXPECT_FALSE(pl.park(0, ticket, 10ms).waited);
}

// A hint rides with the wake unpark_n delivered: of one hinted and one
// plain wake, exactly one waiter brings the hint back out of park().
TEST(ParkingLot, HintRidesWithItsWake) {
  parking_lot pl(3);
  const std::uint32_t t1 = pl.prepare_park(1);
  const std::uint32_t t2 = pl.prepare_park(2);
  EXPECT_EQ(pl.unpark_n(1, 7), 1u);
  EXPECT_EQ(pl.unpark_n(1), 1u);
  const parking_lot::park_result r1 = pl.park(1, t1, 10ms);
  const parking_lot::park_result r2 = pl.park(2, t2, 10ms);
  EXPECT_EQ(r1.reason, parking_lot::wake_reason::notified);
  EXPECT_EQ(r2.reason, parking_lot::wake_reason::notified);
  EXPECT_TRUE((r1.hint == 7 && r2.hint == parking_lot::kNoHint) ||
              (r1.hint == parking_lot::kNoHint && r2.hint == 7))
      << r1.hint << " " << r2.hint;
}

// cancel_park hands a landed wake's hint over and clears it, so the slot's
// next wake, here a broadcast, carries no stale hint.
TEST(ParkingLot, CancelParkHandsOverTheHintOnce) {
  parking_lot pl(2);
  (void)pl.prepare_park(1);
  EXPECT_EQ(pl.unpark_n(1, 0), 1u);
  std::uint32_t hint = parking_lot::kNoHint;
  EXPECT_TRUE(pl.cancel_park(1, &hint));
  EXPECT_EQ(hint, 0u);
  const std::uint32_t ticket = pl.prepare_park(1);
  pl.unpark_all();
  const parking_lot::park_result res = pl.park(1, ticket, 10ms);
  EXPECT_EQ(res.reason, parking_lot::wake_reason::notified);
  EXPECT_EQ(res.hint, parking_lot::kNoHint);
}

// Stress: waiters park/unpark in a tight loop against a producer issuing
// targeted wakes. Progress (no deadlock, no lost waiter accounting) is the
// property; exact wake pairing is timing-dependent by design.
TEST(ParkingLot, ParkUnparkStress) {
  constexpr std::uint32_t kThreads = 4;
  constexpr int kRounds = 2000;
  parking_lot pl(kThreads);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> parks{0};
  std::vector<std::thread> threads;
  for (std::uint32_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint32_t ticket = pl.prepare_park(i);
        if (stop.load(std::memory_order_acquire)) {
          pl.cancel_park(i);
          break;
        }
        (void)pl.park(i, ticket, 100us);
        parks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Start the rounds once a parker has completed a park (bounded): on a
  // loaded host the producer could otherwise finish every round and stop
  // the parkers before any of them ran.
  const auto parker_ran = std::chrono::steady_clock::now() + 5s;
  while (parks.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < parker_ran) {
    std::this_thread::yield();
  }
  for (int r = 0; r < kRounds; ++r) {
    (void)pl.unpark_one();
    if (r % 64 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  pl.unpark_all();
  for (auto& t : threads) t.join();
  EXPECT_EQ(pl.waiters(), 0u);
  EXPECT_GT(parks.load(), 0u);
}

// ---- runtime-level wake behaviour ------------------------------------

TEST(RuntimeWake, WakeCountersAccountTargetedWakes) {
  runtime rt(2);
  worker& w0 = rt.current_worker();
  std::atomic<int> count{0};
  struct count_task final : task {
    explicit count_task(std::atomic<int>& c) : c_(c) {}
    void execute(worker&) override { c_.fetch_add(1); }
    std::atomic<int>& c_;
  };
  for (int round = 0; round < 50; ++round) {
    // Let worker 1 park: wait until it has (bounded; on a loaded host it
    // can stay on its yield rungs well past a fixed sleep), then sleep.
    const auto parked_by = std::chrono::steady_clock::now() + 2s;
    while (rt.parking().waiters() == 0 &&
           std::chrono::steady_clock::now() < parked_by) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(500us);
    w0.push(new count_task(count));
  }
  w0.work_until([&] { return count.load() == 50; });
  const telemetry::counter_set total = rt.tel().totals();
  // With the waits above, worker 1 parks between pushes, so targeted
  // wakes must have been sent (exact counts are timing-dependent).
  EXPECT_GT(total.wakes_sent, 0u);
  EXPECT_GT(total.idle_sleeps, 0u);
}

// A span-open wake names the span's owner: a peer parked when worker 0
// opens a dynamic_ws span is woken with worker 0's id, and its first probe
// takes part of that span. Hinted wakes are a subset of the wakes sent,
// and each hint is spent at most once, so consumed <= sent <= wakes_sent.
TEST(RuntimeWake, SpanOpenWakeSendsThePeerToTheSpan) {
  constexpr std::int64_t kN = std::int64_t{1} << 14;
  runtime rt(2);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(kN));
  for (int round = 0;
       round < 100 && rt.tel().totals().handoffs_consumed == 0; ++round) {
    // The wake needs a parked peer at span open (bounded wait, as above).
    const auto parked_by = std::chrono::steady_clock::now() + 2s;
    while (rt.parking().waiters() == 0 &&
           std::chrono::steady_clock::now() < parked_by) {
      std::this_thread::yield();
    }
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    const loop_result res =
        for_each(rt, 0, kN, policy::dynamic_ws, [&](std::int64_t i) {
          hits[static_cast<std::size_t>(i)].fetch_add(
              1, std::memory_order_relaxed);
        });
    ASSERT_TRUE(res.ok());
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "iteration " << i << " round " << round;
    }
  }
  const telemetry::counter_set total = rt.tel().totals();
  EXPECT_GT(total.handoffs_consumed, 0u);
  EXPECT_LE(total.handoffs_consumed, total.handoffs_sent);
  EXPECT_LE(total.handoffs_sent, total.wakes_sent);
}

// Chaos-seeded parking run: fault injection skips pops, forces empty steal
// probes, and delays workers — stressing exactly the check-then-park
// re-check paths (a chaos-skipped pop leaves work in the skipper's own
// deque, which work_visible must see). Loops must still complete and the
// injector must actually have fired.
TEST(RuntimeWake, ChaosSeededParkingRunsComplete) {
  constexpr std::uint32_t kWorkers = 4;
  rt::runtime rt(kWorkers);
  std::uint64_t faults = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto inj = std::make_shared<faultsim::injector>(
        faultsim::config::default_mix(seed), kWorkers);
    rt.set_chaos(inj);
    std::atomic<std::int64_t> sum{0};
    const loop_result res = for_each(
        rt, 0, 256, policy::hybrid,
        [&](std::int64_t i) { sum.fetch_add(i, std::memory_order_relaxed); });
    ASSERT_TRUE(res.ok()) << "seed " << seed;
    ASSERT_EQ(sum.load(), 256 * 255 / 2) << "seed " << seed;
    faults += inj->fired_total();
  }
  rt.set_chaos(nullptr);
  EXPECT_GT(faults, 0u);
}

// Steals feed the telemetry counters: worker 0 spawns a burst and then
// refuses to help (spin-yield, no popping), so every task must reach the
// other workers through steals — one task per steal, even from a deep
// victim deque.
TEST(RuntimeWake, EveryTaskReachesAThiefByItsOwnSteal) {
  runtime rt(4);
  task_group tg(rt);
  std::atomic<int> ran{0};
  constexpr int kTasks = 512;
  for (int i = 0; i < kTasks; ++i) {
    tg.spawn([&] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  while (ran.load(std::memory_order_acquire) < kTasks) {
    std::this_thread::yield();
  }
  tg.wait();
  EXPECT_EQ(ran.load(), kTasks);
  const telemetry::counter_set total = rt.tel().totals();
  EXPECT_EQ(total.steals, static_cast<std::uint64_t>(kTasks));
}

}  // namespace
}  // namespace hls::rt
