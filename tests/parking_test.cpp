// Parking subsystem suite: the per-worker parking_lot protocol (prepare /
// cancel / park / unpark / unpark_n), the runtime wake path built on it,
// the wake-latency regression that replaced the old 200 µs poll, the
// whole-team arrival of a static loop posted to a parked runtime, and a
// chaos-seeded run that shakes the park/unpark edges under fault injection.
#include "runtime/parking.h"

#include <gtest/gtest.h>

#include <algorithm>
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

// The core lost-wakeup guarantee: a wake landing between prepare_park and
// park() bumps the announced waiter's epoch, so park() sees a stale ticket
// and returns immediately instead of blocking for the full backstop.
TEST(ParkingLot, WakeBetweenPrepareAndParkIsConsumed) {
  parking_lot pl(1);
  const std::uint32_t ticket = pl.prepare_park(0);
  EXPECT_TRUE(pl.unpark_one());
  const auto t0 = std::chrono::steady_clock::now();
  const parking_lot::park_result res = pl.park(0, ticket, 10ms);
  const auto dt = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(res.reason, parking_lot::wake_reason::notified);
  EXPECT_FALSE(res.waited);
  EXPECT_LT(dt, 5ms);
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

// Wake-latency regression: a task posted to a fully idle runtime must be
// picked up far below the old 200 µs poll interval, because notify_work
// now issues a targeted unpark instead of relying on the timeout. Worker 0
// pushes and then spins (never popping), so the pickup is necessarily a
// wake-then-steal by a background worker. The median over many trials
// guards against scheduler noise on loaded CI machines.
TEST(RuntimeWake, PostedTaskPickupBeatsThePollInterval) {
  struct flag_task final : task {
    explicit flag_task(std::atomic<bool>& f) : f_(f) {}
    void execute(worker&) override { f_.store(true, std::memory_order_release); }
    std::atomic<bool>& f_;
  };

  runtime rt(2);
  worker& w0 = rt.current_worker();
  constexpr int kTrials = 31;
  std::vector<double> us;
  us.reserve(kTrials);
  for (int trial = 0; trial < kTrials; ++trial) {
    // Let worker 1 go fully idle (parked) before the post.
    std::this_thread::sleep_for(1ms);
    std::atomic<bool> ran{false};
    const auto t0 = std::chrono::steady_clock::now();
    w0.push(new flag_task(ran));
    // Yield while observing: on a single-CPU machine a hard spin would
    // starve the woken worker for a scheduler quantum (milliseconds) and
    // measure preemption, not the wake path.
    while (!ran.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    const auto dt = std::chrono::steady_clock::now() - t0;
    us.push_back(std::chrono::duration<double, std::micro>(dt).count());
  }
  std::nth_element(us.begin(), us.begin() + kTrials / 2, us.end());
  const double median_us = us[kTrials / 2];
  // Well under the 200 µs backstop: the wake is targeted, not polled.
  // (The bound is loose — locally this measures ~5-30 µs — to stay green
  // under sanitizers and CI load.)
  EXPECT_LT(median_us, 150.0) << "median pickup latency regressed";
}

// Regression (team arrival): a board post used to wake one parked worker,
// and a static block runs only on its owner, so every other owner slept
// out the park backstop before its block could start. With a 1 s backstop
// that wait is unmistakable; the post must now wake the whole parked team.
TEST(RuntimeWake, StaticPostWakesTheWholeParkedTeam) {
  constexpr std::uint32_t kWorkers = 4;
  runtime_options o;
  o.num_workers = kWorkers;
  o.park_backstop = 1s;
  runtime rt(o);
  // Let the three background workers go idle and park.
  while (rt.parking().waiters() != kWorkers - 1) {
    std::this_thread::sleep_for(100us);
  }
  const std::uint64_t wakes_before = rt.tel().totals().wakes_sent;
  std::vector<std::atomic<std::uint32_t>> ran_on(kWorkers);
  for (auto& r : ran_on) r.store(kWorkers, std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  parallel_for(rt, 0, kWorkers, policy::static_part,
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t i = lo; i < hi; ++i) {
                   ran_on[static_cast<std::size_t>(i)].store(
                       rt.current_worker().id(), std::memory_order_relaxed);
                 }
               });
  const auto dt = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(dt, 50ms) << "a static owner waited for the park backstop";
  for (std::uint32_t b = 0; b < kWorkers; ++b) {
    EXPECT_EQ(ran_on[b].load(), b) << "block " << b << " left its owner";
  }
  EXPECT_GE(rt.tel().totals().wakes_sent - wakes_before, kWorkers - 1);
}

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
    std::this_thread::sleep_for(500us);  // let worker 1 park
    w0.push(new count_task(count));
  }
  w0.work_until([&] { return count.load() == 50; });
  const telemetry::counter_set total = rt.tel().totals();
  // With the sleeps above, worker 1 parks between pushes, so targeted
  // wakes must have been sent (exact counts are timing-dependent).
  EXPECT_GT(total.wakes_sent, 0u);
  EXPECT_GT(total.idle_sleeps, 0u);
}

// Chaos-seeded parking run: fault injection skips pops, forces empty steal
// probes, and delays workers — stressing exactly the check-then-park
// re-check paths (a chaos-skipped pop leaves work in the skipper's own
// deque, which work_visible must see). Loops must still complete and the
// injector must actually have fired.
TEST(RuntimeWake, ChaosSeededParkingRunsComplete) {
  constexpr std::uint32_t kWorkers = 4;
  rt::runtime rt(kWorkers);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    rt.set_chaos(std::make_shared<faultsim::injector>(
        faultsim::config::default_mix(seed), kWorkers));
    std::atomic<std::int64_t> sum{0};
    const loop_result res = for_each(
        rt, 0, 256, policy::hybrid,
        [&](std::int64_t i) { sum.fetch_add(i, std::memory_order_relaxed); });
    ASSERT_TRUE(res.ok()) << "seed " << seed;
    ASSERT_EQ(sum.load(), 256 * 255 / 2) << "seed " << seed;
  }
  rt.set_chaos(nullptr);
  EXPECT_GT(rt.tel().totals().faults_injected, 0u);
}

// Batched steals feed the telemetry counters: worker 0 spawns a burst and
// then refuses to help (spin-yield, no popping), so every task must reach
// the other workers through steals — and with a deep victim deque those
// steals move multiple tasks per claim.
TEST(RuntimeWake, BatchStealsMoveSurplusTasks) {
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
  EXPECT_GT(total.steals, 0u);
  // Multi-task batches actually happened: more tasks moved than there were
  // successful claims.
  EXPECT_GT(total.batch_steal_tasks, total.steals);
  // And the victim-affinity fast path fired: after one successful steal
  // from worker 0 the next round probes it first, while its deque is still
  // deep enough to hit.
  EXPECT_GT(total.affinity_hits, 0u);
}

}  // namespace
}  // namespace hls::rt
