// Wall-clock tests of the idle, wake and watchdog paths: each asserts that
// a wake, a re-check or a park bail-out completes far below the park
// backstop, or that the watchdog classes a long chunk by whether it runs.
// They measure time, so concurrent test binaries that take the CPUs can
// fail them; CMake registers this binary RUN_SERIAL.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/health.h"
#include "runtime/parking.h"
#include "runtime/runtime.h"
#include "runtime/task.h"
#include "sched/loop.h"

namespace hls::rt {
namespace {

using namespace std::chrono_literals;

class counting_task final : public task {
 public:
  explicit counting_task(std::atomic<int>& counter) : counter_(counter) {}
  void execute(worker&) override { counter_.fetch_add(1); }

 private:
  std::atomic<int>& counter_;
};

// ---- parking lot ------------------------------------------------------

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

// ---- runtime idle park -------------------------------------------------

// Regression (lost wakeup): a notify_work() that lands between a worker's
// last failed steal probe and its waiter announcement used to be dropped,
// leaving the worker to ride out the full timed wait with work pending.
// idle_park re-checks for visible work after prepare_park; with a task
// already queued it must cancel the park immediately instead of blocking.
TEST(Runtime, IdleParkBailsOutWhenWorkIsVisible) {
  runtime rt(1);
  worker& w = rt.current_worker();
  std::atomic<int> count{0};
  w.push(new counting_task(count));
  const auto t0 = std::chrono::steady_clock::now();
  const parking_lot::park_result out = rt.idle_park(w);
  const auto dt = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(out.waited);
  // Far below the park backstop: the re-check fired, not the timeout.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::microseconds>(dt).count(),
            150);
  EXPECT_TRUE(rt.work_visible());
  w.work_until([&] { return count.load() == 1; });
}

// Regression (untracked completion edge): a completion broadcast
// (loop_ctx::retire / task_group drain) that fires after a joiner's last
// predicate check but before it announces itself as a waiter finds nobody
// to unpark — the edge is visible only through the predicate itself. The
// re-check must therefore cover the caller's predicate, not just
// work_visible(): with the predicate already satisfied and no work
// anywhere, the park must cancel instead of riding out the backstop.
TEST(Runtime, IdleParkBailsOutWhenPredicateAlreadySatisfied) {
  runtime rt(1);
  EXPECT_FALSE(rt.work_visible());
  const bool completed = true;
  const auto pred = [&] { return completed; };
  const auto t0 = std::chrono::steady_clock::now();
  const parking_lot::park_result out =
      rt.idle_park(rt.current_worker(), park_predicate(pred));
  const auto dt = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(out.waited);
  // Far below the park backstop: the re-check fired, not the timeout.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::microseconds>(dt).count(),
            150);
}

// A wake sent while a worker is between prepare_park and park() must not
// be lost: unpark_one bumps the announced waiter's epoch, so the later
// park() call consumes the ticket and returns without blocking.
TEST(Runtime, UnparkBeforeParkIsNotLost) {
  runtime rt(1);
  parking_lot& pl = rt.parking();
  const std::uint32_t ticket = pl.prepare_park(0);
  EXPECT_TRUE(pl.unpark_one());
  const auto t0 = std::chrono::steady_clock::now();
  const parking_lot::park_result res =
      pl.park(0, ticket, std::chrono::microseconds(200));
  const auto dt = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(res.waited);
  EXPECT_EQ(res.reason, parking_lot::wake_reason::notified);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::microseconds>(dt).count(),
            150);
}

// ---- runtime-level wake behaviour ---------------------------------------

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

// ---- watchdog -----------------------------------------------------------

// A chunk body beats no heartbeat until it ends, so a body five progress
// budgets long is silent for five budgets. Spinning, it is busy on its
// thread's CPU clock and the watchdog must not call it a stall; asleep,
// it is off-CPU and every chunk must register one. One worker, so the
// count is the chunk's alone: a peer woken onto a CPU the spinner holds
// waits on the run queue, silent and off-CPU — a real stall, not this one.
TEST(WatchdogClock, LongChunkStallsOnlyWhenOffCpu) {
  constexpr int kLoops = 10;
  constexpr auto kBudget = 2ms;
  runtime_options o;
  o.num_workers = 1;
  o.progress_budget = kBudget;
  runtime rt(o);
  const health_watchdog& wd = *rt.watchdog();
  // Stalls over kLoops chunks the watchdog scanned at least five times (a
  // chunk lasts ten scan intervals). The watchdog's own thread can be kept
  // off the CPU too, and a chunk it never saw cannot be classified. A
  // spinning chunk can itself be descheduled by other processes: once its
  // clock reads are half a budget apart, it was off the CPU long enough
  // to be a real stall, so it is no sample of an on-CPU body. Either kind
  // of chunk is run again: beside four CPU-bound processes on four CPUs,
  // 10-90 % of spinning chunks are descheduled that long, so up to
  // 19 * kLoops extra times.
  const auto stalls_over_loops = [&](bool spin) {
    std::uint64_t stalls = 0;
    int judged = 0;
    for (int i = 0; i < 20 * kLoops && judged < kLoops; ++i) {
      const std::uint64_t stalls0 = rt.tel().totals().stalls_detected;
      const std::uint64_t scans0 = wd.scans();
      std::chrono::steady_clock::duration longest_gap{};
      const loop_result res =
          for_each(rt, 0, 1, policy::hybrid, [&](std::int64_t) {
            const auto end = std::chrono::steady_clock::now() + 5 * kBudget;
            if (!spin) std::this_thread::sleep_until(end);
            for (auto prev = std::chrono::steady_clock::now(); prev < end;) {
              const auto now = std::chrono::steady_clock::now();
              longest_gap = std::max(longest_gap, now - prev);
              prev = now;
            }
          });
      EXPECT_TRUE(res.ok());
      if (wd.scans() - scans0 < 5) continue;
      if (spin && longest_gap >= kBudget / 2) continue;
      stalls += rt.tel().totals().stalls_detected - stalls0;
      ++judged;
    }
    EXPECT_EQ(judged, kLoops) << "the watchdog missed too many chunks";
    return stalls;
  };
  const std::uint64_t spinning = stalls_over_loops(/*spin=*/true);
  const std::uint64_t sleeping = stalls_over_loops(/*spin=*/false);
  EXPECT_LT(2 * spinning, std::uint64_t{kLoops}) << spinning << " stalls";
  EXPECT_GE(sleeping, std::uint64_t{kLoops});
}

}  // namespace
}  // namespace hls::rt
