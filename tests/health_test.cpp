// Health layer tests: runtime_options validation and CLI parsing, the
// watchdog's heartbeat classification (driven by manual scans for
// determinism), rescue escalation through the board into the hybrid
// record's earmark early-release, and the live service thread.
#include "runtime/health.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "runtime/runtime.h"
#include "sched/loop.h"
#include "sched/policies.h"
#include "telemetry/registry.h"
#include "util/cli.h"

namespace hls {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------ runtime_options

TEST(RuntimeOptions, ValidateRejectsOutOfRangeKnobs) {
  rt::runtime_options o;
  o.num_workers = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);

  o = rt::runtime_options{};
  o.park_backstop = std::chrono::microseconds(0);
  EXPECT_THROW(o.validate(), std::invalid_argument);

  o = rt::runtime_options{};
  o.park_backstop = std::chrono::microseconds(2'000'000);  // > 1s
  EXPECT_THROW(o.validate(), std::invalid_argument);

  o = rt::runtime_options{};
  o.progress_budget = std::chrono::microseconds(5);  // < 10us
  EXPECT_THROW(o.validate(), std::invalid_argument);

  o = rt::runtime_options{};
  o.progress_budget = std::chrono::microseconds(61'000'000);  // > 60s
  EXPECT_THROW(o.validate(), std::invalid_argument);

  o = rt::runtime_options{};
  EXPECT_NO_THROW(o.validate());
}

TEST(RuntimeOptions, EffectiveProgressBudgetDefaultsTo16xBackstop) {
  rt::runtime_options o;
  o.park_backstop = 250us;
  EXPECT_EQ(o.effective_progress_budget(), 16 * 250us);
  o.progress_budget = 1234us;
  EXPECT_EQ(o.effective_progress_budget(), 1234us);
}

TEST(RuntimeOptions, FromCliParsesEveryKnob) {
  const char* argv[] = {"prog",
                        "--workers=3",
                        "--park-backstop-us=500",
                        "--progress-budget-us=4000",
                        "--watchdog=0",
                        "--chaos=claim_fail=0.1"};
  const cli c(6, argv);
  const rt::runtime_options o = rt::runtime_options::from_cli(c);
  EXPECT_EQ(o.num_workers, 3u);
  EXPECT_EQ(o.park_backstop, 500us);
  EXPECT_EQ(o.progress_budget, 4000us);
  EXPECT_FALSE(o.watchdog);
  EXPECT_EQ(o.chaos, "claim_fail=0.1");
}

TEST(RuntimeOptions, FromCliRejectsOutOfRangeFlags) {
  const char* argv[] = {"prog", "--park-backstop-us=0"};
  const cli c(2, argv);
  EXPECT_THROW(rt::runtime_options::from_cli(c), std::invalid_argument);
}

TEST(RuntimeOptions, RuntimeUsesTheConfiguredBackstopAsWatchdogDefault) {
  rt::runtime_options o;
  o.num_workers = 1;
  o.park_backstop = 300us;
  rt::runtime rt(o);
  ASSERT_NE(rt.watchdog(), nullptr);
  EXPECT_EQ(rt.watchdog()->progress_budget(), 16 * 300us);
}

// ------------------------------------------------------------ watchdog

TEST(Watchdog, DisabledByOptionMeansNoServiceThread) {
  rt::runtime_options o;
  o.num_workers = 1;
  o.watchdog = false;
  rt::runtime rt(o);
  EXPECT_EQ(rt.watchdog(), nullptr);
}

TEST(Watchdog, ServiceThreadScansButNeverFlagsAnIdleRuntime) {
  rt::runtime_options o;
  o.num_workers = 2;
  o.progress_budget = 500us;
  rt::runtime rt(o);
  ASSERT_NE(rt.watchdog(), nullptr);
  std::this_thread::sleep_for(50ms);
  // Scans happen on the budget/2 cadence...
  EXPECT_GT(rt.watchdog()->scans(), 0u);
  // ...but with no loop open, the silent user thread (worker 0) and the
  // parked worker must not be classified stalled.
  EXPECT_EQ(rt.tel().totals().stalls_detected, 0u);
  EXPECT_NE(rt.watchdog()->health_of(0), rt::worker_health::stalled);
}

// Deterministic classification: one worker (this thread), manual scans.
TEST(Watchdog, ManualScanClassifiesStallArmsRescueAndRecovers) {
  rt::runtime_options o;
  o.num_workers = 1;
  o.watchdog = false;  // single-writer rule: only the manual scanner below
  rt::runtime rt(o);

  rt::health_watchdog::options wopt;
  wopt.progress_budget = 100us;
  wopt.start_thread = false;
  rt::health_watchdog wd(rt, wopt);

  // Silence with no loop open: never a stall (worker 0 belongs to the
  // user between loops).
  std::this_thread::sleep_for(1ms);
  EXPECT_EQ(wd.scan(), 0u);
  EXPECT_NE(wd.health_of(0), rt::worker_health::stalled);
  EXPECT_EQ(rt.tel().totals().stalls_detected, 0u);

  // Open a hybrid loop whose straggler (worker 0 == this thread) claimed
  // its designated partition 0 and then went silent: the classic stalled
  // earmark. Partitions 1..3 are the stranded remainder of its subtree.
  std::atomic<int> executed{0};
  // Named body: loop_ctx stores a non-owning function_ref, so the callable
  // must outlive the record (parallel_for normally guarantees this).
  const auto body = [&](std::int64_t lo, std::int64_t hi) {
    executed.fetch_add(static_cast<int>(hi - lo), std::memory_order_relaxed);
  };
  sched::loop_ctx ctx(0, 64, body, /*grain=*/16, /*trace=*/nullptr);
  sched::hybrid_record rec(ctx, 4);
  ASSERT_TRUE(rec.partitions().try_claim(0));
  const int slot = rt.loop_board().post(&rec);
  ASSERT_GE(slot, 0);

  std::this_thread::sleep_for(1ms);  // silence >= budget, loop now open
  EXPECT_EQ(wd.scan(), 1u);
  EXPECT_EQ(wd.health_of(0), rt::worker_health::stalled);
  EXPECT_TRUE(rec.rescue_armed());
  EXPECT_EQ(rt.tel().totals().stalls_detected, 1u);

  // A repeated scan while still stalled re-sends the rescue but does not
  // double-count the detection.
  std::this_thread::sleep_for(1ms);
  EXPECT_EQ(wd.scan(), 1u);
  EXPECT_EQ(rt.tel().totals().stalls_detected, 1u);

  // A helper arriving at the armed record sweeps the stranded earmarks:
  // partitions 1..3 execute exactly once here even though the designated
  // branch would normally trust the (stalled) claimant to cover them.
  EXPECT_TRUE(rec.participate(rt.worker_at(0)));
  EXPECT_TRUE(rec.partitions().all_claimed());
  EXPECT_EQ(executed.load(), 48);  // partitions 1..3, 16 iterations each
  EXPECT_EQ(rt.tel().totals().earmarks_rescued, 3u);

  // Executing those chunks beat the heartbeat, so the next scan recovers.
  EXPECT_EQ(wd.scan(), 0u);
  EXPECT_EQ(wd.health_of(0), rt::worker_health::healthy);

  rt.loop_board().clear(slot);
}

}  // namespace
}  // namespace hls
