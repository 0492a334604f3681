// The verification suite: bounded-exhaustive model checks of the shipping
// protocol cores (claim + bitmap claim flags, ws_deque, range_slot's
// one-word claims, parking and its unpark_n fan-out) against the exact
// templates the runtime instantiates, plus the negative half of the
// argument — the deliberately-broken protocol variants that the harness
// must catch, each with a replayable failing schedule. A harness that
// cannot detect a reintroduced bug proves nothing by passing.
//
// Depth policy: these run in the default ctest pass, so bounds are chosen
// to finish in well under a minute total. ci.sh's HLS_VERIFY_DEEP=1 sweep
// re-runs the CLI with higher bounds and sizes.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "verify/models/models.h"
#include "verify/sched.h"
#include "verify/shim.h"
#include "verify/vclock.h"

namespace hls::verify {
namespace {

options exhaustive(int bound) {
  options opt;
  opt.mode = options::run_mode::exhaustive;
  opt.preemption_bound = bound;
  return opt;
}

// ---- positive: the shipping protocols, exhaustively -----------------------

TEST(VerifyClaim, ExactlyOnceAndLemma4Exhaustive) {
  for (const auto& [w, r] : {std::pair{1u, 1ull}, {2u, 2ull}, {3u, 4ull}}) {
    auto m = make_claim_model(w, r);
    const auto res = explore(*m, exhaustive(-1));  // unbounded: full space
    EXPECT_TRUE(res.ok) << res.failure;
    EXPECT_TRUE(res.exhausted);
    EXPECT_GT(res.states_explored, 0u) << "fingerprint pruning inactive";
  }
}

TEST(VerifyDeque, ExactlyOnceExhaustiveBound3) {
  auto m = make_deque_model(false);
  const auto res = explore(*m, exhaustive(3));
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_TRUE(res.exhausted);
  EXPECT_GT(res.executions, 1000u);
}

TEST(VerifyRangeSlot, ExactlyOnceAcrossReopenExhaustiveBound3) {
  auto m = make_range_slot_model(false);
  const auto res = explore(*m, exhaustive(3));
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_TRUE(res.exhausted);
}

TEST(VerifyRangeWord, SplitHiHandshakeExactlyOnceExhaustiveBound3) {
  // The one-word claims: exactly-once across owner reserve CASes
  // (including the retry after a steal) and thief steal CASes (including
  // the miss after a reserve).
  auto m = make_range_word_model(false);
  const auto res = explore(*m, exhaustive(3));
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_TRUE(res.exhausted);
}

TEST(VerifyRangeWord, LoweredFloorExactlyOnceExhaustiveBound3) {
  // The owner lowers the split floor between two reserves while the thief
  // steals: the region its first batch leaves is splittable only at the
  // lowered floor, and the thief's probes race the lowering. Exactly-once
  // and no hole at the frontier still hold.
  auto m = make_range_floor_model();
  const auto res = explore(*m, exhaustive(3));
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_TRUE(res.exhausted);
}

TEST(VerifyClaimBitmap, BatchedSweepExactlyOnceExhaustiveUnbounded) {
  // Bit-packed claim flags + the word-at-a-time leftover sweep; the space
  // is small enough to exhaust unbounded, so this is a full proof (modulo
  // the harness's SC exploration).
  auto m = make_claim_bitmap_model(false);
  const auto res = explore(*m, exhaustive(-1));
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_TRUE(res.exhausted);
}

TEST(VerifyParking, NoLostWakeupExhaustiveBound3) {
  auto m = make_parking_model(false);
  const auto res = explore(*m, exhaustive(3));
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_TRUE(res.exhausted);
}

TEST(VerifyParkingFanout, EveryDeliveredWakeReachesAWaiterExhaustiveBound2) {
  // unpark_n fan-out: one unpark_n(2) must bring both parked team members
  // to their blocks, with a still-pending wake from the previous post in
  // the mix, and every wake it counts must be received by a waiter. Bound
  // 2 keeps this in ctest time; ci.sh's deep sweep re-runs at bound 3.
  auto m = make_parking_fanout_model(false);
  const auto res = explore(*m, exhaustive(2));
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_TRUE(res.exhausted);
  EXPECT_GT(res.executions, 1000u);
}

TEST(VerifyParkingJoin, CompletionEdgeNeverLostExhaustiveBound3) {
  // A work_until joiner parked with no visible work is woken by the retire
  // broadcast alone; with idle_park's predicate re-check the edge is never
  // lost, without leaning on the (harness-disabled) backstop timeout.
  auto m = make_join_model(false);
  const auto res = explore(*m, exhaustive(3));
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_TRUE(res.exhausted);
}

TEST(VerifyHandoff, ExactlyOnceAndNoLostWorkExhaustiveBound2) {
  // Push-based handoff: deposit/publish + targeted unpark_at vs the
  // owner's consume, a thief's poach, and the donor's failed-wake reclaim.
  // Lost work is modeled as a deadlock (the donor cannot retire the loop
  // until the payload executes), so exhausting clean proves both
  // exactly-once and no-lost-work. Bound 2 keeps this in ctest time;
  // ci.sh's sweeps re-run at bound 3.
  auto m = make_handoff_model(false);
  const auto res = explore(*m, exhaustive(2));
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_TRUE(res.exhausted);
  EXPECT_GT(res.executions, 1000u);
}

// ---- negative: each broken variant must be caught and replayable ----------

// Runs the broken model, requires a failure with a schedule, then replays
// that schedule and requires the same class of failure again.
void expect_caught_and_replayable(std::unique_ptr<model> fresh_a,
                                  std::unique_ptr<model> fresh_b,
                                  int bound) {
  const auto res = explore(*fresh_a, exhaustive(bound));
  ASSERT_FALSE(res.ok) << "broken variant was NOT detected";
  EXPECT_FALSE(res.failure.empty());
  ASSERT_FALSE(res.schedule.empty());
  EXPECT_FALSE(res.trace.empty());

  options replay;
  replay.mode = options::run_mode::replay;
  replay.schedule = res.schedule;
  const auto again = explore(*fresh_b, replay);
  ASSERT_FALSE(again.ok) << "recorded schedule did not reproduce";
  EXPECT_EQ(again.executions, 1u);
  EXPECT_EQ(again.failure, res.failure);
}

TEST(VerifyBroken, DequeLastPopWithoutCasIsCaught) {
  // Taking the last element with a plain top_ store instead of the CAS
  // lets a thief's committed steal and the owner's pop both claim it: the
  // last task double-executes.
  expect_caught_and_replayable(make_deque_model(true), make_deque_model(true),
                               3);
  const auto res = explore(*make_deque_model(true), exhaustive(3));
  EXPECT_NE(res.failure.find("executed 2 times"), std::string::npos)
      << res.failure;
}

TEST(VerifyBroken, RangeSlotCloseWithoutDrainIsCaught) {
  // Downgrading close() to a plain store with no reader drain lets the
  // next open() rewrite the span fields while a thief still reads them —
  // flagged by the vector-clock checker as a data race.
  expect_caught_and_replayable(make_range_slot_model(true),
                               make_range_slot_model(true), 3);
}

TEST(VerifyBroken, RangeWordBlindReserveIsCaught) {
  // A load-then-store reserve writes back the hi a steal lowered between
  // the two: the owner later reserves the stolen range again — a
  // double-executed iteration.
  expect_caught_and_replayable(make_range_word_model(true),
                               make_range_word_model(true), 3);
  const auto res = explore(*make_range_word_model(true), exhaustive(3));
  EXPECT_NE(res.failure.find("executed 2 times"), std::string::npos)
      << res.failure;
}

TEST(VerifyBroken, ClaimBitmapNonAtomicSweepIsCaught) {
  // A load-then-store sweep RMW loses concurrent claims between the two
  // op points: both sweepers win the same leftover bit and the partition
  // double-executes.
  expect_caught_and_replayable(make_claim_bitmap_model(true),
                               make_claim_bitmap_model(true), 3);
}

TEST(VerifyBroken, ParkingWithoutRecheckIsCaught) {
  // Skipping the post-announce re-check loses the wake that landed between
  // the pre-check and prepare_park: the consumer parks forever, reported
  // as a deadlock (condvar waits are untimed under the harness).
  expect_caught_and_replayable(make_parking_model(true),
                               make_parking_model(true), 3);
  const auto res = explore(*make_parking_model(true), exhaustive(3));
  EXPECT_NE(res.failure.find("deadlock"), std::string::npos) << res.failure;
}

TEST(VerifyBroken, ParkingFanoutMergedWakeIsCaught) {
  // Letting unpark_n re-bump a slot whose wake is still pending merges two
  // wakes into one signal: the fan-out reports a wake no waiter receives.
  expect_caught_and_replayable(make_parking_fanout_model(true),
                               make_parking_fanout_model(true), 2);
  const auto res = explore(*make_parking_fanout_model(true), exhaustive(2));
  EXPECT_NE(res.failure.find("lost wakeup"), std::string::npos)
      << res.failure;
}

TEST(VerifyBroken, JoinWithoutRetireBroadcastIsCaught) {
  // Omitting the unpark_all after the done edge leaves the interleaving
  // where the joiner announced and parked just before done was set with
  // no wake at all — the join would lean on the real-time backstop, which
  // the harness models as a deadlock.
  expect_caught_and_replayable(make_join_model(true), make_join_model(true),
                               3);
  const auto res = explore(*make_join_model(true), exhaustive(3));
  EXPECT_NE(res.failure.find("deadlock"), std::string::npos) << res.failure;
}

TEST(VerifyBroken, HandoffDroppedWithoutRescueIsCaught) {
  // Dropping the deposit after a failed targeted wake — with the donor
  // reclaim, the idle re-check's mailbox term, and the poach sweep all
  // removed — strands the payload: the donor spins on work nobody can see
  // and the consumer parks with nobody left to wake it. Reported as a
  // deadlock with the stranding interleaving.
  expect_caught_and_replayable(make_handoff_model(true),
                               make_handoff_model(true), 3);
  const auto res = explore(*make_handoff_model(true), exhaustive(3));
  EXPECT_NE(res.failure.find("deadlock"), std::string::npos) << res.failure;
}

// ---- harness mechanics ----------------------------------------------------

// Exploration must be deterministic: identical options => identical
// counters, failure, and schedule.
TEST(VerifyHarness, ExplorationIsDeterministic) {
  const auto a = explore(*make_deque_model(true), exhaustive(3));
  const auto b = explore(*make_deque_model(true), exhaustive(3));
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.schedule, b.schedule);
}

// A model-side check() failure is reported with the failing message and a
// schedule, not an abort.
TEST(VerifyHarness, ModelAssertionFailureIsReported) {
  struct failing : model {
    const char* name() const override { return "failing"; }
    int threads() const override { return 1; }
    void setup() override {}
    void run(int) override { check(false, "intentional"); }
  } m;
  const auto res = explore(m, exhaustive(-1));
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("intentional"), std::string::npos);
}

// The weak-acquire lint: an acquire load observing a value stored with no
// release semantics (and no covering fence) is counted, never failed.
TEST(VerifyHarness, WeakAcquireIsWarnedNotFailed) {
  struct weak : model {
    struct state {
      hls::verify::atomic<int> x{0};
    };
    std::unique_ptr<state> st;
    const char* name() const override { return "weak-acquire"; }
    int threads() const override { return 2; }
    void setup() override { st = std::make_unique<state>(); }
    void run(int t) override {
      if (t == 0) {
        st->x.store(1, std::memory_order_relaxed);
      } else {
        (void)st->x.load(std::memory_order_acquire);
      }
    }
  } m;
  const auto res = explore(m, exhaustive(-1));
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_GT(res.weak_acquire_warnings, 0u);
}

// The race detector: two unordered plain writes are a failure...
TEST(VerifyHarness, PlainVarRaceIsDetected) {
  struct racy : model {
    struct state {
      hls::verify::var<int> v{0};
    };
    std::unique_ptr<state> st;
    const char* name() const override { return "racy-var"; }
    int threads() const override { return 2; }
    void setup() override { st = std::make_unique<state>(); }
    void run(int t) override { st->v.store(t); }
  } m;
  const auto res = explore(m, exhaustive(-1));
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("data race"), std::string::npos);
}

// ...and the same writes ordered by a release/acquire handshake are not.
TEST(VerifyHarness, ReleaseAcquireEdgeOrdersPlainAccess) {
  struct handoff : model {
    struct state {
      hls::verify::var<int> v{0};
      hls::verify::atomic<int> flag{0};
    };
    std::unique_ptr<state> st;
    const char* name() const override { return "handoff"; }
    int threads() const override { return 2; }
    void setup() override { st = std::make_unique<state>(); }
    void run(int t) override {
      if (t == 0) {
        st->v.store(41);
        st->flag.store(1, std::memory_order_release);
      } else {
        while (st->flag.load(std::memory_order_acquire) == 0) {
          verify_traits::pause();
        }
        check(st->v.load() == 41, "handoff read a stale value");
      }
    }
  } m;
  const auto res = explore(m, exhaustive(-1));
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_TRUE(res.exhausted);
}

// A deadlock (mutual blocking with no enabled thread) is reported with the
// per-thread blocked states rather than hanging the process.
TEST(VerifyHarness, DeadlockIsReported) {
  struct deadlock : model {
    struct state {
      hls::verify::mutex a;
      hls::verify::mutex b;
    };
    std::unique_ptr<state> st;
    const char* name() const override { return "deadlock"; }
    int threads() const override { return 2; }
    void setup() override { st = std::make_unique<state>(); }
    void run(int t) override {
      auto& first = t == 0 ? st->a : st->b;
      auto& second = t == 0 ? st->b : st->a;
      first.lock();
      second.lock();
      second.unlock();
      first.unlock();
    }
  } m;
  const auto res = explore(m, exhaustive(-1));
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("deadlock"), std::string::npos);
}

}  // namespace
}  // namespace hls::verify
