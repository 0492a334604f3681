// Push-based work handoff suite (docs/runtime.md "Push-based handoff"):
// the mailbox protocol core (claim/publish/take cycle, exactly-once under
// contention), the parking lot's targeted pick/unpark edge, the
// runtime-level donate-on-open path, the shutdown sweep, and a 200-seed
// chaos run with the handoff_drop hook asserting that a dropped wake can
// strand a deposit only transiently — every iteration still executes
// exactly once and Lemma 4 stays clean.
#include "runtime/handoff.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "faultsim/faultsim.h"
#include "runtime/parking.h"
#include "runtime/runtime.h"
#include "sched/loop.h"

namespace hls::rt {
namespace {

using namespace std::chrono_literals;

// ---- mailbox protocol core -------------------------------------------

TEST(HandoffSlot, ClaimPublishTakeCycle) {
  handoff_slot box;
  EXPECT_FALSE(box.full());
  handoff_item out;
  EXPECT_FALSE(box.try_take(out));  // empty: nothing to take

  ASSERT_TRUE(box.try_claim());
  EXPECT_FALSE(box.try_claim());  // claimed: second donor bounces
  EXPECT_FALSE(box.full());       // claimed-but-unpublished is invisible

  int payload_ctx = 0;
  handoff_item it;
  it.ctx = &payload_ctx;
  it.lo = 100;
  it.hi = 200;
  box.publish(it);
  EXPECT_TRUE(box.full());
  EXPECT_FALSE(box.try_claim());  // full: donors bounce too

  ASSERT_TRUE(box.try_take(out));
  EXPECT_EQ(out.ctx, &payload_ctx);
  EXPECT_EQ(out.lo, 100);
  EXPECT_EQ(out.hi, 200);
  EXPECT_FALSE(box.full());
  EXPECT_FALSE(box.try_take(out));  // exactly-once: second take bounces

  // abort_claim releases a claimed-but-unfilled slot for the next donor.
  ASSERT_TRUE(box.try_claim());
  box.abort_claim();
  EXPECT_TRUE(box.try_claim());
}

// Exactly-once under contention: one donor publishes a sequence of
// payloads; several racing takers (the owner's consume, thieves' poaches,
// and the donor's own reclaim attempts all look like this) each payload
// is taken exactly once and no payload is lost.
TEST(HandoffSlot, ExactlyOnceUnderContention) {
  constexpr int kPayloads = 2000;
  constexpr int kTakers = 3;
  handoff_slot box;
  std::vector<std::atomic<int>> taken(kPayloads);
  for (auto& t : taken) t.store(0);
  std::atomic<bool> done{false};

  std::vector<std::thread> takers;
  for (int t = 0; t < kTakers; ++t) {
    takers.emplace_back([&] {
      handoff_item out;
      while (!done.load(std::memory_order_acquire) || box.full()) {
        if (box.try_take(out)) {
          taken[static_cast<std::size_t>(out.lo)].fetch_add(1);
        }
      }
    });
  }

  for (int i = 0; i < kPayloads; ++i) {
    // The donor spins for an empty slot (the runtime donor just falls
    // back to notify_work instead; the spin makes the test lossless).
    while (!box.try_claim()) {
    }
    handoff_item it;
    it.lo = i;
    box.publish(it);
  }
  // Drain: all published payloads observed before stopping the takers.
  while (box.full()) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (auto& t : takers) t.join();

  for (int i = 0; i < kPayloads; ++i) {
    EXPECT_EQ(taken[static_cast<std::size_t>(i)].load(), 1) << "payload " << i;
  }
}

// ---- parking lot: targeted pick + wake -------------------------------

TEST(ParkingTargeted, PickWaiterFindsTheParkedSlot) {
  parking_lot pl(4);
  EXPECT_EQ(pl.pick_waiter(), 4u);  // nobody parked: n_ sentinel
  (void)pl.prepare_park(2);
  EXPECT_EQ(pl.pick_waiter(), 2u);
  pl.cancel_park(2);
  EXPECT_EQ(pl.pick_waiter(), 4u);
}

TEST(ParkingTargeted, UnparkAtDeliversBetweenPrepareAndPark) {
  parking_lot pl(2);
  const std::uint32_t ticket = pl.prepare_park(1);
  EXPECT_TRUE(pl.unpark_at(1));
  EXPECT_FALSE(pl.unpark_at(1));  // unconsumed wake: not eligible again
  const parking_lot::park_result res = pl.park(1, ticket, 10ms);
  EXPECT_EQ(res.reason, parking_lot::wake_reason::notified);
  EXPECT_FALSE(res.waited);
}

// The donor's reclaim edge: a targeted wake to a slot whose waiter
// vanished reports failure, and the deposit comes back via try_take.
TEST(ParkingTargeted, FailedUnparkAtLetsTheDonorReclaim) {
  parking_lot pl(2);
  handoff_slot box;
  ASSERT_TRUE(box.try_claim());
  handoff_item it;
  it.lo = 7;
  it.hi = 9;
  box.publish(it);
  EXPECT_FALSE(pl.unpark_at(1));  // worker 1 is active, not parked
  handoff_item back;
  ASSERT_TRUE(box.try_take(back));  // donor wins the reclaim
  EXPECT_EQ(back.lo, 7);
  EXPECT_FALSE(box.full());
}

// ---- runtime-level handoff paths -------------------------------------

// Donate-on-open: a wide span opened while a peer is parked must ship a
// pre-split half inside the wake. Worker 1 is parked when the loop posts,
// so the donor path (rather than a probe) is how it gets its first range.
TEST(RuntimeHandoff, WideSpanDonatesToParkedPeer) {
  runtime rt(2);
  std::atomic<std::int64_t> sum{0};
  std::uint64_t sent = 0;
  // Donation needs the peer actually parked at span-open; settle first.
  // A few rounds absorb scheduler noise on loaded CI machines.
  for (int round = 0; round < 50 && sent == 0; ++round) {
    std::this_thread::sleep_for(2ms);
    sum.store(0);
    const loop_result res = for_each(
        rt, 0, 1 << 14, policy::dynamic_ws,
        [&](std::int64_t i) { sum.fetch_add(i, std::memory_order_relaxed); });
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(sum.load(), (std::int64_t{1} << 14) * ((1 << 14) - 1) / 2);
    sent = rt.stats_snapshot().handoffs_sent;
  }
  const worker_stats total = rt.stats_snapshot();
  EXPECT_GT(total.handoffs_sent, 0u);
  EXPECT_GT(total.handoffs_consumed, 0u);
}

// The A/B knob: with work_handoff off the wake path is pure pull again —
// loops stay correct and no mailbox traffic happens.
TEST(RuntimeHandoff, DisabledHandoffFallsBackToProbe) {
  runtime_options opt;
  opt.num_workers = 2;
  opt.work_handoff = false;
  runtime rt(opt);
  std::atomic<std::int64_t> sum{0};
  for (int round = 0; round < 10; ++round) {
    std::this_thread::sleep_for(1ms);
    const loop_result res = for_each(
        rt, 0, 4096, policy::dynamic_ws,
        [&](std::int64_t) { sum.fetch_add(1, std::memory_order_relaxed); });
    ASSERT_TRUE(res.ok());
  }
  EXPECT_EQ(sum.load(), 10 * 4096);
  const worker_stats total = rt.stats_snapshot();
  EXPECT_EQ(total.handoffs_sent, 0u);
  EXPECT_EQ(total.handoffs_consumed, 0u);
  EXPECT_EQ(total.handoffs_reclaimed, 0u);
}

// Shutdown sweep: a deposit nobody consumed (here planted directly while
// the team idles) must still execute — the runtime destructor drains
// every mailbox through worker 0 before the workers go.
TEST(RuntimeHandoff, ShutdownDrainsStrandedDeposits) {
  std::atomic<std::int64_t> ran{0};
  {
    runtime rt(2);
    handoff_slot& box = rt.handoff_of(1);
    ASSERT_TRUE(box.try_claim());
    // A counting runner thunk in place of a loop's span runner: it adds
    // the width of the range it is handed.
    handoff_item it;
    it.run = [](worker&, void* ctx, std::int64_t lo, std::int64_t hi) {
      static_cast<std::atomic<std::int64_t>*>(ctx)->fetch_add(hi - lo);
    };
    it.ctx = &ran;
    it.lo = 10;
    it.hi = 17;
    box.publish(it);
    // No wake on purpose: the deposit is stranded like a chaos-dropped
    // handoff at the instant of shutdown.
  }
  EXPECT_EQ(ran.load(), 7);
}

// Chaos sweep: 200 seeds of the default mix plus a hot handoff_drop rate.
// A dropped handoff strands the deposit until a steal-round poach or the
// shutdown sweep rescues it; in all cases every iteration executes
// exactly once and the Lemma 4 online check stays clean.
TEST(RuntimeHandoff, ChaosHandoffDropKeepsExactlyOnce200Seeds) {
  constexpr std::uint32_t kWorkers = 4;
  constexpr std::int64_t kN = 256;
  runtime rt(kWorkers);
  std::uint64_t drops = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    faultsim::config cfg = faultsim::config::default_mix(seed);
    cfg.of(faultsim::hook::handoff_drop) = 0.9;
    auto inj = std::make_shared<faultsim::injector>(cfg, kWorkers);
    rt.set_chaos(inj);
    // Let the team park so donate-on-open actually has waiters to target —
    // without this, slow hosts (TSAN) keep the peers spinning and the
    // handoff_drop hook never reaches a donation to drop.
    std::this_thread::sleep_for(2ms);
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    const loop_result res =
        for_each(rt, 0, kN, seed % 2 == 0 ? policy::dynamic_ws : policy::hybrid,
                 [&](std::int64_t i) {
                   hits[static_cast<std::size_t>(i)].fetch_add(
                       1, std::memory_order_relaxed);
                 });
    ASSERT_TRUE(res.ok()) << "seed " << seed;
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "iteration " << i << " seed " << seed;
    }
    drops += inj->fired(faultsim::hook::handoff_drop);
  }
  rt.set_chaos(nullptr);
  EXPECT_EQ(rt.tel().lemma4_violations(), 0u);
  // The hook must actually have fired across the sweep, or the rescue
  // paths were never exercised.
  EXPECT_GT(drops, 0u);
}

}  // namespace
}  // namespace hls::rt
