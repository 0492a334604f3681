// Stall chaos sweep (in-repo slice of the scripts/ci.sh 200-seed sweep):
// deterministic delay faults stall workers at chunk / steal / park hooks
// while the watchdog runs on a tight progress budget. The invariants are
// the ones the paper's correctness argument rests on — exactly-once
// execution under every policy, the Lemma-4 claim-sequence bound — plus
// the health layer's own contract: injected stalls are detected
// (stalls_detected) and a stalled hybrid owner's stranded earmarks are
// early-released to helpers (earmarks_rescued).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "faultsim/faultsim.h"
#include "runtime/health.h"
#include "sched/loop.h"
#include "util/bits.h"

namespace hls {
namespace {

constexpr std::uint32_t kWorkers = 4;
constexpr std::int64_t kN = 512;
constexpr std::uint32_t kPartitions = 8;  // R = 8 -> bound lg R + 1 = 4

void assert_exactly_once(rt::runtime& rt, policy pol, std::uint64_t seed) {
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(kN));
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  loop_options opt;
  opt.partitions = kPartitions;
  const loop_result res = for_each(
      rt, 0, kN, pol,
      [&](std::int64_t i) {
        hits[static_cast<std::size_t>(i)].fetch_add(
            1, std::memory_order_relaxed);
      },
      opt);
  ASSERT_TRUE(res.ok()) << policy_name(pol) << " seed " << seed;
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
        << policy_name(pol) << " seed " << seed << " iteration " << i;
  }
}

// Seed count per sweep: a handful by default (unit-test budget); CI sets
// HLS_STALL_SWEEP_SEEDS=200 for the full sweep (scripts/ci.sh).
std::uint64_t sweep_seeds(std::uint64_t fallback) {
  if (const char* s = std::getenv("HLS_STALL_SWEEP_SEEDS")) {
    const long v = std::atol(s);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return fallback;
}

std::shared_ptr<faultsim::injector> delay_mix(std::uint64_t seed) {
  auto cfg = faultsim::config::parse(
      "delay=0.05,delay_chunk=0.10,delay_park=0.03,delay_us=1500,seed=" +
      std::to_string(seed));
  EXPECT_TRUE(cfg.has_value());
  return std::make_shared<faultsim::injector>(*cfg, kWorkers);
}

TEST(StallSweep, DelayFaultsAcrossAllPoliciesStayExactlyOnce) {
  rt::runtime_options o;
  o.num_workers = kWorkers;
  o.progress_budget = std::chrono::microseconds(200);
  rt::runtime rt(o);
  ASSERT_NE(rt.watchdog(), nullptr);

  constexpr policy kPolicies[] = {policy::serial,        policy::static_part,
                                  policy::dynamic_shared, policy::guided,
                                  policy::dynamic_ws,    policy::hybrid};
  const std::uint64_t seeds = sweep_seeds(8);
  std::uint64_t faults = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    auto inj = delay_mix(seed);
    rt.set_chaos(inj);
    for (policy pol : kPolicies) assert_exactly_once(rt, pol, seed);
    faults += inj->fired_total();
  }
  rt.set_chaos(nullptr);

  const telemetry::counter_set total = rt.tel().totals();
  EXPECT_GT(faults, 0u);
  // 1.5ms injected stalls against a 200us budget: the watchdog must have
  // caught at least some of them in the act (a stall only counts while a
  // loop is open, so the loop tail can hide short ones — the aggregate
  // over the sweep cannot be zero).
  EXPECT_GT(total.stalls_detected, 0u);
  // Lemma 4 is structural; delays may reorder claims but cannot break it.
  const std::uint64_t bound = ceil_log2(kPartitions) + 1;
  EXPECT_LE(total.max_claim_seq_len, bound);
  EXPECT_EQ(rt.tel().lemma4_violations(), 0u);
}

TEST(StallSweep, HybridStallsGetTheirEarmarksRescued) {
  rt::runtime_options o;
  o.num_workers = kWorkers;
  o.progress_budget = std::chrono::microseconds(200);
  rt::runtime rt(o);
  ASSERT_NE(rt.watchdog(), nullptr);

  // Hybrid-only sweep: a worker that claims its designated partition and
  // then stalls in its first chunk strands the rest of its subtree (other
  // workers' claim loops trusted the claimant to cover it). The watchdog
  // arms the rescue sweep, and a helper claims the leftovers through the
  // ordinary claim flags — observable as earmarks_rescued.
  const std::uint64_t seeds = sweep_seeds(30);
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    rt.set_chaos(delay_mix(seed));
    assert_exactly_once(rt, policy::hybrid, seed);
  }
  rt.set_chaos(nullptr);

  const telemetry::counter_set total = rt.tel().totals();
  EXPECT_GT(total.stalls_detected, 0u);
  EXPECT_GT(total.earmarks_rescued, 0u);
  EXPECT_EQ(rt.tel().lemma4_violations(), 0u);
}

}  // namespace
}  // namespace hls
