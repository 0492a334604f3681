// Chaos suite: drives the schedulers under deterministic fault injection
// (faultsim) and asserts the properties the paper's correctness argument
// rests on — exactly-once execution of every iteration, the Lemma 4
// claim-sequence bound lg R + 1 (which is structural, so injected claim
// failures must not be able to violate it), and exception delivery.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "faultsim/faultsim.h"
#include "sched/loop.h"
#include "sched/task_group.h"
#include "util/bits.h"

namespace hls {
namespace {

constexpr std::uint32_t kWorkers = 4;
constexpr std::int64_t kN = 512;
constexpr std::uint32_t kPartitions = 8;  // R = 8 -> bound lg R + 1 = 4

// Runs one loop under the given policy and asserts every iteration ran
// exactly once despite the installed chaos.
void assert_exactly_once(rt::runtime& rt, policy pol, std::uint64_t seed) {
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(kN));
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  loop_options opt;
  opt.partitions = kPartitions;
  const loop_result res =
      for_each(rt, 0, kN, pol, [&](std::int64_t i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                    std::memory_order_relaxed);
      }, opt);
  ASSERT_TRUE(res.ok()) << policy_name(pol) << " seed " << seed;
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
        << policy_name(pol) << " seed " << seed << " iteration " << i;
  }
}

TEST(ChaosSched, HybridIsExactlyOnceAcross200Seeds) {
  rt::runtime rt(kWorkers);
  std::uint64_t faults = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    auto inj = std::make_shared<faultsim::injector>(
        faultsim::config::default_mix(seed), kWorkers);
    rt.set_chaos(inj);
    assert_exactly_once(rt, policy::hybrid, seed);
    faults += inj->fired_total();
  }
  // The chaos layer actually perturbed the run...
  EXPECT_GT(faults, 0u);
  // ...and Lemma 4 survived every injected claim failure: the bound is
  // structural (each consecutive failure strictly raises lsb(i)), so no
  // failure pattern — real or injected — can exceed lg R + 1.
  const std::uint64_t bound = ceil_log2(kPartitions) + 1;
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    EXPECT_LE(rt.tel().of_worker(w).max_claim_seq_len, bound)
        << "worker " << w;
  }
  EXPECT_EQ(rt.tel().lemma4_violations(), 0u);
  const telemetry::histogram_snapshot h = rt.tel().claim_seq_histogram();
  EXPECT_LE(h.max, bound);
}

TEST(ChaosSched, EveryPolicyIsExactlyOnceUnderChaos) {
  rt::runtime rt(kWorkers);
  constexpr policy kPolicies[] = {policy::serial, policy::static_part,
                                  policy::dynamic_shared, policy::guided,
                                  policy::dynamic_ws, policy::hybrid};
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    rt.set_chaos(std::make_shared<faultsim::injector>(
        faultsim::config::default_mix(seed), kWorkers));
    for (policy pol : kPolicies) {
      assert_exactly_once(rt, pol, seed);
    }
  }
  EXPECT_EQ(rt.tel().lemma4_violations(), 0u);
}

TEST(ChaosSched, InjectedBodyExceptionIsDeliveredUnderChaos) {
  rt::runtime rt(kWorkers);
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    faultsim::config cfg = faultsim::config::default_mix(seed);
    // Exactly one deterministic throw site: whichever worker executes the
    // chunk containing iteration 256 throws. Exactly-once execution makes
    // the throw itself exactly-once, so delivery must be certain.
    cfg.throw_at.push_back({faultsim::config::kAnyWorker, 256});
    rt.set_chaos(std::make_shared<faultsim::injector>(cfg, kWorkers));
    loop_options opt;
    opt.partitions = kPartitions;
    EXPECT_THROW(
        parallel_for(rt, 0, kN, policy::hybrid,
                     [](std::int64_t, std::int64_t) {}, opt),
        faultsim::injected_fault)
        << "seed " << seed;
  }
  EXPECT_GE(rt.tel().totals().exceptions_caught, 50u);
}

TEST(ChaosSched, RescueSweepKeepsCoverageUnderPureClaimChaos) {
  // Claim-path faults only, at high rates: without the rescue sweep a
  // forced-skipped partition could be stranded forever (the "failure
  // implies claimed" invariant is deliberately broken by injection).
  rt::runtime rt(kWorkers);
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    faultsim::config cfg;
    cfg.seed = seed;
    cfg.of(faultsim::hook::claim_peek) = 0.9;
    cfg.of(faultsim::hook::claim_fail) = 0.9;
    rt.set_chaos(std::make_shared<faultsim::injector>(cfg, kWorkers));
    assert_exactly_once(rt, policy::hybrid, seed);
  }
  EXPECT_EQ(rt.tel().lemma4_violations(), 0u);
}

TEST(ChaosSched, ForcedBoardOverflowStillCompletes) {
  // post_fail = certain (clamped to kMaxSchedulerRate): most loops take
  // the no-slot path where the posting worker drives the record alone.
  rt::runtime rt(kWorkers);
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    faultsim::config cfg;
    cfg.seed = seed;
    cfg.of(faultsim::hook::board_post) = 1.0;  // clamped to 0.95
    rt.set_chaos(std::make_shared<faultsim::injector>(cfg, kWorkers));
    for (policy pol : {policy::static_part, policy::dynamic_shared,
                       policy::guided, policy::hybrid}) {
      assert_exactly_once(rt, pol, seed);
    }
  }
}

// Every fault site is still reached: a refactor that drops a site's draw
// keeps every exactly-once test green, so this one counts draws instead.
// Each seed runs the default mix (which leaves body_throw at 0) plus one
// throw_at site over the five parallel policies and a task_group, until
// every hook has fired. thread_spawn has its own test (degrade_test).
TEST(ChaosSched, EveryHookSiteFires) {
  using faultsim::hook;
  constexpr hook kHooks[] = {hook::claim_peek,  hook::claim_fail,
                             hook::steal_probe, hook::deque_pop,
                             hook::board_post,  hook::body_throw,
                             hook::delay,       hook::range_steal,
                             hook::delay_chunk, hook::delay_park};
  constexpr policy kPolicies[] = {policy::static_part, policy::dynamic_shared,
                                  policy::guided, policy::dynamic_ws,
                                  policy::hybrid};
  rt::runtime rt(kWorkers);
  std::uint64_t fired[faultsim::kNumHooks] = {};
  const auto missing = [&] {
    std::string names;
    for (hook h : kHooks) {
      if (fired[static_cast<unsigned>(h)] == 0) {
        names += std::string(names.empty() ? "" : ", ") +
                 faultsim::hook_name(h);
      }
    }
    return names;
  };
  for (std::uint64_t seed = 1; seed <= 200 && !missing().empty(); ++seed) {
    faultsim::config cfg = faultsim::config::default_mix(seed);
    cfg.throw_at.push_back({faultsim::config::kAnyWorker, kN / 2});
    auto inj = std::make_shared<faultsim::injector>(cfg, kWorkers);
    rt.set_chaos(inj);
    loop_options opt;
    opt.partitions = kPartitions;
    for (policy pol : kPolicies) {
      EXPECT_THROW(parallel_for(rt, 0, kN, pol,
                                [](std::int64_t, std::int64_t) {}, opt),
                   faultsim::injected_fault)
          << policy_name(pol) << " seed " << seed;
    }
    std::atomic<int> ran{0};
    task_group tg(rt);
    for (int t = 0; t < 16; ++t) {
      tg.spawn([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    tg.wait();
    EXPECT_EQ(ran.load(), 16) << "seed " << seed;
    for (hook h : kHooks) {
      fired[static_cast<unsigned>(h)] += inj->fired(h);
    }
  }
  rt.set_chaos(nullptr);
  EXPECT_EQ(missing(), "") << "hooks that never fired in 200 seeds";
}

TEST(ChaosSched, EnvSpecInstallsInjectorAtConstruction) {
  ::setenv("HLS_CHAOS", "seed=7,claim_fail=0.2,steal_fail=0.2", 1);
  {
    rt::runtime rt(2);
    ASSERT_NE(rt.chaos(), nullptr);
    EXPECT_EQ(rt.chaos()->cfg().seed, 7u);
    assert_exactly_once(rt, policy::hybrid, 7);
  }
  // A malformed spec is reported and ignored — startup must not crash.
  ::setenv("HLS_CHAOS", "not,a,valid,spec", 1);
  {
    rt::runtime rt(2);
    EXPECT_EQ(rt.chaos(), nullptr);
  }
  ::unsetenv("HLS_CHAOS");
}

}  // namespace
}  // namespace hls
