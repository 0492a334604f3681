#include "faultsim/faultsim.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace hls::faultsim {
namespace {

TEST(FaultsimConfig, ParsesKeyValueSpec) {
  const auto c = config::parse(
      "seed=7,claim_fail=0.3,claim_peek=0.2,steal_fail=0.25,pop_skip=0.1,"
      "post_fail=0.05,body_throw=0.01,delay=0.02,delay_us=50");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->seed, 7u);
  EXPECT_DOUBLE_EQ(c->of(hook::claim_fail), 0.3);
  EXPECT_DOUBLE_EQ(c->of(hook::claim_peek), 0.2);
  EXPECT_DOUBLE_EQ(c->of(hook::steal_probe), 0.25);
  EXPECT_DOUBLE_EQ(c->of(hook::deque_pop), 0.1);
  EXPECT_DOUBLE_EQ(c->of(hook::board_post), 0.05);
  EXPECT_DOUBLE_EQ(c->of(hook::body_throw), 0.01);
  EXPECT_DOUBLE_EQ(c->of(hook::delay), 0.02);
  EXPECT_EQ(c->delay_us, 50u);
  EXPECT_TRUE(c->any());
  EXPECT_TRUE(c->claims_active());
}

TEST(FaultsimConfig, BareIntegerSelectsDefaultMix) {
  const auto c = config::parse("42");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->seed, 42u);
  const config ref = config::default_mix(42);
  for (unsigned h = 0; h < kNumHooks; ++h) {
    EXPECT_DOUBLE_EQ(c->rate[h], ref.rate[h]) << hook_name(static_cast<hook>(h));
  }
  EXPECT_TRUE(c->claims_active());
}

TEST(FaultsimConfig, ParsesThrowAtSites) {
  const auto c = config::parse("seed=3,throw_at=1@100;2@7,throw_at=*@42");
  ASSERT_TRUE(c.has_value());
  ASSERT_EQ(c->throw_at.size(), 3u);
  EXPECT_EQ(c->throw_at[0].worker, 1u);
  EXPECT_EQ(c->throw_at[0].iteration, 100);
  EXPECT_EQ(c->throw_at[1].worker, 2u);
  EXPECT_EQ(c->throw_at[1].iteration, 7);
  EXPECT_EQ(c->throw_at[2].worker, config::kAnyWorker);
  EXPECT_EQ(c->throw_at[2].iteration, 42);
  EXPECT_TRUE(c->any());
  EXPECT_FALSE(c->claims_active());
}

TEST(FaultsimConfig, MalformedSpecsReturnNullopt) {
  EXPECT_FALSE(config::parse("bogus_key=0.5").has_value());
  EXPECT_FALSE(config::parse("claim_fail=notanumber").has_value());
  EXPECT_FALSE(config::parse("claim_fail=1.5").has_value());
  EXPECT_FALSE(config::parse("claim_fail=-0.1").has_value());
  EXPECT_FALSE(config::parse("seed=-1").has_value());
  EXPECT_FALSE(config::parse("throw_at=3").has_value());
  EXPECT_FALSE(config::parse("throw_at=x@5").has_value());
  EXPECT_FALSE(config::parse("delay_us=99999999").has_value());
  EXPECT_FALSE(config::parse("justaflag").has_value());
}

TEST(FaultsimConfig, NormalizeClampsSchedulerRatesButNotOneShotHooks) {
  // body_throw and thread_spawn gate one-shot fallback paths (exception
  // propagation, team shrink), so a deterministic rate of 1.0 must survive
  // normalize(); the retry-loop scheduler hooks are clamped so chaos
  // cannot livelock a retry loop.
  config c;
  for (unsigned h = 0; h < kNumHooks; ++h) c.rate[h] = 1.0;
  c.normalize();
  for (unsigned h = 0; h < kNumHooks; ++h) {
    const hook hk = static_cast<hook>(h);
    if (hk == hook::body_throw || hk == hook::thread_spawn) {
      EXPECT_DOUBLE_EQ(c.rate[h], 1.0) << hook_name(hk);
    } else {
      EXPECT_DOUBLE_EQ(c.rate[h], config::kMaxSchedulerRate)
          << hook_name(hk);
    }
  }
}

TEST(FaultsimInjector, SameSeedReproducesTheSameDecisionSequence) {
  config c;
  c.seed = 99;
  c.of(hook::claim_fail) = 0.5;
  injector a(c, 4);
  injector b(c, 4);
  for (std::uint32_t w = 0; w < 4; ++w) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(a.fire(hook::claim_fail, w), b.fire(hook::claim_fail, w))
          << "worker " << w << " decision " << i;
    }
  }
  EXPECT_EQ(a.fired(hook::claim_fail), b.fired(hook::claim_fail));
  EXPECT_GT(a.fired(hook::claim_fail), 0u);
}

TEST(FaultsimInjector, StreamsAreIndependentAcrossWorkersAndHooks) {
  config c;
  c.seed = 5;
  c.of(hook::claim_fail) = 0.5;
  c.of(hook::steal_probe) = 0.5;
  // Reference decision sequence for (worker 0, claim_fail) alone.
  injector ref(c, 2);
  std::vector<bool> expect;
  for (int i = 0; i < 200; ++i) expect.push_back(ref.fire(hook::claim_fail, 0));
  // Interleaving other workers/hooks must not perturb worker 0's stream.
  injector mixed(c, 2);
  for (int i = 0; i < 200; ++i) {
    mixed.fire(hook::steal_probe, 0);
    mixed.fire(hook::claim_fail, 1);
    EXPECT_EQ(mixed.fire(hook::claim_fail, 0), expect[static_cast<std::size_t>(i)])
        << "decision " << i;
  }
}

TEST(FaultsimInjector, ZeroRateNeverFires) {
  config c;
  c.seed = 1;
  injector inj(c, 2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(inj.fire(hook::claim_fail, 0));
    EXPECT_FALSE(inj.should_throw(0, 0, 100));
  }
  EXPECT_EQ(inj.fired_total(), 0u);
}

TEST(FaultsimInjector, ThrowAtMatchesWorkerAndChunkRange) {
  config c;
  c.seed = 1;
  c.throw_at.push_back({1, 50});
  c.throw_at.push_back({config::kAnyWorker, 500});
  injector inj(c, 4);
  // Wrong worker, right range.
  EXPECT_FALSE(inj.should_throw(0, 0, 100));
  // Right worker, chunk containing iteration 50.
  EXPECT_TRUE(inj.should_throw(1, 0, 100));
  // Right worker, chunk not containing it (half-open: 50 not in [0,50)).
  EXPECT_FALSE(inj.should_throw(1, 0, 50));
  EXPECT_FALSE(inj.should_throw(1, 51, 100));
  // Wildcard site matches every worker.
  EXPECT_TRUE(inj.should_throw(3, 480, 512));
  EXPECT_EQ(inj.fired(hook::body_throw), 2u);
}

TEST(FaultsimInjector, MakeInjectorThrowsOnBadSpecAndBuildsOnGood) {
  EXPECT_THROW(make_injector("no_such_hook=1", 4), std::invalid_argument);
  auto inj = make_injector("seed=11,claim_fail=0.25", 4);
  ASSERT_NE(inj, nullptr);
  EXPECT_EQ(inj->cfg().seed, 11u);
  EXPECT_EQ(inj->num_workers(), 4u);
}

TEST(FaultsimInjector, InjectedFaultCarriesChunkCoordinates) {
  const injected_fault f(3, 128, 256);
  EXPECT_EQ(f.worker(), 3u);
  EXPECT_EQ(f.chunk_begin(), 128);
  EXPECT_EQ(f.chunk_end(), 256);
  EXPECT_NE(std::string(f.what()).find("128"), std::string::npos);
}

}  // namespace
}  // namespace hls::faultsim
