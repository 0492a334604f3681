// Validates the claiming heuristic (paper Algorithms 2-3) and its proofs:
// Theorem 3 (every partition executed exactly once) and Lemma 4 (at most
// lg R unsuccessful claims before a success or exit).
#include "core/claim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/rng.h"

namespace hls::core {
namespace {

// Plain sequential flag set for single-threaded protocol exploration.
struct seq_flags {
  std::vector<char> claimed;
  explicit seq_flags(std::uint64_t r) : claimed(r, 0) {}
  bool test_and_set(std::uint64_t r) {
    const bool prev = claimed[r] != 0;
    claimed[r] = 1;
    return prev;
  }
  bool all() const {
    return std::all_of(claimed.begin(), claimed.end(),
                       [](char c) { return c != 0; });
  }
};

TEST(ClaimTarget, XorMappingIsBijective) {
  constexpr std::uint64_t R = 64;
  for (std::uint32_t w = 0; w < R; ++w) {
    std::vector<char> hit(R, 0);
    for (std::uint64_t i = 0; i < R; ++i) {
      const std::uint64_t r = claim_target(i, w);
      ASSERT_LT(r, R);
      ASSERT_FALSE(hit[r]) << "w=" << w << " i=" << i;
      hit[r] = 1;
    }
  }
}

TEST(ClaimTarget, IndexZeroIsDesignatedPartition) {
  for (std::uint32_t w = 0; w < 128; ++w) {
    EXPECT_EQ(claim_target(0, w), w);
  }
}

TEST(ClaimTarget, XorIsItsOwnInverse) {
  for (std::uint32_t w = 0; w < 32; ++w) {
    for (std::uint64_t r = 0; r < 32; ++r) {
      EXPECT_EQ(claim_target(claim_target(r, w), w), r);
    }
  }
}

TEST(AdvanceOnFailure, AddsLeastSignificantSetBit) {
  EXPECT_EQ(advance_on_failure(1), 2u);
  EXPECT_EQ(advance_on_failure(2), 4u);
  EXPECT_EQ(advance_on_failure(3), 4u);
  EXPECT_EQ(advance_on_failure(5), 6u);
  EXPECT_EQ(advance_on_failure(6), 8u);
  EXPECT_EQ(advance_on_failure(12), 16u);
}

TEST(ClaimCursor, WrapsWorkerModuloR) {
  // With fewer partitions than workers, w and w + R share a designated
  // partition and walk the same sequence.
  claim_cursor a(1, 4);
  claim_cursor b(5, 4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a.target(), claim_target(i, 1));
    EXPECT_EQ(b.target(), a.target());
    a.won();
    b.won();
  }
  EXPECT_TRUE(a.done());
  EXPECT_TRUE(b.done());
}

TEST(ClaimCursor, LostDesignatedPartitionEndsTheWalk) {
  claim_cursor c(3, 8);
  EXPECT_EQ(c.target(), 3u);
  EXPECT_FALSE(c.lost());
  EXPECT_TRUE(c.done());
}

TEST(ClaimLoop, SoloWorkerClaimsEverythingInIndexOrder) {
  constexpr std::uint64_t R = 32;
  for (std::uint32_t w = 0; w < R; ++w) {
    seq_flags flags(R);
    std::vector<std::uint64_t> order;
    const claim_stats st = run_claim_loop(
        w, R, flags,
        [&](std::uint64_t r, std::uint64_t i) {
          EXPECT_EQ(r, claim_target(i, w));
          order.push_back(r);
        });
    EXPECT_EQ(st.successes, R);
    EXPECT_EQ(st.failures, 0u);
    EXPECT_TRUE(flags.all());
    // A solo worker visits indices 0..R-1 in order, i.e. partitions in
    // w XOR i order.
    ASSERT_EQ(order.size(), R);
    for (std::uint64_t i = 0; i < R; ++i) {
      EXPECT_EQ(order[i], claim_target(i, w));
    }
  }
}

TEST(ClaimLoop, ExitsImmediatelyWhenDesignatedPartitionTaken) {
  constexpr std::uint64_t R = 16;
  for (std::uint32_t w = 0; w < R; ++w) {
    seq_flags flags(R);
    flags.claimed[w] = 1;  // someone else owns the designated partition
    const claim_stats st = run_claim_loop(
        w, R, flags, [](std::uint64_t, std::uint64_t) { FAIL(); });
    EXPECT_EQ(st.successes, 0u);
    EXPECT_TRUE(st.exited_on_first);
    EXPECT_EQ(st.failures, 1u);
  }
}

// Theorem 3 under sequential interleaving: run the claim loop for each
// worker in a random arrival order, interleaving at claim granularity via
// round-robin co-execution is not possible sequentially, so we approximate
// with random pre-claimed states plus full worker passes. The threaded test
// in hybrid_loop_test.cpp covers true concurrency.
class ClaimCoverage : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClaimCoverage, AllPartitionsClaimedExactlyOnceAnyArrivalOrder) {
  const std::uint64_t R = GetParam();
  xoshiro256ss rng(R * 977 + 1);
  for (int trial = 0; trial < 50; ++trial) {
    seq_flags flags(R);
    std::vector<std::uint32_t> arrival(R);
    std::iota(arrival.begin(), arrival.end(), 0);
    std::shuffle(arrival.begin(), arrival.end(), rng);
    // Random subset of workers arrives (at least one), as when some workers
    // are busy elsewhere and never steal into the loop.
    const std::size_t arrivals = 1 + rng.next_below(R);
    std::vector<std::uint64_t> executed(R, 0);
    for (std::size_t k = 0; k < arrivals; ++k) {
      run_claim_loop(arrival[k], R, flags,
                     [&](std::uint64_t r, std::uint64_t) { ++executed[r]; });
    }
    // Lemma 2/Theorem 3: once any worker attempts a partition group, all its
    // partitions get claimed. A full pass by the first arriving worker
    // touches every group, so coverage must be total.
    for (std::uint64_t r = 0; r < R; ++r) {
      EXPECT_EQ(executed[r], 1u) << "R=" << R << " partition " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, ClaimCoverage,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256));

// Lemma 4: with an adversarially pre-claimed flag state, a worker never
// makes more than lg R consecutive unsuccessful claims.
class ClaimBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClaimBound, MaxConsecutiveFailuresIsLgR) {
  const std::uint64_t R = GetParam();
  const std::uint64_t lg_r = ceil_log2(R);
  xoshiro256ss rng(R * 31 + 7);
  for (int trial = 0; trial < 200; ++trial) {
    seq_flags flags(R);
    for (std::uint64_t r = 0; r < R; ++r) {
      flags.claimed[r] = rng.next_below(2) != 0;
    }
    const std::uint32_t w = static_cast<std::uint32_t>(rng.next_below(R));
    claim_stats st = run_claim_loop(w, R, flags,
                                    [](std::uint64_t, std::uint64_t) {});
    EXPECT_LE(st.max_consec_failures, lg_r == 0 ? 1 : lg_r)
        << "R=" << R << " w=" << w;
  }
}

TEST_P(ClaimBound, TotalFailuresNeverExceedLgRPlusOnePerSuccessRun) {
  // Between two successes (or before exit) there are at most lg R failures,
  // so failures <= (successes + 1) * lg R overall (and 1 if exited first).
  const std::uint64_t R = GetParam();
  const std::uint64_t lg_r = ceil_log2(R);
  xoshiro256ss rng(R);
  for (int trial = 0; trial < 200; ++trial) {
    seq_flags flags(R);
    for (std::uint64_t r = 0; r < R; ++r) {
      flags.claimed[r] = rng.next_below(3) == 0;
    }
    const std::uint32_t w = static_cast<std::uint32_t>(rng.next_below(R));
    claim_stats st = run_claim_loop(w, R, flags,
                                    [](std::uint64_t, std::uint64_t) {});
    if (st.exited_on_first) {
      EXPECT_EQ(st.failures, 1u);
    } else {
      EXPECT_LE(st.failures, (st.successes + 1) * (lg_r == 0 ? 1 : lg_r));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, ClaimBound,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256,
                                           1024));

TEST(ClaimLoop, TwoWorkersSplitHalves) {
  // Worker 0 claims its partition, then worker R/2 arrives: the claim
  // sequences partition the space into the two level-(k-1) halves.
  constexpr std::uint64_t R = 16;
  seq_flags flags(R);
  std::vector<std::uint64_t> got0, got8;
  // Simulate: w=0 claims partition 0 only (its first claim), then w=8 runs
  // to completion, then w=0 resumes. Sequential emulation: run w=8 fully
  // after pre-claiming 0 for w=0.
  ASSERT_FALSE(flags.test_and_set(0));
  got0.push_back(0);
  run_claim_loop(8u, R, flags,
                 [&](std::uint64_t r, std::uint64_t) { got8.push_back(r); });
  // w=8 should take the upper half {8..15} and then fail into the lower
  // half, which is partially claimed; it claims whatever 0 hasn't.
  for (std::uint64_t r : got8) EXPECT_NE(r, 0u);
  // Resume w=0 from index 1 semantics: easiest is a fresh full pass of the
  // remaining flags by worker 0 via run on w=0 with partition 0 pre-claimed:
  // not identical to a resumed loop, so just assert global coverage.
  run_claim_loop(1u, R, flags,
                 [&](std::uint64_t r, std::uint64_t) { got0.push_back(r); });
  seq_flags final = flags;
  EXPECT_TRUE(final.all());
}

TEST(EnumerateClaimSequence, CountsSuccessesForScriptedOutcomes) {
  // Outcome: claims at even indices succeed, odd fail.
  claim_stats st;
  const std::uint64_t n = enumerate_claim_sequence(
      3u, 64, [](std::uint64_t i) { return i % 2 == 0; }, &st);
  EXPECT_EQ(n, st.successes);
  EXPECT_GT(st.successes, 0u);
  EXPECT_GT(st.failures, 0u);
}

TEST(EnumerateClaimSequence, AllFailExitsWithOneFailure) {
  claim_stats st;
  const std::uint64_t n =
      enumerate_claim_sequence(5u, 64, [](std::uint64_t) { return false; },
                               &st);
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(st.exited_on_first);
}

TEST(EnumerateClaimSequence, AllSucceedClaimsR) {
  const std::uint64_t n =
      enumerate_claim_sequence(5u, 64, [](std::uint64_t) { return true; });
  EXPECT_EQ(n, 64u);
}

}  // namespace
}  // namespace hls::core
