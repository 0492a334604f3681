#include "core/partition_set.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <thread>
#include <vector>

#include "core/claim.h"

namespace hls::core {
namespace {

TEST(PartitionSet, RoundsToNextPowerOfTwo) {
  EXPECT_EQ(partition_set(0, 100, 1).count(), 1u);
  EXPECT_EQ(partition_set(0, 100, 2).count(), 2u);
  EXPECT_EQ(partition_set(0, 100, 3).count(), 4u);
  EXPECT_EQ(partition_set(0, 100, 5).count(), 8u);
  EXPECT_EQ(partition_set(0, 100, 8).count(), 8u);
  EXPECT_EQ(partition_set(0, 100, 33).count(), 64u);
  EXPECT_EQ(partition_set(0, 100, 0).count(), 1u);
}

TEST(PartitionSet, RangesTileTheIterationSpace) {
  for (std::uint32_t p : {1u, 2u, 4u, 7u, 8u, 13u, 32u}) {
    partition_set set(10, 247, p);
    std::int64_t expect_next = 10;
    for (std::uint64_t r = 0; r < set.count(); ++r) {
      const iter_range rg = set.range(r);
      EXPECT_EQ(rg.begin, expect_next) << "p=" << p << " r=" << r;
      EXPECT_LE(rg.begin, rg.end);
      expect_next = rg.end;
    }
    EXPECT_EQ(expect_next, 247);
  }
}

TEST(PartitionSet, RangesAreBalanced) {
  partition_set set(0, 103, 8);  // 103 = 8*12 + 7
  for (std::uint64_t r = 0; r < 8; ++r) {
    const std::int64_t sz = set.range(r).size();
    EXPECT_TRUE(sz == 12 || sz == 13) << r;
  }
}

TEST(PartitionSet, EmptyRange) {
  partition_set set(5, 5, 4);
  EXPECT_EQ(set.count(), 4u);
  for (std::uint64_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(set.range(r).empty());
  }
}

TEST(PartitionSet, MorePartitionsThanIterations) {
  partition_set set(0, 3, 8);
  std::int64_t total = 0;
  for (std::uint64_t r = 0; r < 8; ++r) total += set.range(r).size();
  EXPECT_EQ(total, 3);
}

TEST(PartitionSet, ClaimOnceSemantics) {
  partition_set set(0, 64, 8);
  EXPECT_FALSE(set.is_claimed(3));
  EXPECT_TRUE(set.try_claim(3));
  EXPECT_TRUE(set.is_claimed(3));
  EXPECT_FALSE(set.try_claim(3));
  EXPECT_EQ(set.claimed_count(), 1u);
  EXPECT_FALSE(set.all_claimed());
  for (std::uint64_t r = 0; r < 8; ++r) set.try_claim(r);
  EXPECT_TRUE(set.all_claimed());
  EXPECT_EQ(set.claimed_count(), 8u);
}

TEST(PartitionSet, FlagsAdapterMatchesFetchOrSemantics) {
  partition_set set(0, 64, 4);
  auto flags = set.flags();
  EXPECT_FALSE(flags.test_and_set(2));  // previously unclaimed
  EXPECT_TRUE(flags.test_and_set(2));   // now claimed
}

TEST(PartitionSet, FlagsArePaddedToDistinctCacheLines) {
  // White-box via public layout contract: each 64-partition flag word is
  // one cache line, so a claim in one word never false-shares with a
  // claim or scan of another.
  EXPECT_EQ(sizeof(padded<std::atomic<std::uint64_t>>), kCacheLine);
  EXPECT_EQ(alignof(padded<std::atomic<std::uint64_t>>), kCacheLine);
}

// Concurrent exactly-once: T threads hammer try_claim on every partition.
class PartitionSetConcurrency : public ::testing::TestWithParam<int> {};

TEST_P(PartitionSetConcurrency, EveryPartitionClaimedByExactlyOneThread) {
  const int threads = GetParam();
  constexpr std::uint64_t kParts = 64;
  partition_set set(0, 1 << 20, kParts);
  std::vector<std::atomic<int>> wins(kParts);
  for (auto& w : wins) w.store(0);

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&set, &wins] {
      for (std::uint64_t r = 0; r < kParts; ++r) {
        if (set.try_claim(r)) wins[r].fetch_add(1);
      }
    });
  }
  for (auto& th : pool) th.join();

  for (std::uint64_t r = 0; r < kParts; ++r) {
    EXPECT_EQ(wins[r].load(), 1) << "partition " << r;
  }
  EXPECT_EQ(set.claimed_count(), kParts);
  EXPECT_TRUE(set.all_claimed());
}

INSTANTIATE_TEST_SUITE_P(Threads, PartitionSetConcurrency,
                         ::testing::Values(1, 2, 4, 8));

// Concurrent claim loops through the flags adapter: the full Theorem 3
// property under true contention.
class ConcurrentClaimLoop : public ::testing::TestWithParam<int> {};

TEST_P(ConcurrentClaimLoop, TheoremThreeHoldsUnderContention) {
  const int threads = GetParam();
  const std::uint64_t parts = next_pow2(static_cast<std::uint64_t>(threads));
  for (int trial = 0; trial < 20; ++trial) {
    partition_set set(0, 4096, static_cast<std::uint32_t>(threads));
    std::vector<std::atomic<int>> executed(set.count());
    for (auto& e : executed) e.store(0);

    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&set, &executed, t] {
        auto flags = set.flags();
        run_claim_loop(static_cast<std::uint32_t>(t), set.count(), flags,
                       [&](std::uint64_t r, std::uint64_t) {
                         executed[r].fetch_add(1);
                       });
      });
    }
    for (auto& th : pool) th.join();

    for (std::uint64_t r = 0; r < set.count(); ++r) {
      EXPECT_EQ(executed[r].load(), 1)
          << "threads=" << threads << " partition " << r;
    }
    EXPECT_EQ(set.claimed_count(), parts);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ConcurrentClaimLoop,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8));

// ---- 64-partition blocks: one packed flag word each ----------------------

TEST(PartitionSetBitmap, StorageModeFollowsRoundedCount) {
  // Blocks follow the rounded (power-of-two) R: a partial word below 64,
  // exact multiples of one word from 64 up.
  EXPECT_EQ(partition_set(0, 1 << 20, 33).block_count(), 1u);  // R = 64
  EXPECT_EQ(partition_set(0, 1 << 20, 64).block_count(), 1u);
  EXPECT_EQ(partition_set(0, 1 << 20, 65).block_count(), 2u);
  EXPECT_EQ(partition_set(0, 1 << 20, 4096).block_count(), 64u);
  EXPECT_EQ(partition_set(0, 1 << 20, 8).block_count(), 1u);
}

TEST(PartitionSetBitmap, ClaimBlockWinsExactlyTheUnclaimedBits) {
  partition_set set(0, 1 << 20, 64);
  EXPECT_TRUE(set.try_claim(3));
  EXPECT_TRUE(set.try_claim(17));
  EXPECT_TRUE(set.try_claim(63));
  const std::uint64_t pre = (1ull << 3) | (1ull << 17) | (1ull << 63);
  EXPECT_EQ(set.claim_block(0), ~pre);  // everything the try_claims left
  EXPECT_EQ(set.claim_block(0), 0u);    // nothing left: the skip-load path
  EXPECT_EQ(set.claimed_count(), 64u);
  EXPECT_TRUE(set.all_claimed());
}

// The batched leftover sweep under contention, mirroring the hybrid
// runtime's shape: each worker runs the claim loop (Theorem 3 exactly-once
// + Lemma 4 consecutive-failure bound), then sweeps every block with
// claim_block. Coverage must hold, every partition must execute exactly
// once, and no worker may exceed the lg R failure bound. Parameter is the
// requested R: 4 and 32 (a partial word: block_mask's short branch), 64
// (one word), 65 (rounds to 128, two words), 4096.
class BitmapClaimSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BitmapClaimSweep, TheoremThreeAndLemmaFourSurviveBatchedSweep) {
  constexpr int kThreads = 8;
  const std::uint32_t requested = GetParam();
  for (int trial = 0; trial < 10; ++trial) {
    partition_set set(0, 1 << 20, requested);
    const std::uint64_t parts = set.count();
    std::vector<std::atomic<int>> executed(parts);
    for (auto& e : executed) e.store(0);
    std::vector<claim_stats> stats(kThreads);

    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&set, &executed, &stats, parts, t] {
        auto flags = set.flags();
        stats[static_cast<std::size_t>(t)] = run_claim_loop(
            static_cast<std::uint32_t>(t), parts, flags,
            [&](std::uint64_t r, std::uint64_t) {
              executed[r].fetch_add(1);
            });
        // Leftover sweep: whatever the claim loops left unclaimed is won
        // bit-by-bit here, 64 partitions per RMW, racing the other
        // sweepers. Each won bit is one test_and_set win.
        for (std::uint64_t b = 0; b < set.block_count(); ++b) {
          for (std::uint64_t won = set.claim_block(b); won != 0;
               won &= won - 1) {
            const std::uint64_t r =
                (b << 6) +
                static_cast<std::uint64_t>(std::countr_zero(won));
            executed[r].fetch_add(1);
          }
        }
      });
    }
    for (auto& th : pool) th.join();

    for (std::uint64_t r = 0; r < parts; ++r) {
      EXPECT_EQ(executed[r].load(), 1)
          << "R=" << parts << " partition " << r;
    }
    EXPECT_EQ(set.claimed_count(), parts);
    EXPECT_TRUE(set.all_claimed());
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_LE(stats[static_cast<std::size_t>(t)].max_consec_failures,
                set.log2_count())
          << "R=" << parts << " worker " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitmapClaimSweep,
                         ::testing::Values(4u, 32u, 64u, 65u, 4096u));

}  // namespace
}  // namespace hls::core
