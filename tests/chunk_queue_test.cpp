// core::chunk_queue, the central queue that dynamic_shared and guided take
// their chunks from, in the threaded runtime and the simulator alike: one
// read and one fetch_add per chunk (core/chunk_queue_core.h).
#include "core/chunk_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

namespace hls::core {
namespace {

TEST(ChunkQueue, FixedChunksTileTheRange) {
  chunk_queue q(10, 45, 8, 1, 4);
  std::int64_t next = 10;
  for (iter_range rg = q.take(); !rg.empty(); rg = q.take()) {
    EXPECT_EQ(rg.begin, next);
    EXPECT_EQ(rg.size(), std::min<std::int64_t>(8, 45 - next));
    next = rg.end;
  }
  EXPECT_EQ(next, 45);
  EXPECT_TRUE(q.take().empty());
}

TEST(ChunkQueue, GuidedChunksShrinkToTheMinimum) {
  // Chunk 0: max(min_chunk, remaining / (2 P)).
  constexpr std::int64_t kN = 1000;
  chunk_queue q(0, kN, 0, 3, 4);
  std::int64_t next = 0;
  std::int64_t last = kN;
  for (iter_range rg = q.take(); !rg.empty(); rg = q.take()) {
    EXPECT_EQ(rg.begin, next);
    const std::int64_t want =
        std::min(kN - next, std::max<std::int64_t>(3, (kN - next) / 8));
    EXPECT_EQ(rg.size(), want);
    EXPECT_LE(rg.size(), last);
    last = rg.size();
    next = rg.end;
  }
  EXPECT_EQ(next, kN);
}

TEST(ChunkQueue, TakeRestEndsTheQueue) {
  for (std::int64_t chunk : {0, 5}) {
    chunk_queue q(0, 100, chunk, 1, 2);
    const iter_range first = q.take();
    const iter_range rest = q.take_rest();
    EXPECT_EQ(rest.begin, first.end);
    EXPECT_EQ(rest.end, 100);
    EXPECT_TRUE(q.take().empty());
    EXPECT_TRUE(q.take_rest().empty());
  }
}

TEST(ChunkQueue, ConcurrentTakesHandOutEachIterationOnce) {
  // Eight takers, one read and one fetch_add per chunk. A guided take
  // sizes its chunk from the cursor it read, which others may have moved
  // before its add lands: its chunk may then exceed the rule at its own
  // start, but never the first chunk, and it is never empty before the
  // queue drains.
  constexpr std::int64_t kN = 20000;
  constexpr std::uint32_t kTakers = 8;
  for (std::int64_t chunk : {0, 7}) {
    chunk_queue q(0, kN, chunk, 2, kTakers);
    const std::int64_t largest =
        chunk > 0 ? chunk : std::max<std::int64_t>(2, kN / (2 * kTakers));
    std::vector<std::atomic<int>> hits(kN);
    std::atomic<std::int64_t> out_of_bounds{0};
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kTakers; ++t) {
      threads.emplace_back([&] {
        for (iter_range rg = q.take(); !rg.empty(); rg = q.take()) {
          if (rg.size() < 1 || rg.size() > largest || rg.begin < 0 ||
              rg.end > kN) {
            out_of_bounds.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          for (std::int64_t i = rg.begin; i < rg.end; ++i) {
            hits[static_cast<std::size_t>(i)].fetch_add(
                1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(out_of_bounds.load(), 0) << "chunk " << chunk;
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "chunk " << chunk << " iteration " << i;
    }
    EXPECT_TRUE(q.take().empty());
  }
}

// Chunk sizes up to INT64_MAX, and loops that end at INT64_MAX: a take
// adds at most the remainder it read, so the cursor neither overflows nor
// wraps however often a drained queue is taken from again. Only a loop of
// more than (2^64 - 1) / (P + 2) iterations meets the cap on a chunk,
// (2^64 - 1 - N) / (P + 1).
TEST(ChunkQueue, BigChunksNeitherOverflowNorWrap) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kCap = static_cast<std::int64_t>(
      (std::numeric_limits<std::uint64_t>::max() -
       static_cast<std::uint64_t>(kMax)) /
      5);
  struct big_case {
    std::int64_t begin, end, chunk, min_chunk, first_end;
  };
  for (const big_case c : {big_case{0, 1000, kMax, 1, 1000},
                           big_case{0, 1000, 0, kMax, 1000},
                           big_case{kMax - 1000, kMax, kMax, 1, kMax},
                           big_case{kMax - 1000, kMax, 0, kMax, kMax},
                           big_case{kMax - 1000, kMax, 3, 1, kMax - 997},
                           big_case{0, kMax, kMax, 1, kCap}}) {
    chunk_queue q(c.begin, c.end, c.chunk, c.min_chunk, 4);
    const iter_range first = q.take();
    EXPECT_EQ(first.begin, c.begin);
    EXPECT_EQ(first.end, c.first_end);
    const iter_range rest = q.take_rest();
    if (c.first_end == c.end) {
      EXPECT_TRUE(rest.empty());
    } else {
      EXPECT_EQ(rest.begin, first.end);
      EXPECT_EQ(rest.end, c.end);
    }
    for (int again = 0; again < 3; ++again) {
      EXPECT_TRUE(q.take().empty());
      EXPECT_TRUE(q.take_rest().empty());
    }
  }
}

}  // namespace
}  // namespace hls::core
