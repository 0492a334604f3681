// core::chunk_queue, the central queue that dynamic_shared and guided take
// their chunks from, in the threaded runtime and the simulator alike.
#include "core/chunk_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
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
  constexpr std::int64_t kN = 20000;
  for (std::int64_t chunk : {0, 7}) {
    chunk_queue q(0, kN, chunk, 2, 4);
    std::vector<std::atomic<int>> hits(kN);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (iter_range rg = q.take(); !rg.empty(); rg = q.take()) {
          for (std::int64_t i = rg.begin; i < rg.end; ++i) {
            hits[static_cast<std::size_t>(i)].fetch_add(
                1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "chunk " << chunk << " iteration " << i;
    }
  }
}

}  // namespace
}  // namespace hls::core
