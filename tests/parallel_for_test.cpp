// End-to-end correctness of parallel_for under every policy: each iteration
// executes exactly once, results are correct, and the default grain matches
// the cilk_for formula.
#include "sched/loop.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "trace/loop_trace.h"

namespace hls {
namespace {

struct PfCase {
  policy pol;
  std::uint32_t workers;
  std::int64_t n;
};

std::string case_name(const ::testing::TestParamInfo<PfCase>& info) {
  return std::string(policy_name(info.param.pol)) + "_p" +
         std::to_string(info.param.workers) + "_n" +
         std::to_string(info.param.n);
}

class ParallelFor : public ::testing::TestWithParam<PfCase> {};

TEST_P(ParallelFor, EveryIterationExecutesExactlyOnce) {
  const auto [pol, workers, n] = GetParam();
  rt::runtime rt(workers);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  for (auto& h : hits) h.store(0);

  for_each(rt, 0, n, pol, [&](std::int64_t i) { hits[i].fetch_add(1); });

  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "iteration " << i;
  }
}

TEST_P(ParallelFor, ComputesCorrectSum) {
  const auto [pol, workers, n] = GetParam();
  rt::runtime rt(workers);
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  for_each(rt, 0, n, pol, [&](std::int64_t i) { out[i] = i * i; });
  std::int64_t sum = std::accumulate(out.begin(), out.end(), std::int64_t{0});
  const std::int64_t expect = (n - 1) * n * (2 * n - 1) / 6;
  EXPECT_EQ(sum, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ParallelFor,
    ::testing::ValuesIn([] {
      std::vector<PfCase> cases;
      for (policy pol : {policy::serial, policy::static_part,
                         policy::dynamic_shared, policy::guided,
                         policy::dynamic_ws, policy::hybrid}) {
        for (std::uint32_t p : {1u, 2u, 3u, 4u, 8u}) {
          for (std::int64_t n : {1, 7, 64, 1000}) {
            cases.push_back({pol, p, n});
          }
        }
      }
      return cases;
    }()),
    case_name);

TEST(ParallelForBasics, EmptyRangeIsNoOp) {
  rt::runtime rt(2);
  for (policy pol : kAllParallelPolicies) {
    int calls = 0;
    parallel_for(rt, 5, 5, pol, [&](std::int64_t, std::int64_t) { ++calls; });
    parallel_for(rt, 7, 3, pol, [&](std::int64_t, std::int64_t) { ++calls; });
    EXPECT_EQ(calls, 0) << policy_name(pol);
  }
}

TEST(ParallelForBasics, NonZeroBase) {
  rt::runtime rt(4);
  for (policy pol : kAllParallelPolicies) {
    std::atomic<std::int64_t> sum{0};
    for_each(rt, 100, 200, pol, [&](std::int64_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2) << policy_name(pol);
  }
}

TEST(ParallelForBasics, ChunksCoverRangeWithoutOverlap) {
  rt::runtime rt(4);
  for (policy pol : kAllParallelPolicies) {
    trace::loop_trace tr(rt.num_workers());
    loop_options opt;
    opt.trace = &tr;
    parallel_for(rt, 0, 777, pol, [](std::int64_t, std::int64_t) {}, opt);
    EXPECT_EQ(tr.total_iterations(), 777) << policy_name(pol);
    const auto owners = tr.iteration_owners(0, 777);
    for (std::size_t i = 0; i < owners.size(); ++i) {
      EXPECT_NE(owners[i], trace::loop_trace::kNoOwner)
          << policy_name(pol) << " iteration " << i;
    }
  }
}

TEST(ParallelForBasics, NestedParallelLoops) {
  rt::runtime rt(4);
  constexpr std::int64_t kOuter = 8;
  constexpr std::int64_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0);
  for_each(rt, 0, kOuter, policy::dynamic_ws, [&](std::int64_t o) {
    for_each(rt, 0, kInner, policy::hybrid, [&](std::int64_t i) {
      hits[o * kInner + i].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForBasics, LargeIterationCountSmallBody) {
  rt::runtime rt(4);
  std::atomic<std::int64_t> count{0};
  constexpr std::int64_t kN = 1 << 18;
  for (policy pol : kAllParallelPolicies) {
    count.store(0);
    for_each(rt, 0, kN, pol, [&](std::int64_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), kN) << policy_name(pol);
  }
}

TEST(DefaultGrain, MatchesCilkFormula) {
  // min(2048, ceil(N / 8P)), floor 1
  EXPECT_EQ(default_grain(16384, 1), 2048);
  EXPECT_EQ(default_grain(16384, 8), 256);
  EXPECT_EQ(default_grain(16385, 8), 257);
  EXPECT_EQ(default_grain(100, 8), 2);
  EXPECT_EQ(default_grain(7, 8), 1);
  EXPECT_EQ(default_grain(0, 8), 1);
  EXPECT_EQ(default_grain(1 << 30, 4), 2048);
}

TEST(PolicyNames, RoundTrip) {
  for (policy pol :
       {policy::serial, policy::static_part, policy::dynamic_shared,
        policy::guided, policy::dynamic_ws, policy::hybrid}) {
    const auto parsed = policy_from_name(policy_name(pol));
    ASSERT_TRUE(parsed.has_value()) << policy_name(pol);
    EXPECT_EQ(*parsed, pol);
  }
  EXPECT_FALSE(policy_from_name("nope").has_value());
  EXPECT_EQ(policy_from_name("vanilla"), policy::dynamic_ws);
  EXPECT_EQ(policy_from_name("omp_guided"), policy::guided);
}

TEST(LoopOptions, ExplicitGrainRespectedByTraceChunkSizes) {
  rt::runtime rt(2);
  trace::loop_trace tr(rt.num_workers());
  loop_options opt;
  opt.grain = 16;
  opt.trace = &tr;
  parallel_for(rt, 0, 256, policy::dynamic_ws,
               [](std::int64_t, std::int64_t) {}, opt);
  for (const auto& c : tr.sorted_by_seq()) {
    EXPECT_LE(c.end - c.begin, 16);
  }
  EXPECT_EQ(tr.total_iterations(), 256);
}

TEST(LoopOptions, ForeignThreadRecordsOnForeignTraceLane) {
  rt::runtime rt(2);
  trace::loop_trace tr(rt.num_workers());
  loop_options opt;
  opt.grain = 16;
  opt.trace = &tr;
  std::atomic<std::int64_t> sum{0};
  // A thread not bound to the runtime degrades to serial execution; its
  // chunks must land on the foreign lane, never on worker 0's.
  std::thread outsider([&] {
    parallel_for(rt, 0, 256, policy::dynamic_ws,
                 [&](std::int64_t lo, std::int64_t hi) {
                   sum.fetch_add(hi - lo, std::memory_order_relaxed);
                 },
                 opt);
  });
  outsider.join();
  EXPECT_EQ(sum.load(), 256);
  EXPECT_EQ(tr.total_iterations(), 256);
  EXPECT_EQ(tr.of_worker(0).size(), 0u);
  EXPECT_GT(tr.foreign_chunks().size(), 0u);
  for (const auto& c : tr.foreign_chunks()) {
    EXPECT_EQ(c.worker, trace::loop_trace::kForeignLane);
  }
}

TEST(LoopOptions, SharedQueueChunkSizeRespected) {
  rt::runtime rt(2);
  trace::loop_trace tr(rt.num_workers());
  loop_options opt;
  opt.chunk = 10;
  opt.trace = &tr;
  parallel_for(rt, 0, 95, policy::dynamic_shared,
               [](std::int64_t, std::int64_t) {}, opt);
  const auto chunks = tr.sorted_by_seq();
  for (const auto& c : chunks) {
    EXPECT_LE(c.end - c.begin, 10);
  }
  EXPECT_EQ(tr.total_iterations(), 95);
}

// The largest chunk and min_chunk parallel_for accepts, and loops that end
// at INT64_MAX: each queue take adds at most what is left, so nothing
// overflows however often a drained queue is taken from again.
TEST(LoopOptions, BigQueueChunksRunEachIterationOnce) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kN = 1000;
  rt::runtime rt(4);
  struct big_case {
    policy pol;
    std::int64_t begin, chunk, min_chunk;
  };
  for (const big_case c :
       {big_case{policy::dynamic_shared, 0, kMax, 1},
        big_case{policy::guided, 0, 0, kMax},
        big_case{policy::dynamic_shared, kMax - kN, kMax, 1},
        big_case{policy::dynamic_shared, kMax - kN, 0, 1},
        big_case{policy::guided, kMax - kN, 0, kMax},
        big_case{policy::guided, kMax - kN, 0, 1}}) {
    loop_options opt;
    opt.chunk = c.chunk;
    opt.min_chunk = c.min_chunk;
    std::vector<std::atomic<int>> hits(kN);
    const loop_result res = parallel_for(
        rt, c.begin, c.begin + kN, c.pol,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            hits[static_cast<std::size_t>(i - c.begin)].fetch_add(
                1, std::memory_order_relaxed);
          }
        },
        opt);
    EXPECT_TRUE(res.ok());
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << policy_name(c.pol) << " begin " << c.begin << " chunk "
          << c.chunk << " min_chunk " << c.min_chunk << " iteration " << i;
    }
  }
}

TEST(StaticPolicy, EachWorkerOwnsOneContiguousBlock) {
  constexpr std::uint32_t kP = 4;
  rt::runtime rt(kP);
  trace::loop_trace tr(kP);
  loop_options opt;
  opt.trace = &tr;
  parallel_for(rt, 0, 100, policy::static_part,
               [](std::int64_t, std::int64_t) {}, opt);
  // Exactly P chunks, one per worker, deterministic block boundaries.
  ASSERT_EQ(tr.chunk_count(), kP);
  for (std::uint32_t w = 0; w < kP; ++w) {
    ASSERT_EQ(tr.of_worker(w).size(), 1u) << "worker " << w;
    const auto& c = tr.of_worker(w).front();
    EXPECT_EQ(c.begin, w * 25);
    EXPECT_EQ(c.end, (w + 1) * 25);
  }
}

TEST(StaticPolicy, DeterministicAcrossRuns) {
  constexpr std::uint32_t kP = 3;
  rt::runtime rt(kP);
  for (int run = 0; run < 3; ++run) {
    trace::loop_trace tr(kP);
    loop_options opt;
    opt.trace = &tr;
    parallel_for(rt, 0, 10, policy::static_part,
                 [](std::int64_t, std::int64_t) {}, opt);
    const auto owners = tr.iteration_owners(0, 10);
    // 10 = 3*3+1: blocks of 4,3,3
    const std::vector<std::uint32_t> expect{0, 0, 0, 0, 1, 1, 1, 2, 2, 2};
    EXPECT_EQ(owners, expect);
  }
}

}  // namespace
}  // namespace hls
