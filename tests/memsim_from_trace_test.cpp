// The real-runtime -> memsim bridge: run actual threaded loops with
// tracing, convert the traces, replay through the cache hierarchy, and
// check the same invariants the DES-driven replay satisfies.
#include "memsim/from_trace.h"

#include <gtest/gtest.h>

#include <deque>

#include "memsim/replay.h"
#include "sched/loop.h"
#include "workloads/micro.h"

namespace hls::memsim {
namespace {

TEST(FromTrace, ConvertsChunksInOrder) {
  trace::loop_trace t0(2), t1(2);
  t0.record(0, 0, 5);
  t0.record(1, 5, 10);
  t1.record(1, 0, 10);
  const auto events = chunks_from_traces({&t0, &t1});
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].loop_in_sequence, 0u);
  EXPECT_EQ(events[0].begin, 0);
  EXPECT_EQ(events[0].core, 0u);
  EXPECT_EQ(events[2].loop_in_sequence, 1u);
  // Ordering key is loop-major.
  EXPECT_LT(events[1].start_ns, events[2].start_ns);
}

TEST(FromTrace, ThreadedRunFeedsHierarchy) {
  workloads::micro_params mp;
  mp.iterations = 128;
  mp.total_bytes = 128 * 4096;
  mp.outer_iterations = 1;
  const auto spec = workloads::micro_spec(mp);

  rt::runtime rt(4);
  workloads::micro_bench mb(mp);
  std::deque<trace::loop_trace> traces;  // loop_trace is not movable
  std::vector<const trace::loop_trace*> ptrs;
  for (int step = 0; step < 3; ++step) {
    traces.emplace_back(rt.num_workers());
    loop_options opt;
    opt.trace = &traces.back();
    mb.run_once(rt, policy::hybrid, opt);
  }
  for (const auto& t : traces) ptrs.push_back(&t);

  hierarchy h(sim::machine_desc{});
  const auto counts =
      replay_schedule(h, spec, chunks_from_traces(ptrs), rt.num_workers());
  // 3 loop instances x 128 regions x 64 lines each, demand-accessed once
  // per visit. Each line visit misses L1 at most once, and every line of
  // the first instance is cold. How many later visits hit L1 depends on
  // the schedule — hybrid may hand a region back to the worker that last
  // touched it — so only these bounds hold for every schedule.
  const std::uint64_t l1_misses = counts.total() - counts.l1;
  EXPECT_LE(l1_misses, 3u * 128u * 64u);
  EXPECT_GE(l1_misses, 128u * 64u);
  // Everything fits comfortably in caches after the first touch, and the
  // working set is tiny: no remote DRAM if the schedule stayed affine, but
  // at minimum the classification is complete (all lines accounted for).
  EXPECT_GT(counts.dram_local + counts.dram_remote, 0u);
}

TEST(FromTrace, StaticThreadedScheduleIsFullyLocal) {
  workloads::micro_params mp;
  mp.iterations = 64;
  mp.total_bytes = 64 * 8192;
  mp.outer_iterations = 1;
  const auto spec = workloads::micro_spec(mp);

  rt::runtime rt(4);
  workloads::micro_bench mb(mp);
  std::deque<trace::loop_trace> traces;  // loop_trace is not movable
  std::vector<const trace::loop_trace*> ptrs;
  for (int step = 0; step < 2; ++step) {
    traces.emplace_back(rt.num_workers());
    loop_options opt;
    opt.trace = &traces.back();
    mb.run_once(rt, policy::static_part, opt);
  }
  for (const auto& t : traces) ptrs.push_back(&t);

  hierarchy h(sim::machine_desc{});
  const auto counts =
      replay_schedule(h, spec, chunks_from_traces(ptrs), rt.num_workers());
  // Static blocks + first-touch homes aligned to the same split: no remote
  // traffic even from a real threaded run (static is deterministic).
  EXPECT_EQ(counts.dram_remote, 0u);
  EXPECT_EQ(counts.remote_l3, 0u);
}

}  // namespace
}  // namespace hls::memsim
