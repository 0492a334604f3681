// Per-loop-site profiler tests: loop_site keys, bounded FIFO ring
// eviction, per-(site, pow2-N-bucket) keying, invocation_probe delta
// arithmetic against hand-bumped counters, and end-to-end recording on a
// real runtime — including the foreign-thread degrade_reason path and the
// recorded + residual == global-snapshot accounting identity.
#include "telemetry/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "sched/loop.h"
#include "telemetry/registry.h"

namespace hls::telemetry {
namespace {

// ------------------------------------------------------------ loop_site

TEST(LoopSite, KeyIsBasenameLineAndOptionalName) {
  EXPECT_EQ((loop_site{"/a/b/file.cpp", 42, nullptr}.key()), "file.cpp:42");
  EXPECT_EQ((loop_site{"dir/x.cpp", 7, "relax"}.key()), "x.cpp:7#relax");
  EXPECT_EQ((loop_site{"plain.cpp", 3, ""}.key()), "plain.cpp:3");
  EXPECT_EQ((loop_site{nullptr, 1, nullptr}.key()), "?:1");
}

TEST(LoopSite, MacroYieldsOneStaticInstancePerSite) {
  const loop_site* a = nullptr;
  const loop_site* b = nullptr;
  for (int i = 0; i < 2; ++i) {
    const loop_site* s = HLS_LOOP_SITE("stable");
    (i == 0 ? a : b) = s;
  }
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);  // same lexical site -> same static storage
  EXPECT_STREQ(a->name, "stable");
  EXPECT_GT(a->line, 0);
  EXPECT_NE(a->key().find("profiler_test.cpp:"), std::string::npos);
  EXPECT_NE(a->key().find("#stable"), std::string::npos);
}

TEST(LoopProfiler, NBucketMatchesPow2Histogram) {
  EXPECT_EQ(loop_profiler::n_bucket_of(0), 0);
  EXPECT_EQ(loop_profiler::n_bucket_of(1), 1);
  EXPECT_EQ(loop_profiler::n_bucket_of(1024), pow2_histogram::bucket_of(1024));
  EXPECT_EQ(loop_profiler::n_bucket_of(-5), 0);  // negative clamps to 0
}

// ------------------------------------------------------------ ring store

invocation_record rec_with(std::uint64_t wall_ns, std::uint64_t tasks) {
  invocation_record r;
  r.wall_ns = wall_ns;
  r.delta.tasks_run = tasks;
  return r;
}

TEST(LoopProfiler, RingEvictsOldestFifo) {
  loop_profiler::options o;
  o.ring_capacity = 4;
  loop_profiler prof(o);
  for (std::uint64_t i = 0; i < 10; ++i) {
    prof.record("site", 3, rec_with(i, 1));
  }
  const auto snaps = prof.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  const auto& s = snaps[0];
  EXPECT_EQ(s.site, "site");
  EXPECT_EQ(s.n_bucket, 3);
  EXPECT_EQ(s.invocations, 10u);           // evicted records still counted
  EXPECT_EQ(s.total_wall_ns, 45u);         // 0 + 1 + ... + 9
  ASSERT_EQ(s.records.size(), 4u);
  for (std::size_t i = 0; i < s.records.size(); ++i) {
    EXPECT_EQ(s.records[i].wall_ns, 6 + i) << "slot " << i;  // oldest first
    EXPECT_EQ(s.records[i].seq, 6 + i) << "slot " << i;
  }
  EXPECT_EQ(prof.invocations(), 10u);
  // Evicted records survive in the rollup: all ten deltas are in.
  EXPECT_EQ(prof.recorded_total().tasks_run, 10u);
}

TEST(LoopProfiler, ZeroCapacityClampsToOneSlot) {
  loop_profiler::options o;
  o.ring_capacity = 0;
  loop_profiler prof(o);
  EXPECT_EQ(prof.ring_capacity(), 1u);
  prof.record("s", 0, rec_with(1, 0));
  prof.record("s", 0, rec_with(2, 0));
  const auto snaps = prof.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  ASSERT_EQ(snaps[0].records.size(), 1u);
  EXPECT_EQ(snaps[0].records[0].wall_ns, 2u);  // the newest survives
  EXPECT_EQ(snaps[0].invocations, 2u);
}

TEST(LoopProfiler, SitesAndNBucketsKeySeparately) {
  loop_profiler prof;
  prof.record("a", 4, rec_with(1, 1));
  prof.record("a", 4, rec_with(2, 1));
  prof.record("a", 9, rec_with(3, 1));  // same site, much larger N
  prof.record("b", 4, rec_with(4, 1));
  const auto snaps = prof.snapshot();  // map order: (site, bucket) ascending
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].site, "a");
  EXPECT_EQ(snaps[0].n_bucket, 4);
  EXPECT_EQ(snaps[0].invocations, 2u);
  EXPECT_EQ(snaps[1].site, "a");
  EXPECT_EQ(snaps[1].n_bucket, 9);
  EXPECT_EQ(snaps[1].invocations, 1u);
  EXPECT_EQ(snaps[2].site, "b");
  EXPECT_EQ(snaps[2].n_bucket, 4);
  // Sequence numbers are profiler-wide, in record order across keys.
  EXPECT_EQ(snaps[0].records[0].seq, 0u);
  EXPECT_EQ(snaps[1].records[0].seq, 2u);
  EXPECT_EQ(snaps[2].records[0].seq, 3u);
}

// ------------------------------------------------------ invocation_probe

TEST(InvocationProbe, InactiveProbeIsANoOp) {
  registry reg(1);
  invocation_probe probe(reg, nullptr);
  EXPECT_FALSE(probe.active());
  probe.setup_done();
  probe.work_done();
  probe.commit(nullptr, policy::hybrid, 4, 8, 100, 0, 0,
               degrade_reason::none);
}

TEST(InvocationProbe, DeltaCoversExactlyTheProbeWindow) {
  registry reg(2);
  loop_profiler prof;
  bump(reg.of(0).counters.tasks_run, 7);  // pre-window: must not appear
  invocation_probe probe(reg, &prof);
  EXPECT_TRUE(probe.active());
  bump(reg.of(0).counters.tasks_run, 3);
  bump(reg.of(1).counters.steals, 2);
  bump(reg.of(0).counters.chunks_run, 5);
  bump(reg.of(1).counters.chunks_run, 1);
  probe.setup_done();
  probe.work_done();
  const loop_site site{"window.cpp", 7, nullptr};
  probe.commit(&site, policy::hybrid, 4, 16, 1 << 10, 0, 0,
               degrade_reason::none);

  const auto snaps = prof.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].site, "window.cpp:7");  // unnamed site: file:line
  EXPECT_EQ(snaps[0].n_bucket, loop_profiler::n_bucket_of(1 << 10));
  ASSERT_EQ(snaps[0].records.size(), 1u);
  const invocation_record& r = snaps[0].records[0];
  EXPECT_EQ(r.delta.tasks_run, 3u);  // hand-computed window delta
  EXPECT_EQ(r.delta.steals, 2u);
  EXPECT_EQ(r.delta.chunks_run, 6u);
  EXPECT_EQ(r.busy_max_chunks, 5u);
  EXPECT_EQ(r.busy_min_chunks, 1u);
  EXPECT_DOUBLE_EQ(r.imbalance, 5.0 / 3.0);  // max 5 over mean (5+1)/2
  EXPECT_EQ(r.pol, policy::hybrid);
  EXPECT_EQ(r.partitions, 4u);
  EXPECT_EQ(r.grain, 16);
  EXPECT_EQ(r.workers, 2u);
  EXPECT_EQ(r.iterations, 1 << 10);
  EXPECT_EQ(r.degrade, degrade_reason::none);
  // With both marks set the phases tile the wall time exactly.
  EXPECT_EQ(r.setup_ns + r.work_ns + r.drain_ns, r.wall_ns);
}

TEST(InvocationProbe, KeyFallsBackToPolicyName) {
  registry reg(1);
  loop_profiler prof;
  invocation_probe probe(reg, &prof);
  probe.commit(nullptr, policy::dynamic_ws, 0, 8, 32, 0, 0,
               degrade_reason::none);
  const auto snaps = prof.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].site, policy_name(policy::dynamic_ws));
}

// The site's name labels the loop's trace span; the profiler keys by the
// whole site, so two loops that share a label keep separate histories.
TEST(InvocationProbe, SiteKeyWinsOverLabel) {
  registry reg(1);
  loop_profiler prof;
  const loop_site site{"probe.cpp", 12, "named"};
  invocation_probe probe(reg, &prof);
  probe.commit(&site, policy::hybrid, 1, 8, 16, 0, 0, degrade_reason::none);
  const auto snaps = prof.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].site, "probe.cpp:12#named");
}

TEST(InvocationProbe, RecordedPlusResidualEqualsTotals) {
  registry reg(2);
  loop_profiler prof;
  bump(reg.of(0).counters.tasks_run, 5);  // before any probe: residual
  {
    invocation_probe probe(reg, &prof);
    bump(reg.of(1).counters.tasks_run, 2);
    probe.commit(nullptr, policy::hybrid, 2, 8, 64, 0, 0,
                 degrade_reason::none);
  }
  bump(reg.of(0).counters.steals, 4);  // after the window: residual
  const counter_set totals = reg.totals();
  const counter_set recorded = prof.recorded_total();
  const counter_set residual = totals - recorded;
  EXPECT_EQ(recorded.tasks_run, 2u);
  EXPECT_EQ(residual.tasks_run, 5u);
  EXPECT_EQ(residual.steals, 4u);
  // Field-by-field over the whole x-macro list: recorded + residual
  // reproduces the global snapshot exactly (SUM counters; watermarks are
  // not differentiable and keep the `after` value by definition).
  const counter_set sum = recorded + residual;
#define HLS_X(name, desc) EXPECT_EQ(sum.name, totals.name) << #name;
  HLS_TELEMETRY_SUM_COUNTERS(HLS_X)
#undef HLS_X
}

// ------------------------------------------------------ on a real runtime

TEST(ProfilerRuntime, RecordsPerSiteAndSumsToGlobalSnapshot) {
  rt::runtime rt(2);
  loop_profiler prof;
  rt.tel().set_profiler(&prof);

  std::atomic<std::int64_t> covered{0};
  loop_options a;
  a.site = HLS_LOOP_SITE("loop_a");
  for (int rep = 0; rep < 3; ++rep) {
    parallel_for(
        rt, 0, 1000, policy::hybrid,
        [&](std::int64_t lo, std::int64_t hi) {
          covered.fetch_add(hi - lo, std::memory_order_relaxed);
        },
        a);
  }
  loop_options b;
  b.site = HLS_LOOP_SITE("loop_b");
  parallel_for(
      rt, 0, 64, policy::dynamic_ws,
      [&](std::int64_t lo, std::int64_t hi) {
        covered.fetch_add(hi - lo, std::memory_order_relaxed);
      },
      b);
  rt.tel().set_profiler(nullptr);

  EXPECT_EQ(covered.load(), 3 * 1000 + 64);
  EXPECT_EQ(prof.invocations(), 4u);
  const auto snaps = prof.snapshot();
  ASSERT_EQ(snaps.size(), 2u);

  const auto find_site = [&](const char* tag) -> const auto* {
    for (const auto& s : snaps) {
      if (s.site.find(tag) != std::string::npos) return &s;
    }
    return static_cast<const loop_profiler::site_snapshot*>(nullptr);
  };
  const auto* sa = find_site("#loop_a");
  const auto* sb = find_site("#loop_b");
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);
  EXPECT_EQ(sa->invocations, 3u);
  EXPECT_EQ(sa->n_bucket, loop_profiler::n_bucket_of(1000));
  ASSERT_EQ(sa->records.size(), 3u);
  EXPECT_EQ(sb->invocations, 1u);
  for (const auto& r : sa->records) {
    EXPECT_EQ(r.pol, policy::hybrid);
    EXPECT_EQ(r.iterations, 1000);
    EXPECT_EQ(r.workers, 2u);
    EXPECT_EQ(r.degrade, degrade_reason::none);
    EXPECT_GE(r.delta.chunks_run, 1u);
    EXPECT_GE(r.wall_ns, r.setup_ns + r.work_ns);
  }
  EXPECT_EQ(sb->records[0].pol, policy::dynamic_ws);

  // Nothing was evicted, so the retained records' deltas sum to the
  // recorded rollup, and recorded can never exceed the global totals.
  counter_set from_records;
  for (const auto& s : snaps) {
    for (const auto& r : s.records) from_records += r.delta;
  }
  const counter_set recorded = prof.recorded_total();
#define HLS_X(name, desc) EXPECT_EQ(from_records.name, recorded.name) << #name;
  HLS_TELEMETRY_SUM_COUNTERS(HLS_X)
#undef HLS_X
  const counter_set totals = rt.tel().totals();
#define HLS_X(name, desc) EXPECT_LE(recorded.name, totals.name) << #name;
  HLS_TELEMETRY_SUM_COUNTERS(HLS_X)
#undef HLS_X
  // All 3064 iterations are attributed to some profiled window.
  EXPECT_GE(recorded.chunks_run, 4u);
}

TEST(ProfilerRuntime, ForeignThreadInvocationsAreFlaggedSerialDegrade) {
  rt::runtime rt(2);
  loop_profiler prof;
  rt.tel().set_profiler(&prof);
  std::atomic<std::int64_t> covered{0};
  std::thread foreign([&] {
    loop_options o;
    o.site = HLS_LOOP_SITE("foreign_loop");
    parallel_for(
        rt, 0, 10, policy::hybrid,
        [&](std::int64_t lo, std::int64_t hi) {
          covered.fetch_add(hi - lo, std::memory_order_relaxed);
        },
        o);
  });
  foreign.join();
  rt.tel().set_profiler(nullptr);

  EXPECT_EQ(covered.load(), 10);
  const auto snaps = prof.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_NE(snaps[0].site.find("#foreign_loop"), std::string::npos);
  ASSERT_EQ(snaps[0].records.size(), 1u);
  const invocation_record& r = snaps[0].records[0];
  EXPECT_EQ(r.degrade, degrade_reason::foreign_thread);
  EXPECT_EQ(r.pol, policy::hybrid);  // what was asked for, not what ran
  EXPECT_EQ(r.iterations, 10);
  EXPECT_EQ(r.status, 0);
}

TEST(ProfilerRuntime, SerialPolicyAndUninstalledProfilerRecordNothing) {
  rt::runtime rt(1);
  loop_profiler prof;
  rt.tel().set_profiler(&prof);
  std::int64_t sum = 0;
  parallel_for(rt, 0, 16, policy::serial,
               [&](std::int64_t lo, std::int64_t hi) { sum += hi - lo; });
  rt.tel().set_profiler(nullptr);
  EXPECT_EQ(sum, 16);
  // No site, no label: the serial fast path keys under the policy name.
  const auto snaps = prof.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].site, "serial");

  // With the profiler uninstalled nothing further is recorded.
  parallel_for(rt, 0, 16, policy::serial,
               [&](std::int64_t lo, std::int64_t hi) { sum += hi - lo; });
  EXPECT_EQ(prof.invocations(), 1u);
}

}  // namespace
}  // namespace hls::telemetry
