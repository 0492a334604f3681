// Telemetry integration tests on the live runtime: snapshot/delta
// consistency while workers run, the Lemma 4 claim-sequence bound on real
// contended hybrid loops, and a round-trip parse of the exported Chrome
// trace JSON.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_lite.h"
#include "sched/loop.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/profiler.h"
#include "telemetry/registry.h"
#include "util/bits.h"

namespace hls {
namespace {

constexpr std::uint32_t kWorkers = 4;

// A body heavy enough that workers genuinely join loops (and contend for
// partitions) instead of the poster finishing everything alone.
void run_hybrid_loops(rt::runtime& rt, int loops, std::int64_t n,
                      const telemetry::loop_site* site = nullptr) {
  std::vector<double> acc(static_cast<std::size_t>(n), 1.0);
  loop_options opt;
  opt.site = site;
  opt.grain = 64;
  for (int l = 0; l < loops; ++l) {
    parallel_for(
        rt, 0, n, policy::hybrid,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            const auto idx = static_cast<std::size_t>(i);
            acc[idx] = acc[idx] * 1.0000001 + 0.5;
          }
        },
        opt);
  }
}

TEST(TelemetryRuntime, SnapshotsAreMonotonicUnderConcurrentLoad) {
  rt::runtime rt(kWorkers);
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  // An outside observer thread samples totals() while the workers run;
  // every SUM counter must be non-decreasing between samples.
  std::thread sampler([&] {
    telemetry::counter_set prev = rt.tel().totals();
    while (!stop.load(std::memory_order_acquire)) {
      const telemetry::counter_set cur = rt.tel().totals();
#define HLS_X(name, desc) \
  if (cur.name < prev.name) bad.fetch_add(1);
      HLS_TELEMETRY_SUM_COUNTERS(HLS_X)
#undef HLS_X
      prev = cur;
      std::this_thread::yield();
    }
  });
  run_hybrid_loops(rt, 60, 20'000);
  stop.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(TelemetryRuntime, DeltaAccountsPostedLoopsAndClaims) {
  rt::runtime rt(kWorkers);
  run_hybrid_loops(rt, 3, 10'000);  // warm-up: spin up all workers

  const telemetry::counter_set before = rt.tel().totals();
  constexpr int kLoops = 20;
  run_hybrid_loops(rt, kLoops, 10'000);

  // parallel_for returns once all iterations retired, but a non-posting
  // worker may still be rolling up its final claim sequence; wait for the
  // counters to quiesce before taking the delta.
  telemetry::counter_set delta = rt.tel().totals() - before;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (delta.claims_ok < static_cast<std::uint64_t>(kLoops) * kWorkers &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
    delta = rt.tel().totals() - before;
  }

  EXPECT_EQ(delta.loops_posted, static_cast<std::uint64_t>(kLoops));
  // Every partition of every loop is claimed exactly once (R = P here).
  EXPECT_EQ(delta.claims_ok, static_cast<std::uint64_t>(kLoops) * kWorkers);
  EXPECT_GE(delta.chunks_run, static_cast<std::uint64_t>(kLoops) * kWorkers);
  EXPECT_GE(delta.claim_sequences, static_cast<std::uint64_t>(kLoops));
}

TEST(TelemetryRuntime, HybridClaimSequencesRespectLemma4) {
  rt::runtime rt(kWorkers);
  // Many short loops with all workers hot: every pass through the claim
  // loop on R = 4 partitions must stay within lg R + 1 = 3.
  run_hybrid_loops(rt, 3, 20'000);  // ensure all workers are running
  run_hybrid_loops(rt, 200, 4'000);

  const std::uint64_t bound = ceil_log2(kWorkers) + 1;
  const telemetry::counter_set total = rt.tel().totals();
  EXPECT_GT(total.claims_ok, 0u);
  EXPECT_GT(total.claim_sequences, 0u);
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    EXPECT_LE(rt.tel().of_worker(w).max_claim_seq_len, bound)
        << "worker " << w;
  }
  EXPECT_EQ(rt.tel().lemma4_violations(), 0u);
  const telemetry::histogram_snapshot h = rt.tel().claim_seq_histogram();
  EXPECT_EQ(h.count, total.claim_sequences);
  EXPECT_LE(h.max, bound);
}

TEST(TelemetryRuntime, EventsOffRecordsNoEventsOrChunkTimings) {
  rt::runtime rt(kWorkers);
  run_hybrid_loops(rt, 10, 10'000);
  EXPECT_FALSE(rt.tel().events_enabled());
  EXPECT_TRUE(rt.tel().collect_events().empty());
  EXPECT_EQ(rt.tel().chunk_ns_histogram().count, 0u);
  // The always-on layers still populated.
  EXPECT_GT(rt.tel().totals().chunks_run, 0u);
  EXPECT_GT(rt.tel().claim_seq_histogram().count, 0u);
}

#ifndef HLS_TELEMETRY_NO_EVENTS
TEST(TelemetryRuntime, ChromeTraceRoundTripsWithSpansAndClaims) {
  rt::runtime rt(kWorkers);
  run_hybrid_loops(rt, 3, 20'000);  // ensure all workers are running
  rt.tel().enable_events();
  run_hybrid_loops(rt, 30, 20'000, HLS_LOOP_SITE("traced_loop"));
  rt.tel().disable_events();

  std::ostringstream os;
  telemetry::write_chrome_trace(os, rt.tel());
  const auto doc = json_lite::parse(os.str());
  ASSERT_TRUE(doc.has_value()) << "trace is not valid JSON";
  const json_lite::value* evs = doc->get("traceEvents");
  ASSERT_NE(evs, nullptr);
  ASSERT_TRUE(evs->is_array());

  std::map<int, int> spans, claims, ok_claims;
  int labeled_loops = 0;
  for (const auto& e : evs->as_array()) {
    const std::string& ph = e.get("ph")->as_string();
    if (ph == "M") continue;
    const int pid = static_cast<int>(e.get("pid")->as_number());
    ASSERT_EQ(pid, telemetry::kWorkerPid);
    const int tid = static_cast<int>(e.get("tid")->as_number());
    const std::string& name = e.get("name")->as_string();
    // A slowed runtime (a sanitizer build) can trip the watchdog, whose
    // stall marks sit on the lane just past the workers'.
    if (name == "stall-detected" || name.rfind("stall w", 0) == 0) {
      ASSERT_EQ(tid, static_cast<int>(kWorkers)) << name;
      continue;
    }
    ASSERT_GE(tid, 0);
    ASSERT_LT(tid, static_cast<int>(kWorkers)) << name;
    if (ph == "X") {
      ++spans[tid];
      EXPECT_NE(e.get("dur"), nullptr);
      if (name == "loop:traced_loop") ++labeled_loops;
    } else if (ph == "i" && (name == "claim" || name == "claim-fail")) {
      ++claims[tid];
      if (name == "claim") ++ok_claims[tid];
    }
  }

  // A worker that claimed a partition must show the execution spans for
  // it alongside the claim instant; at least one worker participated.
  // (A worker whose only participation was a failed designated-partition
  // probe legitimately has claim events but no spans.)
  EXPECT_FALSE(claims.empty());
  EXPECT_FALSE(ok_claims.empty());
  for (const auto& [tid, n] : ok_claims) {
    EXPECT_GE(n, 1) << "worker " << tid;
    EXPECT_GE(claims[tid], 1) << "worker " << tid;
    EXPECT_GE(spans[tid], 1) << "worker " << tid;
  }
  EXPECT_GE(labeled_loops, 1);  // site name flowed into span names
}
#endif

}  // namespace
}  // namespace hls
