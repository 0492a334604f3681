// Export-layer tests: interpolated percentile extraction, the background
// sampler's lifecycle / ring / tear-freedom under concurrent counter
// writers, Prometheus exposition and JSONL round-trips (parsed back
// through json_lite.h), and wake_to_first_chunk — both the live
// worker_state histogram path and the post-hoc span stitcher.
#include "telemetry/export_prom.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_lite.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/histogram.h"
#include "telemetry/profiler.h"
#include "telemetry/registry.h"
#include "telemetry/sampler.h"

namespace hls::telemetry {
namespace {

// ------------------------------------------------- histogram_percentile

TEST(HistogramPercentile, EmptyAndExtremeQuantiles) {
  EXPECT_EQ(histogram_percentile(histogram_snapshot{}, 0.5), 0.0);
  pow2_histogram live;
  live.record(100);
  const histogram_snapshot h = live.snapshot();
  EXPECT_EQ(histogram_percentile(h, 1.0), 100.0);
  EXPECT_EQ(histogram_percentile(h, 2.0), 100.0);  // clamped
}

TEST(HistogramPercentile, InterpolatesInsideTheBucket) {
  // 100 values of 0 (bucket [0,1)) and 100 of 3 (bucket [2,4)).
  pow2_histogram live;
  for (int i = 0; i < 100; ++i) live.record(0);
  for (int i = 0; i < 100; ++i) live.record(3);
  const histogram_snapshot h = live.snapshot();
  // p25: halfway through the zero bucket's mass -> 0.5 into [0,1).
  EXPECT_DOUBLE_EQ(histogram_percentile(h, 0.25), 0.5);
  // p50: the full zero bucket -> its upper edge.
  EXPECT_DOUBLE_EQ(histogram_percentile(h, 0.50), 1.0);
  // p75: halfway into the [2,4) mass -> 3.0.
  EXPECT_DOUBLE_EQ(histogram_percentile(h, 0.75), 3.0);
}

TEST(HistogramPercentile, ClampsToObservedMax) {
  // One value of 100 in bucket [64,128): naive interpolation at p99 would
  // give 64 + 0.99*64 = 127.4, past anything that was actually recorded.
  pow2_histogram live;
  live.record(100);
  const histogram_snapshot h = live.snapshot();
  EXPECT_LE(histogram_percentile(h, 0.99), 100.0);
  EXPECT_GE(histogram_percentile(h, 0.99), 64.0);
  // Never below the coarse bucket floor, never above quantile()'s ceiling.
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_LE(histogram_percentile(h, q),
              static_cast<double>(h.quantile(q)) + 1.0)
        << "q=" << q;
  }
}

// --------------------------------------------------------------- sampler

TEST(Sampler, StartStopLifecycleTakesBoundarySamples) {
  registry reg(2);
  sampler::options o;
  o.hz = 1000.0;
  o.ring_capacity = 8;
  sampler s(reg, o);
  EXPECT_FALSE(s.running());
  EXPECT_EQ(s.taken(), 0u);
  s.start();
  EXPECT_TRUE(s.running());
  EXPECT_GE(s.taken(), 1u);  // one immediate sample at start
  s.start();                 // idempotent
  EXPECT_TRUE(s.running());
  bump(reg.of(0).counters.tasks_run, 3);
  s.stop();
  EXPECT_FALSE(s.running());
  const std::uint64_t taken = s.taken();
  EXPECT_GE(taken, 2u);  // the start sample plus the final stop sample
  s.stop();              // idempotent: no extra sample
  EXPECT_EQ(s.taken(), taken);

  const auto samples = s.snapshot();
  ASSERT_FALSE(samples.empty());
  EXPECT_LE(samples.size(), 8u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LE(samples[i - 1].ts_ns, samples[i].ts_ns) << "sample " << i;
  }
  // The final sample is taken inside stop(), after the bump above.
  EXPECT_EQ(samples.back().totals.tasks_run, 3u);
}

TEST(Sampler, RingEvictsOldestWhenFull) {
  registry reg(1);
  sampler::options o;
  o.hz = 100000.0;  // clamped ceiling: one sample every 10us
  o.ring_capacity = 2;
  sampler s(reg, o);
  s.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (s.taken() < 5 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  s.stop();
  EXPECT_GE(s.taken(), 5u);
  const auto samples = s.snapshot();
  ASSERT_EQ(samples.size(), 2u);  // only the newest two retained
  EXPECT_LE(samples[0].ts_ns, samples[1].ts_ns);
}

TEST(Sampler, ConcurrentWritersYieldMonotoneTearFreeSeries) {
  registry reg(2);
  sampler::options o;
  o.hz = 5000.0;
  sampler s(reg, o);
  s.start();
  // Each thread owns one worker_state (the runtime's single-writer
  // discipline); the sampler reads concurrently. Under TSAN this is the
  // no-tear check for the whole capture path.
  std::thread t0([&] {
    for (int i = 0; i < 20000; ++i) {
      bump(reg.of(0).counters.tasks_run);
      reg.of(0).claim_seq_hist.record(static_cast<std::uint64_t>(i & 7));
    }
  });
  std::thread t1([&] {
    for (int i = 0; i < 20000; ++i) {
      bump(reg.of(1).counters.steals);
      reg.of(1).wake_to_chunk_hist.record(static_cast<std::uint64_t>(i));
    }
  });
  t0.join();
  t1.join();
  s.stop();
  const auto v = s.snapshot();
  ASSERT_GE(v.size(), 2u);
  for (std::size_t i = 1; i < v.size(); ++i) {
    EXPECT_LE(v[i - 1].ts_ns, v[i].ts_ns);
    // Monotone counters: a torn or reordered capture would regress.
    EXPECT_LE(v[i - 1].totals.tasks_run, v[i].totals.tasks_run);
    EXPECT_LE(v[i - 1].totals.steals, v[i].totals.steals);
    EXPECT_LE(v[i - 1].claim_seq.count, v[i].claim_seq.count);
    EXPECT_LE(v[i - 1].wake_to_chunk_ns.count, v[i].wake_to_chunk_ns.count);
  }
  // The stop() sample runs after both joins: it must see everything.
  EXPECT_EQ(v.back().totals.tasks_run, 20000u);
  EXPECT_EQ(v.back().totals.steals, 20000u);
  EXPECT_EQ(v.back().wake_to_chunk_ns.count, 20000u);
}

// ------------------------------------------------------------ Prometheus

TEST(Prometheus, ExposesCountersHistogramsSamplerAndSites) {
  registry reg(2);
  bump(reg.of(0).counters.tasks_run, 3);
  bump(reg.of(1).counters.steals, 2);
  reg.of(0).claim_seq_hist.record(1);
  reg.of(0).wake_to_chunk_hist.record(500);

  loop_profiler prof;
  const loop_site site{"prom.cpp", 3, "prom_site"};
  {
    invocation_probe probe(reg, &prof);
    bump(reg.of(0).counters.chunks_run, 4);
    probe.commit(&site, policy::hybrid, 2, 8, 100, 0, 0,
                 degrade_reason::none);
  }
  sampler smp(reg);
  smp.start();
  smp.stop();

  std::ostringstream os;
  write_prometheus(os, reg, &smp, &prof);
  const std::string text = os.str();
  const auto has = [&](const std::string& needle) {
    return text.find(needle) != std::string::npos;
  };
  EXPECT_TRUE(has("hls_tasks_run_total 3\n")) << text;
  EXPECT_TRUE(has("hls_steals_total 2\n"));
  EXPECT_TRUE(has("hls_workers 2\n"));
  EXPECT_TRUE(has("hls_lemma4_violations 0\n"));
  EXPECT_TRUE(has("hls_claim_seq_len{quantile=\"0.5\"}"));
  EXPECT_TRUE(has("hls_claim_seq_len{quantile=\"0.95\"}"));
  EXPECT_TRUE(has("hls_claim_seq_len{quantile=\"0.99\"}"));
  EXPECT_TRUE(has("hls_claim_seq_len_count 1\n"));
  EXPECT_TRUE(has("hls_wake_to_first_chunk_ns_count 1\n"));
  EXPECT_TRUE(has("hls_wake_to_first_chunk_ns_sum 500\n"));
  EXPECT_TRUE(has("hls_metrics_samples_total"));
  const std::string labels =
      "{site=\"prom.cpp:3#prom_site\",n_bucket=\"" +
      std::to_string(loop_profiler::n_bucket_of(100)) + "\"}";
  EXPECT_TRUE(has("hls_loop_site_invocations_total" + labels + " 1\n"));
  EXPECT_TRUE(has("hls_loop_site_wall_ns_total" + labels));

  // Every exposition line is a comment or "name[{labels}] value" with a
  // parseable numeric value.
  std::istringstream lines(text);
  std::string line;
  int metric_lines = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    char* endp = nullptr;
    std::strtod(line.c_str() + sp + 1, &endp);
    EXPECT_EQ(*endp, '\0') << line;
    ++metric_lines;
  }
  // Every counter, plus gauges, summaries, sampler, and two site lines.
  EXPECT_GE(metric_lines, kNumCounters + 2 + 4 * 5 + 1 + 2);
}

TEST(Prometheus, EscapesLabelValues) {
  registry reg(1);
  loop_profiler prof;
  invocation_probe probe(reg, &prof);
  const loop_site site{"esc.cpp", 1, "quo\"te\\path"};
  probe.commit(&site, policy::hybrid, 1, 8, 4, 0, 0, degrade_reason::none);
  std::ostringstream os;
  write_prometheus(os, reg, nullptr, &prof);
  EXPECT_NE(os.str().find("site=\"esc.cpp:1#quo\\\"te\\\\path\""),
            std::string::npos)
      << os.str();
}

// ------------------------------------------------------------------ JSONL

std::vector<json_lite::value> parse_jsonl(const std::string& text) {
  std::vector<json_lite::value> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    auto doc = json_lite::parse(line);
    EXPECT_TRUE(doc.has_value()) << line;
    if (doc.has_value()) out.push_back(std::move(*doc));
  }
  return out;
}

TEST(JsonlExport, SamplesRoundTripThroughJsonLite) {
  registry reg(1);
  bump(reg.of(0).counters.tasks_run, 9);
  reg.of(0).claim_seq_hist.record(2);
  reg.of(0).claim_seq_hist.record(2);
  sampler smp(reg);
  smp.start();
  smp.stop();

  std::ostringstream os;
  write_samples_jsonl(os, smp);
  const auto rows = parse_jsonl(os.str());
  ASSERT_EQ(rows.size(), smp.snapshot().size());
  for (const auto& row : rows) {
    EXPECT_EQ(row.get("kind")->as_string(), "sample");
    ASSERT_NE(row.get("ts_ns"), nullptr);
    ASSERT_NE(row.get("counters"), nullptr);
    ASSERT_NE(row.get("claim_seq"), nullptr);
    ASSERT_NE(row.get("wake_to_chunk_ns"), nullptr);
    ASSERT_NE(row.get("lemma4_violations"), nullptr);
  }
  // Every sample was taken after the bumps above.
  const auto& last = rows.back();
  EXPECT_EQ(last.get("counters")->get("tasks_run")->as_number(), 9.0);
  EXPECT_EQ(last.get("claim_seq")->get("count")->as_number(), 2.0);
  EXPECT_EQ(last.get("claim_seq")->get("sum")->as_number(), 4.0);
  ASSERT_NE(last.get("claim_seq")->get("p50"), nullptr);
  ASSERT_NE(last.get("claim_seq")->get("p99"), nullptr);
}

TEST(JsonlExport, ProfilesCarryRecordsSitesAndResidualArithmetic) {
  registry reg(2);
  loop_profiler prof;
  const loop_site site_a{"jl.cpp", 1, "jl_a"};
  const loop_site site_b{"jl.cpp", 2, "jl_b"};
  bump(reg.of(0).counters.tasks_run, 5);  // unattributed -> residual
  {
    invocation_probe probe(reg, &prof);
    bump(reg.of(1).counters.tasks_run, 2);
    bump(reg.of(1).counters.chunks_run, 1);
    probe.commit(&site_a, policy::hybrid, 2, 8, 64, 0, 0,
                 degrade_reason::none);
  }
  {
    invocation_probe probe(reg, &prof);
    bump(reg.of(0).counters.steals, 4);
    probe.commit(&site_b, policy::dynamic_ws, 0, 8, 2048, 0, 0,
                 degrade_reason::foreign_thread);
  }

  std::ostringstream os;
  write_profiles_jsonl(os, reg, prof);
  const auto rows = parse_jsonl(os.str());

  double invocation_tasks = 0, invocation_steals = 0;
  int invocations = 0, site_rows = 0, residual_rows = 0;
  const json_lite::value* residual = nullptr;
  for (const auto& row : rows) {
    const std::string& kind = row.get("kind")->as_string();
    if (kind == "invocation") {
      ++invocations;
      invocation_tasks += row.get("delta")->get("tasks_run")->as_number();
      invocation_steals += row.get("delta")->get("steals")->as_number();
      if (row.get("site")->as_string() == site_b.key()) {
        EXPECT_EQ(row.get("degrade")->as_string(), "foreign_thread");
        EXPECT_EQ(row.get("policy")->as_string(), "dynamic_ws");
        EXPECT_EQ(row.get("iterations")->as_number(), 2048.0);
      }
    } else if (kind == "site") {
      ++site_rows;
      EXPECT_EQ(row.get("invocations")->as_number(), 1.0);
      EXPECT_EQ(row.get("retained")->as_number(), 1.0);
    } else if (kind == "residual") {
      ++residual_rows;
      residual = &row;
    }
  }
  EXPECT_EQ(invocations, 2);
  EXPECT_EQ(site_rows, 2);
  ASSERT_EQ(residual_rows, 1);
  ASSERT_NE(residual, nullptr);

  // The accounting identity, checked through the serialized numbers: the
  // per-invocation deltas plus the residual reproduce the global snapshot.
  const auto field = [&](const char* sect, const char* name) {
    return residual->get(sect)->get(name)->as_number();
  };
  EXPECT_EQ(field("recorded", "tasks_run"), invocation_tasks);
  EXPECT_EQ(field("recorded", "steals"), invocation_steals);
  EXPECT_EQ(invocation_tasks + field("residual", "tasks_run"),
            field("totals", "tasks_run"));
  EXPECT_EQ(invocation_steals + field("residual", "steals"),
            field("totals", "steals"));
  EXPECT_EQ(field("totals", "tasks_run"), 7.0);
  EXPECT_EQ(field("residual", "tasks_run"), 5.0);
}

TEST(JsonlExport, WriteMetricsFilesWritesBothOrFails) {
  registry reg(1);
  bump(reg.of(0).counters.tasks_run, 1);
  sampler smp(reg);
  smp.start();
  smp.stop();
  loop_profiler prof;

  const std::string path = ::testing::TempDir() + "hls_metrics_test.jsonl";
  ASSERT_TRUE(write_metrics_files(path, reg, &smp, &prof));
  {
    std::ifstream jf(path);
    ASSERT_TRUE(jf.good());
    std::stringstream buf;
    buf << jf.rdbuf();
    const auto rows = parse_jsonl(buf.str());
    ASSERT_FALSE(rows.empty());
    // Samples first, then the profiles' closing residual line.
    EXPECT_EQ(rows.front().get("kind")->as_string(), "sample");
    EXPECT_EQ(rows.back().get("kind")->as_string(), "residual");
  }
  {
    std::ifstream pf(path + ".prom");
    ASSERT_TRUE(pf.good());
    std::stringstream buf;
    buf << pf.rdbuf();
    EXPECT_NE(buf.str().find("hls_tasks_run_total 1"), std::string::npos);
  }
  std::remove(path.c_str());
  std::remove((path + ".prom").c_str());

  EXPECT_FALSE(write_metrics_files("/nonexistent-dir-hls/x.jsonl", reg, &smp,
                                   &prof));
}

// ------------------------------------------------- wake_to_first_chunk

TEST(WakeHistogram, LiveArmDisarmRecord) {
  registry reg(1);
  worker_state& w = reg.of(0);
  EXPECT_FALSE(w.wake_pending());
  w.mark_woken(1000);
  EXPECT_TRUE(w.wake_pending());
  w.note_chunk_started(1600);
  EXPECT_FALSE(w.wake_pending());
  histogram_snapshot h = reg.wake_to_chunk_histogram();
  EXPECT_EQ(h.count, 1u);
  EXPECT_EQ(h.sum, 600u);
  // Timeout/stop wakes disarm without recording.
  w.mark_woken(2000);
  w.clear_pending_wake();
  EXPECT_FALSE(w.wake_pending());
  EXPECT_EQ(reg.wake_to_chunk_histogram().count, 1u);
  // A non-monotone timestamp clamps to zero instead of wrapping.
  w.mark_woken(5000);
  w.note_chunk_started(4000);
  h = reg.wake_to_chunk_histogram();
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 600u);
}

worker_event idle(std::uint32_t w, std::uint64_t ts, std::uint64_t dur,
                  std::int64_t notified) {
  return worker_event{w, {ts, dur, notified, 0, event_kind::idle_span}};
}

worker_event chunk(std::uint32_t w, std::uint64_t ts) {
  return worker_event{w, {ts, 10, 0, 8, event_kind::chunk_span}};
}

TEST(WakeSpans, StitchArmsDisarmsAndCloses) {
  std::vector<worker_event> evs;
  // Worker 1: notified park ending at 100, first chunk at 150 -> span 50.
  evs.push_back(idle(1, 50, 50, 1));
  evs.push_back(chunk(1, 150));
  // Worker 2: timeout park disarms; its later chunk closes nothing.
  evs.push_back(idle(2, 60, 40, 0));
  evs.push_back(chunk(2, 180));
  // Worker 1 again: two notified parks before the next chunk — only the
  // later wake counts (re-arming drops the fruitless first wake, matching
  // the live histogram's semantics).
  evs.push_back(idle(1, 200, 20, 1));  // wake at 220, dropped
  evs.push_back(idle(1, 230, 30, 1));  // wake at 260
  evs.push_back(chunk(1, 300));        // span 40
  // Worker 3: armed but never runs a chunk -> no span.
  evs.push_back(idle(3, 10, 5, 1));
  std::sort(evs.begin(), evs.end(),
            [](const worker_event& a, const worker_event& b) {
              return a.ev.ts_ns < b.ev.ts_ns;
            });

  const auto spans = stitch_wake_spans(evs);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].worker, 1u);
  EXPECT_EQ(spans[0].wake_ns, 100u);
  EXPECT_EQ(spans[0].chunk_ns, 150u);
  EXPECT_EQ(spans[0].latency_ns(), 50u);
  EXPECT_EQ(spans[1].worker, 1u);
  EXPECT_EQ(spans[1].wake_ns, 260u);
  EXPECT_EQ(spans[1].chunk_ns, 300u);
  EXPECT_EQ(spans[1].latency_ns(), 40u);
}

TEST(WakeSpans, OtherEventKindsDoNotClose) {
  std::vector<worker_event> evs;
  evs.push_back(idle(0, 100, 20, 1));  // wake at 120
  evs.push_back({0, {130, 5, 0, 0, event_kind::steal}});
  evs.push_back({0, {140, 5, 3, 1, event_kind::claim_ok}});
  evs.push_back(chunk(0, 150));
  const auto spans = stitch_wake_spans(evs);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].wake_ns, 120u);
  EXPECT_EQ(spans[0].chunk_ns, 150u);
}

}  // namespace
}  // namespace hls::telemetry
