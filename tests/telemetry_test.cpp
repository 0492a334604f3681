// Unit tests for the telemetry layer in isolation: histogram bucketing,
// x-macro counter arithmetic, event rings, the Lemma 4 online check, and
// the Chrome trace / JSON emitters (round-tripped through json_lite.h).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "json_lite.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/counters.h"
#include "telemetry/events.h"
#include "telemetry/histogram.h"
#include "telemetry/registry.h"
#include "telemetry/report.h"
#include "trace/loop_trace.h"
#include "util/cli.h"
#include "util/table.h"

namespace hls::telemetry {
namespace {

// ----------------------------------------------------------- histograms

TEST(Pow2Histogram, BucketOfEdges) {
  EXPECT_EQ(pow2_histogram::bucket_of(0), 0);
  EXPECT_EQ(pow2_histogram::bucket_of(1), 1);
  EXPECT_EQ(pow2_histogram::bucket_of(2), 2);
  EXPECT_EQ(pow2_histogram::bucket_of(3), 2);
  EXPECT_EQ(pow2_histogram::bucket_of(4), 3);
  for (int k = 1; k < 64; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    EXPECT_EQ(pow2_histogram::bucket_of(p - 1), k) << "value 2^" << k << "-1";
    EXPECT_EQ(pow2_histogram::bucket_of(p), k + 1) << "value 2^" << k;
  }
  EXPECT_EQ(pow2_histogram::bucket_of(~std::uint64_t{0}), 64);
}

TEST(Pow2Histogram, BucketBoundsRoundTrip) {
  for (int b = 0; b < histogram_snapshot::kBuckets; ++b) {
    const std::uint64_t lo = histogram_snapshot::bucket_lo(b);
    const std::uint64_t hi = histogram_snapshot::bucket_hi(b);
    EXPECT_LT(lo, hi) << "bucket " << b;
    EXPECT_EQ(pow2_histogram::bucket_of(lo), b) << "bucket " << b;
    EXPECT_EQ(pow2_histogram::bucket_of(hi - 1), b) << "bucket " << b;
  }
  // Adjacent buckets tile the axis with no gap or overlap.
  for (int b = 0; b + 1 < histogram_snapshot::kBuckets - 1; ++b) {
    EXPECT_EQ(histogram_snapshot::bucket_hi(b),
              histogram_snapshot::bucket_lo(b + 1));
  }
}

TEST(Pow2Histogram, RecordSnapshotAndMerge) {
  pow2_histogram h;
  h.record(0);
  h.record(1);
  h.record(7);
  h.record(1024);
  const histogram_snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 0u + 1 + 7 + 1024);
  EXPECT_EQ(s.max, 1024u);
  EXPECT_EQ(s.buckets[0], 1u);                            // 0
  EXPECT_EQ(s.buckets[1], 1u);                            // 1
  EXPECT_EQ(s.buckets[pow2_histogram::bucket_of(7)], 1u);
  EXPECT_EQ(s.buckets[pow2_histogram::bucket_of(1024)], 1u);

  histogram_snapshot m = s;
  m += s;
  EXPECT_EQ(m.count, 8u);
  EXPECT_EQ(m.sum, 2u * s.sum);
  EXPECT_EQ(m.max, 1024u);

  h.reset();
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_EQ(h.snapshot().max, 0u);
}

TEST(Pow2Histogram, QuantileIsBucketResolution) {
  pow2_histogram h;
  for (int i = 0; i < 99; ++i) h.record(3);  // bucket [2,4)
  h.record(1 << 20);
  const histogram_snapshot s = h.snapshot();
  EXPECT_EQ(s.quantile(0.5), 3u);   // bucket_hi(2) - 1
  EXPECT_EQ(s.quantile(0.99), 3u);
  EXPECT_EQ(s.quantile(1.0), (1u << 21) - 1);  // top bucket's upper edge
  EXPECT_EQ(histogram_snapshot{}.quantile(0.5), 0u);
}

// ------------------------------------------------------------- counters

TEST(CounterSet, AggregationCoversEveryField) {
  counter_set a, b;
  std::uint64_t seed = 1;
  // Assign a distinct value to every field through the x-macro itself, so
  // this test cannot drift from the master list.
#define HLS_X(name, desc) a.name = seed, b.name = 100 + seed, ++seed;
  HLS_TELEMETRY_ALL_COUNTERS(HLS_X)
#undef HLS_X

  const counter_set s = a + b;
  // SUM fields add; MAX fields take the max.
#define HLS_X(name, desc) EXPECT_EQ(s.name, a.name + b.name) << #name;
  HLS_TELEMETRY_SUM_COUNTERS(HLS_X)
#undef HLS_X
#define HLS_X(name, desc) EXPECT_EQ(s.name, b.name) << #name;
  HLS_TELEMETRY_MAX_COUNTERS(HLS_X)
#undef HLS_X

  // Delta recovers the other SUM operand.
  const counter_set d = s - b;
#define HLS_X(name, desc) EXPECT_EQ(d.name, a.name) << #name;
  HLS_TELEMETRY_SUM_COUNTERS(HLS_X)
#undef HLS_X
}

TEST(CounterSet, VisitorSeesEveryFieldOnce) {
  counter_set s;
  std::uint64_t seed = 7;
#define HLS_X(name, desc) s.name = seed++;
  HLS_TELEMETRY_ALL_COUNTERS(HLS_X)
#undef HLS_X

  int visited = 0;
  std::uint64_t expect = 7;
  for_each_counter(s, [&](const char* name, const char* desc,
                          std::uint64_t v) {
    EXPECT_NE(name, nullptr);
    EXPECT_NE(desc, nullptr);
    EXPECT_EQ(v, expect++) << name;
    ++visited;
  });
  EXPECT_EQ(visited, kNumCounters);
}

TEST(CounterSet, AtomicSnapshotMatchesBumps) {
  atomic_counter_set live;
  bump(live.tasks_run);
  bump(live.tasks_run, 4);
  bump(live.steal_latency_ns, 123);
  raise_max(live.max_claim_seq_len, 3);
  raise_max(live.max_claim_seq_len, 2);  // lower: must not regress
  const counter_set s = live.snapshot();
  EXPECT_EQ(s.tasks_run, 5u);
  EXPECT_EQ(s.steal_latency_ns, 123u);
  EXPECT_EQ(s.max_claim_seq_len, 3u);
  EXPECT_EQ(s.steals, 0u);
}

// ----------------------------------------------------------- event ring

TEST(EventRing, KeepsNewestWhenOverwriting) {
  event_ring ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.emit({i, 0, static_cast<std::int64_t>(i), 0,
               event_kind::claim_ok});
  }
  EXPECT_EQ(ring.emitted(), 10u);
  const std::vector<event> got = ring.snapshot();
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].ts_ns, 6 + i);  // oldest retained first
  }
  ring.clear();
  EXPECT_TRUE(ring.snapshot().empty());
  ring.emit({42, 0, 0, 0, event_kind::steal});
  ASSERT_EQ(ring.snapshot().size(), 1u);
  EXPECT_EQ(ring.snapshot()[0].ts_ns, 42u);
}

TEST(EventRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(event_ring(0).capacity(), 2u);
  EXPECT_EQ(event_ring(3).capacity(), 4u);
  EXPECT_EQ(event_ring(8).capacity(), 8u);
}

// -------------------------------------------------------------- lemma 4

std::atomic<std::uint64_t> g_hook_seq_len{0};
std::atomic<std::uint64_t> g_hook_partitions{0};
std::atomic<std::uint32_t> g_hook_worker{0};

void record_violation(std::uint32_t worker, std::uint64_t seq_len,
                      std::uint64_t partitions) {
  g_hook_worker.store(worker);
  g_hook_seq_len.store(seq_len);
  g_hook_partitions.store(partitions);
}

TEST(Lemma4, CheckFlagsOnlySequencesBeyondBound) {
  registry reg(2);
  reg.set_lemma4_hook(&record_violation);

  // At the bound (lg 8 = 3 consecutive failures): fine.
  reg.lemma4_check(0, 3, 8);
  EXPECT_EQ(reg.lemma4_violations(), 0u);
  // R = 1 admits no failed claims; 0 failures is fine.
  reg.lemma4_check(0, 0, 1);
  EXPECT_EQ(reg.lemma4_violations(), 0u);
  // Degenerate partitions: ignored, not a violation.
  reg.lemma4_check(0, 100, 0);
  EXPECT_EQ(reg.lemma4_violations(), 0u);

  // One past the bound: flagged and reported to the hook.
  reg.lemma4_check(1, 4, 8);
  EXPECT_EQ(reg.lemma4_violations(), 1u);
  EXPECT_EQ(g_hook_worker.load(), 1u);
  EXPECT_EQ(g_hook_seq_len.load(), 5u);  // failures + the final claim
  EXPECT_EQ(g_hook_partitions.load(), 8u);
}

TEST(Lemma4, NoteClaimSequenceFeedsCountersAndCheck) {
  registry reg(1);
  worker_state& w = reg.of(0);
  w.note_claim_sequence(/*successes=*/2, /*failures=*/1,
                        /*max_consec_failures=*/1, /*partitions=*/4);
  const counter_set s = reg.totals();
  EXPECT_EQ(s.claim_sequences, 1u);
  EXPECT_EQ(s.claims_ok, 2u);
  EXPECT_EQ(s.claims_failed, 1u);
  EXPECT_EQ(s.max_claim_seq_len, 2u);
  EXPECT_EQ(reg.claim_seq_histogram().count, 1u);
  EXPECT_EQ(reg.lemma4_violations(), 0u);

  // A sequence with no successful claim (loop exit) is never checked.
  w.note_claim_sequence(0, 10, 10, 4);
  EXPECT_EQ(reg.lemma4_violations(), 0u);
  // A successful sequence past lg R: checked and flagged.
  w.note_claim_sequence(1, 3, 3, 4);
  EXPECT_EQ(reg.lemma4_violations(), 1u);
}

// ------------------------------------------------------------- registry

TEST(Registry, InternLabelIsStableAndPositive) {
  registry reg(1);
  const int a = reg.intern_label("alpha");
  const int b = reg.intern_label("beta");
  EXPECT_GE(a, 1);
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.intern_label("alpha"), a);
  EXPECT_EQ(reg.label(a), "alpha");
  EXPECT_EQ(reg.label(b), "beta");
  EXPECT_EQ(reg.label(0), "");
  EXPECT_EQ(reg.label(99), "");
}

TEST(Registry, EventsAreOffByDefaultAndToggle) {
  registry reg(2);
  EXPECT_FALSE(reg.events_enabled());
  EXPECT_FALSE(reg.of(0).events_on());
  reg.of(0).emit({1, 0, 0, 0, event_kind::steal});  // no ring yet: dropped
  EXPECT_TRUE(reg.collect_events().empty());

#ifndef HLS_TELEMETRY_NO_EVENTS
  reg.enable_events(16);
  EXPECT_TRUE(reg.events_enabled());
  EXPECT_TRUE(reg.of(1).events_on());
  reg.of(1).emit({5, 0, 0, 0, event_kind::steal});
  reg.of(0).emit({3, 2, 0, 0, event_kind::task_span});
  const auto evs = reg.collect_events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].ev.ts_ns, 3u);  // sorted by timestamp
  EXPECT_EQ(evs[0].worker, 0u);
  EXPECT_EQ(evs[1].worker, 1u);

  EXPECT_EQ(reg.drain_events().size(), 2u);
  EXPECT_TRUE(reg.collect_events().empty());
  reg.disable_events();
  EXPECT_FALSE(reg.events_enabled());
#endif
}

// --------------------------------------------------- chrome trace export

TEST(ChromeTrace, WriterEmitsValidJson) {
  std::ostringstream os;
  {
    chrome_trace_writer w(os);
    w.add_process_name(0, "procs \"quoted\"");
    w.add_thread_name(0, 3, "worker 3");
    w.add_complete(0, 3, "chunk", 1'234'567, 1'000, "\"lo\":0,\"hi\":8");
    w.add_instant(0, 3, "claim", 2'000'000);
    w.finish();
    EXPECT_EQ(w.events_written(), 4u);
  }
  const auto doc = json_lite::parse(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  const json_lite::value* evs = doc->get("traceEvents");
  ASSERT_NE(evs, nullptr);
  ASSERT_TRUE(evs->is_array());
  ASSERT_EQ(evs->as_array().size(), 4u);

  const json_lite::value& span = evs->as_array()[2];
  EXPECT_EQ(span.get("ph")->as_string(), "X");
  EXPECT_EQ(span.get("tid")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(span.get("ts")->as_number(), 1234.567);  // ns -> us
  EXPECT_DOUBLE_EQ(span.get("dur")->as_number(), 1.0);
  EXPECT_EQ(span.get("args")->get("hi")->as_number(), 8.0);

  const json_lite::value& inst = evs->as_array()[3];
  EXPECT_EQ(inst.get("ph")->as_string(), "i");
  EXPECT_EQ(inst.get("s")->as_string(), "t");
}

#ifndef HLS_TELEMETRY_NO_EVENTS
TEST(ChromeTrace, ExportsRegistryEventsAndLoopTrace) {
  registry reg(2);
  reg.enable_events(64);
  const int label = reg.intern_label("demo");
  reg.of(0).emit({10, 5, label, 100, event_kind::loop_span});
  reg.of(0).emit({11, 0, 3, 1, event_kind::claim_ok});
  reg.of(1).emit({12, 0, 2, 2, event_kind::claim_fail});
  reg.of(1).emit({13, 4, 0, 8, event_kind::chunk_span});

  trace::loop_trace lt(2);
  lt.record(0, 0, 4);
  lt.record(1, 4, 8);

  std::ostringstream os;
  write_chrome_trace(os, reg, &lt);
  const auto doc = json_lite::parse(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  const auto& evs = doc->get("traceEvents")->as_array();

  int spans = 0, claims = 0, loop_trace_spans = 0, named_loops = 0;
  for (const auto& e : evs) {
    const std::string& ph = e.get("ph")->as_string();
    const int pid = static_cast<int>(e.get("pid")->as_number());
    if (ph == "X" && pid == kWorkerPid) ++spans;
    if (ph == "X" && pid == kLoopTracePid) ++loop_trace_spans;
    if (ph == "i") ++claims;
    if (ph == "X" && e.get("name")->as_string() == "loop:demo") ++named_loops;
  }
  EXPECT_EQ(spans, 2);             // loop_span + chunk_span
  EXPECT_EQ(claims, 2);            // claim_ok + claim_fail instants
  EXPECT_EQ(loop_trace_spans, 2);  // the two recorded chunks
  EXPECT_EQ(named_loops, 1);       // interned label round-trips
  EXPECT_TRUE(reg.collect_events().empty());  // export drains
}
#endif

// ------------------------------------------------ report + table JSON

TEST(Report, JsonReportParsesAndCoversAllCounters) {
  registry reg(2);
  bump(reg.of(0).counters.tasks_run, 3);
  bump(reg.of(1).counters.steals, 2);

  std::ostringstream os;
  print_report(os, reg, report_format::json);

  // One JSON object per line; counters section has one row per counter.
  int counter_rows = 0;
  bool saw_lemma4 = false;
  std::istringstream lines(os.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto doc = json_lite::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    const std::string& section = doc->get("section")->as_string();
    if (section == "counters") {
      ++counter_rows;
      ASSERT_NE(doc->get("total"), nullptr);
      if (doc->get("counter")->as_string() == "tasks_run") {
        EXPECT_EQ(doc->get("total")->as_number(), 3.0);
        EXPECT_EQ(doc->get("w0")->as_number(), 3.0);
        EXPECT_EQ(doc->get("w1")->as_number(), 0.0);
      }
    } else if (section == "lemma4") {
      saw_lemma4 = true;
      EXPECT_EQ(doc->get("violations")->as_number(), 0.0);
    }
  }
  EXPECT_EQ(counter_rows, kNumCounters);
  EXPECT_TRUE(saw_lemma4);
}

TEST(Report, RunOptionsFromCli) {
  const char* argv[] = {"prog", "--telemetry", "--telemetry-format=json",
                        "--trace-out=/tmp/t.json", "--trace-ring=64"};
  const cli c(5, argv);
  const run_options o = run_options::from_cli(c);
  EXPECT_TRUE(o.report);
  EXPECT_EQ(o.format, report_format::json);
  EXPECT_EQ(o.trace_out, "/tmp/t.json");
  EXPECT_EQ(o.ring_capacity, 64u);
  EXPECT_TRUE(o.tracing());
  EXPECT_TRUE(o.any());

  const char* none[] = {"prog"};
  const run_options d = run_options::from_cli(cli(1, none));
  EXPECT_FALSE(d.any());
  EXPECT_EQ(d.ring_capacity, registry::kDefaultRingCapacity);
}

// --telemetry-format=json confirms the trace and metrics files on stdout,
// one JSON object per line, whatever bytes their paths hold: a tab in a
// path must come out escaped (json_lite rejects raw control characters).
// The paths name a missing directory, so nothing is written.
TEST(Report, JsonFinishLinesEscapeControlCharactersInPaths) {
  const std::string path = "/nonexistent dir\t\"x\"\\/out.json";
  registry reg(1);
  run_options opt;
  opt.format = report_format::json;
  opt.trace_out = path;
  opt.metrics_out = path;
  std::ostringstream os;
  {
    run_session session(reg, opt);
    EXPECT_FALSE(session.finish(os));
  }
  std::istringstream lines(os.str());
  std::string line;
  std::vector<std::string> sections;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto doc = json_lite::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    sections.push_back(doc->get("section")->as_string());
    EXPECT_EQ(doc->get("file")->as_string(), path);
    EXPECT_FALSE(doc->get("written")->as_bool());
  }
  EXPECT_EQ(sections, (std::vector<std::string>{"trace", "metrics"}));
}

TEST(TableJson, QuotesStringsAndPassesNumbersThrough) {
  table t({"name", "value", "note"});
  t.add_row({"a", "4.1", "plain"});
  t.add_row({"b", "-0.5e3", "has \"quotes\" and\nnewline"});
  t.add_row({"c", "not-a-number", "1.2.3"});

  std::ostringstream os;
  t.print_json(os, {{"section", "s"}});
  std::istringstream lines(os.str());
  std::string line;
  std::vector<json_lite::value> rows;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    auto doc = json_lite::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    rows.push_back(std::move(*doc));
  }
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].get("section")->as_string(), "s");
  EXPECT_TRUE(rows[0].get("value")->is_number());
  EXPECT_DOUBLE_EQ(rows[0].get("value")->as_number(), 4.1);
  EXPECT_DOUBLE_EQ(rows[1].get("value")->as_number(), -500.0);
  EXPECT_EQ(rows[1].get("note")->as_string(), "has \"quotes\" and\nnewline");
  EXPECT_TRUE(rows[2].get("value")->is_string());   // not a JSON number
  EXPECT_TRUE(rows[2].get("note")->is_string());    // "1.2.3" stays a string
}

}  // namespace
}  // namespace hls::telemetry
