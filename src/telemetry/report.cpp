#include "telemetry/report.h"

#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/chrome_trace.h"
#include "telemetry/export_prom.h"
#include "util/cli.h"
#include "util/table.h"

namespace hls::telemetry {

namespace {

void emit(std::ostream& os, const table& t, report_format fmt,
          const char* section) {
  switch (fmt) {
    case report_format::pretty:
      os << "\n==== telemetry: " << section << " ====\n";
      t.print(os);
      break;
    case report_format::csv:
      os << "\n# telemetry: " << section << "\n";
      t.print_csv(os);
      break;
    case report_format::json:
      t.print_json(os, {{"section", section}});
      break;
  }
}

std::string u64s(std::uint64_t v) { return std::to_string(v); }

void hist_row(table& t, const char* name, const histogram_snapshot& h) {
  const double mean =
      h.count == 0 ? 0.0
                   : static_cast<double>(h.sum) / static_cast<double>(h.count);
  // histogram_percentile interpolates inside the pow2 bucket — the same
  // numbers the Prometheus/JSONL exporters quote.
  t.add_row({name, u64s(h.count), table::fmt(mean, 1),
             table::fmt(histogram_percentile(h, 0.50), 1),
             table::fmt(histogram_percentile(h, 0.95), 1),
             table::fmt(histogram_percentile(h, 0.99), 1),
             u64s(h.max)});
}

}  // namespace

void print_counters(std::ostream& os, const registry& reg,
                    report_format fmt) {
  std::vector<std::string> header{"counter", "total"};
  for (std::uint32_t w = 0; w < reg.num_workers(); ++w) {
    // Appended: "w" + std::to_string(w) trips GCC 12's false
    // -Werror=restrict in Release builds.
    header.emplace_back("w");
    header.back() += std::to_string(w);
  }
  // The registry's service lane (watchdog counters: stalls_detected,
  // watchdog_wakes) gets its own column so those bumps are attributable
  // and the total column still equals registry::totals().
  header.push_back("svc");
  table t(std::move(header));

  std::vector<counter_set> per_worker;
  per_worker.reserve(reg.num_workers() + 1);
  for (std::uint32_t w = 0; w < reg.num_workers(); ++w) {
    per_worker.push_back(reg.of_worker(w));
  }
  per_worker.push_back(reg.service().counters.snapshot());
  counter_set total;
  for (const counter_set& s : per_worker) total += s;

  // One row per counter, columns total + per worker; rows come from the
  // x-macro list, so a counter added there shows up here automatically.
  std::size_t idx = 0;
  std::vector<std::vector<std::string>> rows;
  for_each_counter(total, [&](const char* name, const char*,
                              std::uint64_t v) {
    std::vector<std::string> row{name, u64s(v)};
    rows.push_back(std::move(row));
    ++idx;
  });
  for (const counter_set& s : per_worker) {
    std::size_t r = 0;
    for_each_counter(s, [&](const char*, const char*, std::uint64_t v) {
      rows[r].push_back(u64s(v));
      ++r;
    });
  }
  for (auto& row : rows) t.add_row(std::move(row));
  emit(os, t, fmt, "counters");
}

void print_histograms(std::ostream& os, const registry& reg,
                      report_format fmt) {
  table t({"histogram", "count", "mean", "p50", "p95", "p99", "max"});
  hist_row(t, "claim_seq_len", reg.claim_seq_histogram());
  hist_row(t, "steal_probes_per_round", reg.steal_probe_histogram());
  hist_row(t, "chunk_ns", reg.chunk_ns_histogram());
  hist_row(t, "wake_to_first_chunk_ns", reg.wake_to_chunk_histogram());
  emit(os, t, fmt, "histograms");
}

void print_report(std::ostream& os, const registry& reg, report_format fmt) {
  print_counters(os, reg, fmt);
  print_histograms(os, reg, fmt);
  const counter_set total = reg.totals();
  const std::uint64_t viol = reg.lemma4_violations();
  switch (fmt) {
    case report_format::pretty:
      os << "lemma4: max claim sequence " << total.max_claim_seq_len
         << ", violations " << viol << (viol == 0 ? " (bound holds)" : "")
         << "\n";
      break;
    case report_format::csv:
      os << "# lemma4,max_claim_seq_len=" << total.max_claim_seq_len
         << ",violations=" << viol << "\n";
      break;
    case report_format::json:
      os << "{\"section\":\"lemma4\",\"max_claim_seq_len\":"
         << total.max_claim_seq_len << ",\"violations\":" << viol << "}\n";
      break;
  }
}

run_options run_options::from_cli(const cli& c) {
  run_options o;
  o.report = c.get_bool("telemetry", false);
  const std::string f = c.get("telemetry-format", "pretty");
  if (f == "csv") {
    o.format = report_format::csv;
  } else if (f == "json") {
    o.format = report_format::json;
  }
  o.trace_out = c.get("trace-out", "");
  const std::int64_t ring = c.get_int("trace-ring", 0);
  if (ring > 0) o.ring_capacity = static_cast<std::size_t>(ring);
  // HLS_METRICS is the flagless fallback so wrappers (CI smoke, profiling
  // a bench that owns its own argv) can turn metrics on from outside.
  const char* env = std::getenv("HLS_METRICS");
  o.metrics_out = c.get("metrics-out", env != nullptr ? env : "");
  o.metrics_hz = c.get_double("metrics-hz", 10.0);
  const std::int64_t pring = c.get_int("profile-ring", 0);
  if (pring > 0) o.profile_ring = static_cast<std::size_t>(pring);
  return o;
}

void apply(registry& reg, const run_options& opt) {
  if (opt.tracing()) reg.enable_events(opt.ring_capacity);
}

bool finish(std::ostream& os, registry& reg, const run_options& opt,
            const trace::loop_trace* lt) {
  if (opt.report) print_report(os, reg, opt.format);
  if (!opt.tracing()) return true;
  const bool ok = write_chrome_trace_file(opt.trace_out, reg, lt);
  if (opt.format == report_format::json) {
    // Keep stdout one-JSON-object-per-line even for the confirmation.
    os << "{\"section\":\"trace\",\"file\":";
    json_string(os, opt.trace_out);
    os << ",\"written\":" << (ok ? "true" : "false") << "}\n";
  } else if (ok) {
    os << "telemetry: Chrome trace written to " << opt.trace_out
       << " (open in Perfetto or chrome://tracing)\n";
  } else {
    os << "telemetry: cannot write trace file " << opt.trace_out << "\n";
  }
  return ok;
}

// --------------------------------------------------------- run_session

run_session::run_session(registry& reg, run_options opt)
    : reg_(reg), opt_(std::move(opt)) {
  apply(reg_, opt_);
  if (!opt_.metrics()) return;
  profiler_ = std::make_unique<loop_profiler>(
      loop_profiler::options{opt_.profile_ring});
  reg_.set_profiler(profiler_.get());
  sampler_ = std::make_unique<sampler>(
      reg_, sampler::options{opt_.metrics_hz, /*ring_capacity=*/4096});
  sampler_->start();
}

run_session::~run_session() { teardown(); }

void run_session::teardown() {
  // Uninstall before the profiler dies; no loop may still be running by
  // the time a driver destroys its session (the runtime outlives it, so
  // this is the driver's sequencing to keep, same as for trace buffers).
  if (profiler_ != nullptr) reg_.set_profiler(nullptr);
  if (sampler_ != nullptr) sampler_->stop();
}

bool run_session::finish(std::ostream& os, const trace::loop_trace* lt) {
  if (finished_) return true;
  finished_ = true;
  teardown();
  bool ok = telemetry::finish(os, reg_, opt_, lt);
  if (!opt_.metrics()) return ok;
  const bool mok = write_metrics_files(opt_.metrics_out, reg_,
                                       sampler_.get(), profiler_.get());
  if (opt_.format == report_format::json) {
    os << "{\"section\":\"metrics\",\"file\":";
    json_string(os, opt_.metrics_out);
    os << ",\"samples\":" << (sampler_ != nullptr ? sampler_->taken() : 0)
       << ",\"loop_invocations\":"
       << (profiler_ != nullptr ? profiler_->invocations() : 0)
       << ",\"written\":" << (mok ? "true" : "false") << "}\n";
  } else if (mok) {
    os << "telemetry: metrics written to " << opt_.metrics_out
       << " (JSONL) and " << opt_.metrics_out << ".prom (Prometheus)\n";
  } else {
    os << "telemetry: cannot write metrics file " << opt_.metrics_out << "\n";
  }
  return ok && mok;
}

}  // namespace hls::telemetry
