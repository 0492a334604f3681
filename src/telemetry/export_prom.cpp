#include "telemetry/export_prom.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>

#include "util/table.h"

namespace hls::telemetry {
namespace {

// Prometheus label-value escaping: backslash, double quote, newline.
std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void prom_summary(std::ostream& os, const char* name, const char* help,
                  const histogram_snapshot& h) {
  os << "# HELP " << name << " " << help << "\n";
  os << "# TYPE " << name << " summary\n";
  os << name << "{quantile=\"0.5\"} " << fmt_double(histogram_percentile(h, 0.50))
     << "\n";
  os << name << "{quantile=\"0.95\"} "
     << fmt_double(histogram_percentile(h, 0.95)) << "\n";
  os << name << "{quantile=\"0.99\"} "
     << fmt_double(histogram_percentile(h, 0.99)) << "\n";
  os << name << "_sum " << h.sum << "\n";
  os << name << "_count " << h.count << "\n";
}

void json_counters(std::ostream& os, const counter_set& c) {
  os << "{";
  bool first = true;
  for_each_counter(c, [&](const char* name, const char*, std::uint64_t v) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << v;
  });
  os << "}";
}

void json_hist(std::ostream& os, const histogram_snapshot& h) {
  os << "{\"count\":" << h.count << ",\"sum\":" << h.sum << ",\"max\":" << h.max
     << ",\"p50\":" << fmt_double(histogram_percentile(h, 0.50))
     << ",\"p95\":" << fmt_double(histogram_percentile(h, 0.95))
     << ",\"p99\":" << fmt_double(histogram_percentile(h, 0.99)) << "}";
}

}  // namespace

void write_prometheus(std::ostream& os, const registry& reg,
                      const sampler* smp, const loop_profiler* prof) {
  const counter_set totals = reg.totals();
  for_each_counter(totals,
                   [&](const char* name, const char* help, std::uint64_t v) {
                     os << "# HELP hls_" << name << "_total " << help << "\n";
                     os << "# TYPE hls_" << name << "_total counter\n";
                     os << "hls_" << name << "_total " << v << "\n";
                   });

  os << "# HELP hls_workers worker count of the exporting runtime\n";
  os << "# TYPE hls_workers gauge\n";
  os << "hls_workers " << reg.num_workers() << "\n";

  os << "# HELP hls_lemma4_violations claim sequences exceeding lg R + 1\n";
  os << "# TYPE hls_lemma4_violations counter\n";
  os << "hls_lemma4_violations " << reg.lemma4_violations() << "\n";

  prom_summary(os, "hls_claim_seq_len",
               "hybrid claim sequence length (consecutive fails + 1)",
               reg.claim_seq_histogram());
  prom_summary(os, "hls_steal_probes_per_round", "victim probes per steal round",
               reg.steal_probe_histogram());
  prom_summary(os, "hls_chunk_duration_ns", "loop chunk body duration, ns",
               reg.chunk_ns_histogram());
  prom_summary(os, "hls_wake_to_first_chunk_ns",
               "notified unpark to first chunk start, ns",
               reg.wake_to_chunk_histogram());

  if (smp != nullptr) {
    os << "# HELP hls_metrics_samples_total samples taken by the sampler\n";
    os << "# TYPE hls_metrics_samples_total counter\n";
    os << "hls_metrics_samples_total " << smp->taken() << "\n";
  }

  if (prof != nullptr) {
    os << "# HELP hls_loop_site_invocations_total parallel_for invocations "
          "per (site, pow2 N bucket)\n";
    os << "# TYPE hls_loop_site_invocations_total counter\n";
    os << "# HELP hls_loop_site_wall_ns_total summed invocation wall time "
          "per (site, pow2 N bucket)\n";
    os << "# TYPE hls_loop_site_wall_ns_total counter\n";
    for (const auto& s : prof->snapshot()) {
      const std::string labels = "{site=\"" + prom_escape(s.site) +
                                 "\",n_bucket=\"" +
                                 std::to_string(s.n_bucket) + "\"}";
      os << "hls_loop_site_invocations_total" << labels << " "
         << s.invocations << "\n";
      os << "hls_loop_site_wall_ns_total" << labels << " " << s.total_wall_ns
         << "\n";
    }
  }
}

void write_samples_jsonl(std::ostream& os, const sampler& smp) {
  for (const metrics_sample& s : smp.snapshot()) {
    os << "{\"kind\":\"sample\",\"ts_ns\":" << s.ts_ns << ",\"counters\":";
    json_counters(os, s.totals);
    os << ",\"claim_seq\":";
    json_hist(os, s.claim_seq);
    os << ",\"steal_probe\":";
    json_hist(os, s.steal_probe);
    os << ",\"chunk_ns\":";
    json_hist(os, s.chunk_ns);
    os << ",\"wake_to_chunk_ns\":";
    json_hist(os, s.wake_to_chunk_ns);
    os << ",\"lemma4_violations\":" << s.lemma4_violations << "}\n";
  }
}

void write_profiles_jsonl(std::ostream& os, const registry& reg,
                          const loop_profiler& prof) {
  const auto sites = prof.snapshot();
  for (const auto& s : sites) {
    for (const invocation_record& r : s.records) {
      os << "{\"kind\":\"invocation\",\"site\":";
      json_string(os, s.site);
      os << ",\"n_bucket\":" << s.n_bucket << ",\"seq\":" << r.seq
         << ",\"start_ns\":" << r.start_ns << ",\"policy\":\""
         << policy_name(r.pol) << "\",\"partitions\":" << r.partitions
         << ",\"grain\":" << r.grain << ",\"workers\":" << r.workers
         << ",\"iterations\":" << r.iterations
         << ",\"status\":" << static_cast<int>(r.status)
         << ",\"skipped\":" << r.skipped << ",\"degrade\":\""
         << degrade_reason_name(r.degrade) << "\""
         << ",\"wall_ns\":" << r.wall_ns << ",\"setup_ns\":" << r.setup_ns
         << ",\"work_ns\":" << r.work_ns << ",\"drain_ns\":" << r.drain_ns
         << ",\"imbalance\":" << fmt_double(r.imbalance)
         << ",\"busy_max_chunks\":" << r.busy_max_chunks
         << ",\"busy_min_chunks\":" << r.busy_min_chunks << ",\"delta\":";
      json_counters(os, r.delta);
      os << "}\n";
    }
  }
  for (const auto& s : sites) {
    os << "{\"kind\":\"site\",\"site\":";
    json_string(os, s.site);
    os << ",\"n_bucket\":" << s.n_bucket
       << ",\"invocations\":" << s.invocations
       << ",\"total_wall_ns\":" << s.total_wall_ns
       << ",\"retained\":" << s.records.size() << "}\n";
  }
  // The accounting close: totals = recorded + residual, by construction.
  const counter_set totals = reg.totals();
  const counter_set recorded = prof.recorded_total();
  os << "{\"kind\":\"residual\",\"totals\":";
  json_counters(os, totals);
  os << ",\"recorded\":";
  json_counters(os, recorded);
  os << ",\"residual\":";
  json_counters(os, totals - recorded);
  os << "}\n";
}

bool write_metrics_files(const std::string& path, const registry& reg,
                         const sampler* smp, const loop_profiler* prof) {
  std::ofstream jf(path);
  if (!jf) return false;
  std::ofstream pf(path + ".prom");
  if (!pf) return false;
  if (smp != nullptr) write_samples_jsonl(jf, *smp);
  if (prof != nullptr) write_profiles_jsonl(jf, reg, *prof);
  write_prometheus(pf, reg, smp, prof);
  return static_cast<bool>(jf) && static_cast<bool>(pf);
}

}  // namespace hls::telemetry
