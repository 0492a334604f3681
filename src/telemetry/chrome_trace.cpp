#include "telemetry/chrome_trace.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <string>

#include "telemetry/registry.h"
#include "trace/loop_trace.h"
#include "util/table.h"

namespace hls::telemetry {

namespace {

// ts/dur in the trace format are microseconds; print ns with fixed
// sub-microsecond decimals (locale-independent).
std::string us(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

std::string i64(std::int64_t v) { return std::to_string(v); }

}  // namespace

chrome_trace_writer::chrome_trace_writer(std::ostream& os) : os_(os) {
  os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
}

chrome_trace_writer::~chrome_trace_writer() {
  if (open_) finish();
}

void chrome_trace_writer::finish() {
  if (!open_) return;
  os_ << "\n]}\n";
  os_.flush();
  open_ = false;
}

void chrome_trace_writer::prefix(char phase, int pid, int tid,
                                 const std::string& name,
                                 std::uint64_t ts_ns) {
  os_ << (count_ == 0 ? "\n" : ",\n");
  ++count_;
  os_ << "{\"ph\":\"" << phase << "\",\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"name\":";
  json_string(os_, name);
  os_ << ",\"ts\":" << us(ts_ns);
}

void chrome_trace_writer::suffix(const std::string& args_json) {
  if (!args_json.empty()) os_ << ",\"args\":{" << args_json << "}";
  os_ << "}";
}

void chrome_trace_writer::add_thread_name(int pid, int tid,
                                          const std::string& name) {
  os_ << (count_ == 0 ? "\n" : ",\n");
  ++count_;
  os_ << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"name\":\"thread_name\",\"args\":{\"name\":";
  json_string(os_, name);
  os_ << "}}";
}

void chrome_trace_writer::add_process_name(int pid, const std::string& name) {
  os_ << (count_ == 0 ? "\n" : ",\n");
  ++count_;
  os_ << "{\"ph\":\"M\",\"pid\":" << pid
      << ",\"name\":\"process_name\",\"args\":{\"name\":";
  json_string(os_, name);
  os_ << "}}";
}

void chrome_trace_writer::add_complete(int pid, int tid,
                                       const std::string& name,
                                       std::uint64_t ts_ns,
                                       std::uint64_t dur_ns,
                                       const std::string& args_json) {
  prefix('X', pid, tid, name, ts_ns);
  os_ << ",\"dur\":" << us(dur_ns);
  suffix(args_json);
}

void chrome_trace_writer::add_instant(int pid, int tid,
                                      const std::string& name,
                                      std::uint64_t ts_ns,
                                      const std::string& args_json) {
  prefix('i', pid, tid, name, ts_ns);
  os_ << ",\"s\":\"t\"";
  suffix(args_json);
}

std::vector<wake_span> stitch_wake_spans(
    const std::vector<worker_event>& evs) {
  std::vector<wake_span> out;
  // Pending wake timestamp per worker; 0 = disarmed (the registry epoch
  // itself is never a wake time: events start strictly after it).
  std::map<std::uint32_t, std::uint64_t> armed;
  for (const worker_event& we : evs) {
    const event& e = we.ev;
    if (e.kind == event_kind::idle_span) {
      // A notified unpark arms; a timeout/stop unpark disarms (same
      // semantics as worker_state::mark_woken / clear_pending_wake).
      armed[we.worker] = e.a == 1 ? e.ts_ns + e.dur_ns : 0;
    } else if (e.kind == event_kind::chunk_span) {
      std::uint64_t& at = armed[we.worker];
      if (at != 0 && e.ts_ns >= at) {
        out.push_back({we.worker, at, e.ts_ns});
        at = 0;
      }
    }
  }
  return out;
}

std::size_t write_worker_events(chrome_trace_writer& w, registry& reg) {
  w.add_process_name(kWorkerPid, "hls workers");
  for (std::uint32_t i = 0; i < reg.num_workers(); ++i) {
    w.add_thread_name(kWorkerPid, static_cast<int>(i),
                      "worker " + std::to_string(i));
  }
  // The registry's service lane (the health watchdog) renders just past
  // the worker tids.
  w.add_thread_name(kWorkerPid, static_cast<int>(reg.num_workers()),
                    "watchdog");

  const std::vector<worker_event> evs = reg.drain_events();
  for (const worker_event& we : evs) {
    const int tid = static_cast<int>(we.worker);
    const event& e = we.ev;
    switch (e.kind) {
      case event_kind::task_span:
        w.add_complete(kWorkerPid, tid, "task", e.ts_ns, e.dur_ns);
        break;
      case event_kind::chunk_span:
        w.add_complete(kWorkerPid, tid, "chunk", e.ts_ns, e.dur_ns,
                       "\"lo\":" + i64(e.a) + ",\"hi\":" + i64(e.b));
        break;
      case event_kind::partition_span:
        w.add_complete(kWorkerPid, tid, "partition " + i64(e.a), e.ts_ns,
                       e.dur_ns, "\"r\":" + i64(e.a));
        break;
      case event_kind::loop_span: {
        std::string name = reg.label(static_cast<int>(e.a));
        if (name.empty()) name = "loop";
        w.add_complete(kWorkerPid, tid, "loop:" + name, e.ts_ns, e.dur_ns,
                       "\"iterations\":" + i64(e.b));
        break;
      }
      case event_kind::idle_span:
        w.add_complete(kWorkerPid, tid, "idle", e.ts_ns, e.dur_ns,
                       e.a == 1 ? "\"wake\":\"notified\""
                                : "\"wake\":\"timeout\"");
        break;
      case event_kind::claim_ok:
        w.add_instant(kWorkerPid, tid, "claim", e.ts_ns,
                      "\"r\":" + i64(e.a) + ",\"index\":" + i64(e.b) +
                          ",\"ok\":true");
        break;
      case event_kind::claim_fail:
        w.add_instant(kWorkerPid, tid, "claim-fail", e.ts_ns,
                      "\"r\":" + i64(e.a) + ",\"index\":" + i64(e.b) +
                          ",\"ok\":false");
        break;
      case event_kind::steal:
        w.add_instant(kWorkerPid, tid, "steal", e.ts_ns,
                      "\"victim\":" + i64(e.a) + ",\"probes\":" + i64(e.b));
        break;
      case event_kind::range_steal:
        w.add_instant(kWorkerPid, tid, "range-steal", e.ts_ns,
                      "\"victim\":" + i64(e.a) + ",\"iters\":" + i64(e.b));
        break;
      case event_kind::handoff:
        w.add_instant(kWorkerPid, tid, "handoff", e.ts_ns,
                      "\"owner\":" + i64(e.a) + ",\"iters\":" + i64(e.b));
        break;
      case event_kind::stall_span:
        // Emitted on the watchdog lane: an instant mark at detection,
        // then a complete span once the worker's heartbeat resumes.
        if (e.dur_ns == 0) {
          w.add_instant(kWorkerPid, tid, "stall-detected", e.ts_ns,
                        "\"worker\":" + i64(e.a));
        } else {
          w.add_complete(kWorkerPid, tid, "stall w" + i64(e.a), e.ts_ns,
                         e.dur_ns, "\"worker\":" + i64(e.a));
        }
        break;
    }
  }
  // Derived spans: notified unpark -> first chunk begin, per worker. They
  // overlay the gap between the idle span and the chunk span so the wake
  // latency the push-based work-sharing work targets is visible directly.
  std::size_t derived = 0;
  for (const wake_span& s : stitch_wake_spans(evs)) {
    w.add_complete(kWorkerPid, static_cast<int>(s.worker),
                   "wake_to_first_chunk", s.wake_ns, s.latency_ns(),
                   "\"latency_ns\":" +
                       i64(static_cast<std::int64_t>(s.latency_ns())));
    ++derived;
  }
  return evs.size() + derived;
}

std::size_t append_loop_trace(chrome_trace_writer& w,
                              const trace::loop_trace& lt,
                              const std::string& track_name) {
  w.add_process_name(kLoopTracePid, track_name + " (ts = execution seq)");
  for (std::uint32_t i = 0; i < lt.num_workers(); ++i) {
    w.add_thread_name(kLoopTracePid, static_cast<int>(i),
                      "worker " + std::to_string(i));
  }
  // Foreign-thread chunks (loop_trace::kForeignLane) render on their own
  // named track just past the worker tids; the sentinel itself would be
  // an absurd tid and must not alias worker 0.
  const int foreign_tid = static_cast<int>(lt.num_workers());
  if (!lt.foreign_chunks().empty()) {
    w.add_thread_name(kLoopTracePid, foreign_tid, "foreign");
  }
  std::size_t n = 0;
  // One span per recorded chunk, laid out on the global execution
  // sequence axis (1 "us" per chunk) so claim order reads left to right.
  for (const trace::chunk_rec& c : lt.sorted_by_seq()) {
    // Appended: "[" + std::to_string(...) trips GCC 12's false
    // -Werror=restrict in Release builds.
    std::string name = "[";
    name.append(std::to_string(c.begin)).append(",");
    name.append(std::to_string(c.end)).append(")");
    std::string args = "\"lo\":";
    args.append(i64(c.begin)).append(",\"hi\":").append(i64(c.end));
    args.append(",\"seq\":").append(i64(static_cast<std::int64_t>(c.seq)));
    w.add_complete(kLoopTracePid,
                   c.worker == trace::loop_trace::kForeignLane
                       ? foreign_tid
                       : static_cast<int>(c.worker),
                   name, c.seq * 1000, 1000, args);
    ++n;
  }
  return n;
}

void write_chrome_trace(std::ostream& os, registry& reg,
                        const trace::loop_trace* lt) {
  chrome_trace_writer w(os);
  write_worker_events(w, reg);
  if (lt != nullptr) append_loop_trace(w, *lt);
  w.finish();
}

bool write_chrome_trace_file(const std::string& path, registry& reg,
                             const trace::loop_trace* lt) {
  std::ofstream f(path);
  if (!f) return false;
  write_chrome_trace(f, reg, lt);
  return f.good();
}

}  // namespace hls::telemetry
