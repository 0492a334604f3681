// Per-loop-site invocation profiles.
//
// The ROADMAP's self-tuning item needs a per-loop-site history of what the
// scheduler actually did — which policy ran, with which R/grain/P, how the
// wall time broke down into phases, and which counters the loop moved —
// recorded per *invocation*, so the next invocation of the same loop can
// be scheduled from the previous one's observations (the STS pattern:
// sub-task timing records from step k drive step k+1's schedule).
//
// Structure:
//
//   loop_site          a call-site identity (file:line plus an optional
//                      name), usually captured with HLS_LOOP_SITE(...)
//   invocation_record  one completed parallel_for: policy, R, grain, P,
//                      wall time, phase breakdown, imbalance, and the
//                      loop-scoped counter delta (counter_set diffing)
//   loop_profiler      a registry keyed by (site key, pow2 bucket of N)
//                      holding a bounded ring of records per key
//
// Cost model: recording is once per parallel_for (never per chunk), so the
// profiler takes a plain mutex and copies a counter_set — microseconds per
// loop, zero when off. "Off" is one relaxed pointer load in parallel_for
// (registry::profiler() == nullptr), keeping the hot path RMW-free and the
// BM_SpanOverhead numbers intact.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sched/policy.h"
#include "telemetry/counters.h"
#include "telemetry/histogram.h"
#include "telemetry/registry.h"
#include "util/thread_safety.h"

namespace hls::telemetry {

// A loop call site. The common way to make one is the HLS_LOOP_SITE macro
// below (static storage, so the pointer is stable and cheap to pass);
// hand-built instances work too as long as they outlive the profiler use.
struct loop_site {
  const char* file = nullptr;
  int line = 0;
  const char* name = nullptr;  // optional human label

  // "file:line" (basename only) with "#name" appended when named.
  std::string key() const;
};

// Captures the current source location as a loop_site with static storage.
// Usage:  opt.site = HLS_LOOP_SITE("relax-step");
#define HLS_LOOP_SITE(site_name)                                            \
  ([]() -> const ::hls::telemetry::loop_site* {                             \
    static constexpr ::hls::telemetry::loop_site hls_site_{__FILE__,        \
                                                           __LINE__,        \
                                                           site_name};      \
    return &hls_site_;                                                      \
  }())

// Why an invocation ran serially instead of on the scheduler it asked
// for: foreign_thread is a caller bug (or an accepted embedding cost).
enum class degrade_reason : std::uint8_t {
  none = 0,            // ran on the requested policy
  foreign_thread = 1,  // caller not bound to the runtime (run_serial_foreign)
};

const char* degrade_reason_name(degrade_reason r) noexcept;

// One completed parallel_for invocation.
struct invocation_record {
  std::uint64_t seq = 0;       // global invocation number (profiler-wide)
  std::uint64_t start_ns = 0;  // loop entry, registry-epoch-relative

  // What was asked for / what ran.
  policy pol = policy::serial;
  std::uint32_t partitions = 0;  // effective R (0 for non-hybrid policies)
  std::int64_t grain = 0;        // effective grain
  std::uint32_t workers = 0;     // P
  std::int64_t iterations = 0;   // N
  std::uint8_t status = 0;       // loop_status numeric value
  std::int64_t skipped = 0;
  // Why (and whether) the loop degraded to serial execution; see
  // degrade_reason. Degraded invocations used to vanish from every
  // profile.
  degrade_reason degrade = degrade_reason::none;

  // Wall-time phase breakdown on the posting thread, nanoseconds:
  //   setup_ns  loop entry -> record constructed / span published
  //   work_ns   the poster's own participation (claim + execute phase)
  //   drain_ns  waiting for the last chunk to retire (steal-phase tail)
  std::uint64_t wall_ns = 0;
  std::uint64_t setup_ns = 0;
  std::uint64_t work_ns = 0;
  std::uint64_t drain_ns = 0;

  // Loop-scoped counter delta: registry totals at retire minus totals at
  // entry (counter_set diffing). Claim/steal timing lives here
  // (claims_ok/claims_failed, steals, steal_latency_ns, ...). Note: deltas
  // attribute everything the runtime did during the invocation window, so
  // concurrently running loops' work lands in whichever window is open.
  counter_set delta;

  // Per-worker busy imbalance over the window, measured in chunks
  // executed: max / mean (1.0 = perfectly balanced; 0 when no chunks ran).
  double imbalance = 0.0;
  std::uint64_t busy_max_chunks = 0;
  std::uint64_t busy_min_chunks = 0;
};

// Bounded, keyed store of invocation records.
class loop_profiler {
 public:
  struct options {
    // Records retained per (site, N-bucket) key; older invocations are
    // evicted FIFO (their counts survive in the site aggregate).
    std::size_t ring_capacity = 32;
  };

  // The profile key: site identity string plus the pow2 bucket of N, so
  // one call site running two very different sizes keeps two histories.
  using key = std::pair<std::string, int>;

  static int n_bucket_of(std::int64_t n) noexcept {
    return pow2_histogram::bucket_of(n < 0 ? 0 : static_cast<std::uint64_t>(n));
  }

  loop_profiler();  // default options
  explicit loop_profiler(options opt);

  loop_profiler(const loop_profiler&) = delete;
  loop_profiler& operator=(const loop_profiler&) = delete;

  // Commits one invocation under (site_key, N-bucket). Assigns rec.seq.
  // Thread-safe; called once per parallel_for.
  void record(const std::string& site_key, int n_bucket,
              invocation_record rec);

  // Everything retained for one key, oldest first.
  struct site_snapshot {
    std::string site;
    int n_bucket = 0;
    std::uint64_t invocations = 0;  // ever recorded (>= records.size())
    std::uint64_t total_wall_ns = 0;
    std::vector<invocation_record> records;  // retained ring, oldest first
  };

  std::vector<site_snapshot> snapshot() const;

  // Sum of every recorded invocation's counter delta, including evicted
  // ones. registry::totals() minus this is the unattributed residual
  // (runtime activity outside any profiled loop), which the exporters
  // write as their closing record so per-site deltas + residual always
  // sum to the global end-of-run snapshot.
  counter_set recorded_total() const;

  std::uint64_t invocations() const;
  std::size_t ring_capacity() const noexcept { return opt_.ring_capacity; }

 private:
  struct site_state {
    std::uint64_t invocations = 0;
    std::uint64_t total_wall_ns = 0;
    std::vector<invocation_record> ring;  // ring.size() <= ring_capacity
    std::size_t next = 0;                 // ring insertion cursor
  };

  const options opt_;
  mutable annotated_mutex mu_;
  std::map<key, site_state> sites_ HLS_GUARDED_BY(mu_);
  counter_set recorded_total_ HLS_GUARDED_BY(mu_);
  std::uint64_t seq_ HLS_GUARDED_BY(mu_) = 0;
};

// Entry/exit capture for one parallel_for when profiling is on. Inactive
// (every method a no-op) when the profiler pointer is null, so the
// parallel_for fast path pays one branch. The probe snapshots per-worker
// counters at construction and diffs them at commit; phase marks split the
// poster's wall time into setup / work / drain.
class invocation_probe {
 public:
  invocation_probe(registry& reg, loop_profiler* prof);

  bool active() const noexcept { return prof_ != nullptr; }

  // Phase marks, in order. Unmarked phases report 0.
  void setup_done() noexcept;
  void work_done() noexcept;

  // Assembles the record and commits it. `site` may be null; the key then
  // falls back to the policy name.
  void commit(const loop_site* site, policy pol,
              std::uint32_t partitions, std::int64_t grain,
              std::int64_t iterations, std::uint8_t status,
              std::int64_t skipped, degrade_reason degrade);

 private:
  registry& reg_;
  loop_profiler* prof_;
  std::uint64_t t_entry_ = 0;
  std::uint64_t t_setup_ = 0;
  std::uint64_t t_work_ = 0;
  std::vector<counter_set> before_;  // per worker
};

}  // namespace hls::telemetry
