// The master list of per-worker scheduler event counters.
//
// Every counter is declared exactly once, in the x-macros below; the plain
// snapshot struct (`counter_set`), the live relaxed-atomic mirror
// (`atomic_counter_set`), aggregation (`operator+=`), deltas
// (`operator-=`), and the report printer are all generated from the same
// list. Adding a counter here adds it everywhere — it cannot silently be
// dropped from snapshots or sums (the maintenance hazard the old
// hand-written worker_stats::operator+= had).
//
// Two combination kinds exist:
//   * SUM counters are monotonic event totals; aggregation adds them.
//   * MAX counters are watermarks; aggregation takes the maximum.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

// X(name, description)
#define HLS_TELEMETRY_SUM_COUNTERS(X)                                    \
  X(tasks_run, "tasks executed (own + stolen)")                          \
  X(steals, "successful steals")                                         \
  X(steal_probes, "victim probes (incl. failures)")                      \
  X(steal_latency_ns, "time from steal-round start to acquisition, ns")  \
  X(board_participations, "board visits that did work")                  \
  X(loop_entries, "arrivals at a posted loop record")                    \
  X(loops_posted, "parallel loops posted by this worker")                \
  X(chunks_run, "loop body chunks executed")                             \
  X(claims_ok, "successful hybrid partition claims")                     \
  X(claims_failed, "failed hybrid partition claims")                     \
  X(claim_sequences, "passes through the hybrid claim loop")             \
  X(idle_sleeps, "idle parks that actually blocked")                     \
  X(idle_sleep_ns, "time spent blocked in idle parks, ns")               \
  X(wakes_sent, "wakes delivered by notify_work")                       \
  X(wakes_spurious, "wakes that found no visible work")                  \
  X(range_steals, "successful range-slot steals (upper half of a "      \
                  "published span)")                                     \
  X(range_splits, "owner reservation refills on open range slots "      \
                  "(the lazy path's shared-word traffic)")               \
  X(spans_unsplit, "published spans that completed without a single "   \
                   "steal (the zero-overhead fast path)")                \
  X(cancelled_chunks, "chunks skipped by cancellation/deadline/drain")   \
  X(exceptions_caught, "exceptions captured at task/chunk boundaries")   \
  X(deadline_expirations, "loops stopped by an expired deadline")        \
  X(stalls_detected, "workers the watchdog classified as stalled "       \
                     "(healthy->stalled transitions)")                    \
  X(watchdog_wakes, "helper unparks issued by the watchdog on a "        \
                    "stalled-owner rescue")                               \
  X(earmarks_rescued, "earmarked partitions claimed by a rescue sweep "  \
                      "instead of their designated owner")                \
  X(steal_backoffs, "on-CPU backoff naps: work was visible but this "   \
                    "worker could get none (another owner's static "     \
                    "block, a drained queue, an unsplittable span)")      \
  X(idle_spin_ns, "time spent in on-CPU backoff naps (yield loops), ns") \
  X(degraded_workers, "workers lost to thread-spawn failure at runtime " \
                      "construction (team shrank)")                       \
  X(alloc_fallbacks, "spans run as serial chunks because every range "   \
                     "slot was open")                                     \
  X(handoffs_sent, "span-open wakes delivered (hinted wakes naming the " \
                   "span's owner)")                                       \
  X(handoffs_consumed, "range steals made on the first probe of a "     \
                       "hinted wake (the wake found its span)")

#define HLS_TELEMETRY_MAX_COUNTERS(X)                                    \
  X(max_claim_seq_len, "longest claim sequence: max consecutive failed " \
                       "claims + 1 (Lemma 4 bounds this by lg R + 1)")

#define HLS_TELEMETRY_ALL_COUNTERS(X) \
  HLS_TELEMETRY_SUM_COUNTERS(X)       \
  HLS_TELEMETRY_MAX_COUNTERS(X)

namespace hls::telemetry {

// Owner-thread-only counter update: with a single writer a plain
// load/store pair suffices — no RMW on the hot path.
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t by = 1) noexcept {
  c.store(c.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
}

// Owner-thread-only watermark raise.
inline void raise_max(std::atomic<std::uint64_t>& c, std::uint64_t v) noexcept {
  if (v > c.load(std::memory_order_relaxed)) {
    c.store(v, std::memory_order_relaxed);
  }
}

// Plain snapshot of one worker's counters (or an aggregate over workers).
struct counter_set {
#define HLS_X(name, desc) std::uint64_t name = 0;
  HLS_TELEMETRY_ALL_COUNTERS(HLS_X)
#undef HLS_X

  // Aggregation across workers: totals add, watermarks take the max.
  counter_set& operator+=(const counter_set& o) noexcept {
#define HLS_X(name, desc) name += o.name;
    HLS_TELEMETRY_SUM_COUNTERS(HLS_X)
#undef HLS_X
#define HLS_X(name, desc) name = std::max(name, o.name);
    HLS_TELEMETRY_MAX_COUNTERS(HLS_X)
#undef HLS_X
    return *this;
  }

  // Interval delta (after -= before). Watermarks are not differentiable:
  // the delta keeps the `after` watermark, an upper bound for the interval.
  counter_set& operator-=(const counter_set& o) noexcept {
#define HLS_X(name, desc) name -= o.name;
    HLS_TELEMETRY_SUM_COUNTERS(HLS_X)
#undef HLS_X
    return *this;
  }

  friend counter_set operator+(counter_set a, const counter_set& b) noexcept {
    a += b;
    return a;
  }
  friend counter_set operator-(counter_set a, const counter_set& b) noexcept {
    a -= b;
    return a;
  }
};

// Live counters: relaxed atomics written only by the owning worker, so
// updates are plain load/store pairs (no RMW on the hot path). Snapshots
// read from any thread may lag but each field is monotonic (SUM) or
// non-decreasing (MAX), so repeated snapshots are consistent.
struct atomic_counter_set {
#define HLS_X(name, desc) std::atomic<std::uint64_t> name{0};
  HLS_TELEMETRY_ALL_COUNTERS(HLS_X)
#undef HLS_X

  counter_set snapshot() const noexcept {
    counter_set s;
#define HLS_X(name, desc) s.name = name.load(std::memory_order_relaxed);
    HLS_TELEMETRY_ALL_COUNTERS(HLS_X)
#undef HLS_X
    return s;
  }
};

// Visits (name, description, value) for every counter in declaration
// order; the report printer and tests iterate the list through this.
template <typename Fn>
void for_each_counter(const counter_set& s, Fn&& fn) {
#define HLS_X(name, desc) fn(#name, desc, s.name);
  HLS_TELEMETRY_ALL_COUNTERS(HLS_X)
#undef HLS_X
}

inline constexpr int kNumCounters = 0
#define HLS_X(name, desc) +1
    HLS_TELEMETRY_ALL_COUNTERS(HLS_X)
#undef HLS_X
    ;

}  // namespace hls::telemetry
