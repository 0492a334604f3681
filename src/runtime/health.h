// The runtime health watchdog: heartbeat-based stall detection and rescue
// escalation.
//
// Every worker bumps a cacheline-padded heartbeat word at chunk and park
// boundaries (worker::beat). The watchdog — a low-rate service thread
// owned by the runtime — samples those words every progress_budget / 2
// and classifies each worker:
//
//   healthy  heartbeat moved since the last scan, or the worker is
//            blocked in a park (parked workers hold no work and wake on
//            demand — silence while parked is idleness, not a stall), or
//            it is busy: its thread's CPU clock advanced by more than a
//            tenth of its silence so far, which at the first silent scan
//            is the scan interval (a long chunk body beats only at its
//            boundaries, so it is silent but on-CPU)
//   slow     silent for >= budget / 2
//   stalled  silent for >= budget while a loop is open on the board
//
// Only off-CPU silence becomes a stall: a sleeping or blocked body, a
// descheduled thread, a wedged one. A worker whose CPU clock cannot be
// read is classified by its heartbeat alone. The CPU clocks cost one
// clock_gettime per worker per scan.
//
// Detection latency: silence is accumulated per scan, so a real stall is
// classified within budget + one scan interval = 1.5x the budget — under
// the documented 2x-budget detection bound.
//
// On a healthy -> stalled transition the watchdog bumps stalls_detected,
// emits an instant stall_span on the telemetry service lane, and — when a
// loop is open — escalates: board::request_rescue() asks every open loop
// to release ownership reservations (the hybrid record arms its rescue
// sweep, early-releasing the straggler's earmarked partitions through the
// ordinary claim flags, so Theorem-3 exactly-once is untouched), and one
// parked helper is target-unparked to pick the work up (watchdog_wakes).
// When the heartbeat resumes, a complete stall_span covering the observed
// outage is emitted.
//
// Misclassification is safe by construction: a legitimate chunk that
// sleeps or blocks looks exactly like a stall, and the only consequences
// are a counter bump and an earmark early-release — the partitions the
// "victim" already claimed stay claimed, and the ones it had not are
// claimed exactly once by whoever gets there first.
//
// Telemetry single-writer rule: the watchdog writes ONLY the registry's
// service lane (registry::service()). Tests may drive scan() manually,
// but only when the thread was not started (options::start_thread =
// false) — two scanners would race the lane.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/thread_safety.h"

namespace hls::rt {

class runtime;

enum class worker_health : std::uint8_t { healthy = 0, slow = 1, stalled = 2 };

const char* worker_health_name(worker_health h) noexcept;

class health_watchdog {
 public:
  struct options {
    // Heartbeat-silence budget after which a worker counts as stalled.
    std::chrono::microseconds progress_budget{3200};
    // When false, no service thread runs and the owner drives scan()
    // manually (deterministic tests).
    bool start_thread = true;
  };

  health_watchdog(runtime& rt, options opt);
  ~health_watchdog();

  health_watchdog(const health_watchdog&) = delete;
  health_watchdog& operator=(const health_watchdog&) = delete;

  std::chrono::microseconds progress_budget() const noexcept {
    return opt_.progress_budget;
  }

  // Current classification of worker w (relaxed; may lag one scan).
  worker_health health_of(std::uint32_t w) const noexcept;

  // Completed classification passes.
  std::uint64_t scans() const noexcept {
    return scans_.load(std::memory_order_relaxed);
  }

  // One classification pass over all active workers; returns how many are
  // currently classified stalled. The service thread calls this every
  // progress_budget / 2; callable directly only when start_thread was
  // false (see the single-writer note above — the body asserts the
  // scanner_ role to -Wthread-safety on that basis).
  std::uint32_t scan();

  // Stops the service thread (idempotent; the destructor calls it).
  void stop() noexcept;

 private:
  void thread_main();

  struct lane {
    // Bookkeeping fields below `health` are scanner_-only (the nested
    // struct cannot name the outer capability, so the discipline is
    // enforced at the access sites in scan()).
    std::uint64_t last_beats = 0;
    std::int64_t silence_cpu_ns = -1;    // CPU time when silence began
                                         //   (-1 = clock unreadable)
    std::uint64_t silent_ns = 0;         // accumulated heartbeat silence
    std::uint64_t stall_started_ns = 0;  // service-lane clock, 0 = none
    std::atomic<worker_health> health{worker_health::healthy};
  };

  // Single-writer pseudo-capability: the service thread (or, with
  // start_thread = false, whoever drives scan() manually) is the only
  // scanner. scan() asserts it; see util/thread_safety.h.
  hls::thread_role scanner_;

  runtime& rt_;
  options opt_;
  std::vector<lane> lanes_;  // health fields cross-thread; rest scanner_-only
  std::uint64_t last_scan_ns_ HLS_GUARDED_BY(scanner_) = 0;
  std::atomic<std::uint64_t> scans_{0};

  hls::annotated_mutex mu_;
  hls::annotated_condvar cv_;
  bool stop_ HLS_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace hls::rt
