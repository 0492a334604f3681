#include "runtime/health.h"

#include <algorithm>
#include <chrono>

#include "runtime/runtime.h"
#include "telemetry/registry.h"

namespace hls::rt {

health_watchdog::health_watchdog(runtime& rt, options opt)
    : rt_(rt), opt_(opt), lanes_(rt.num_workers()) {
  if (opt_.progress_budget < std::chrono::microseconds(10)) {
    opt_.progress_budget = std::chrono::microseconds(10);
  }
  scanner_.hold();  // construction happens-before the service thread
  last_scan_ns_ = rt_.tel().service().now();
  for (std::uint32_t w = 0; w < lanes_.size(); ++w) {
    lanes_[w].silence_cpu_ns = rt_.worker_at(w).cpu_time_ns();
  }
  if (opt_.start_thread) {
    thread_ = std::thread([this] { thread_main(); });
  }
}

health_watchdog::~health_watchdog() { stop(); }

void health_watchdog::stop() noexcept {
  {
    hls::scoped_lock<hls::annotated_mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

worker_health health_watchdog::health_of(std::uint32_t w) const noexcept {
  if (w >= lanes_.size()) return worker_health::healthy;
  return lanes_[w].health.load(std::memory_order_relaxed);
}

std::uint32_t health_watchdog::scan() {
  // Single-writer discipline (header): either the service thread calls
  // this, or no service thread was started and the test driver does.
  scanner_.hold();
  telemetry::worker_state& svc = rt_.tel().service();
  const std::uint64_t now = svc.now();
  const std::uint64_t dt = now - last_scan_ns_;
  last_scan_ns_ = now;
  const auto budget_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          opt_.progress_budget)
          .count());
  const std::uint32_t n =
      std::min<std::uint32_t>(rt_.num_workers(),
                              static_cast<std::uint32_t>(lanes_.size()));
  // Stalls only matter while a loop is open: a silent worker with no
  // outstanding loop is just an application thread between loops (worker
  // 0 belongs to the user), and flagging it would make stalls_detected
  // meaningless noise.
  const bool loop_open = rt_.loop_open();

  std::uint32_t stalled = 0;
  bool rescue_needed = false;
  for (std::uint32_t w = 0; w < n; ++w) {
    worker& wk = rt_.worker_at(w);
    lane& ln = lanes_[w];
    const std::uint64_t beats = wk.beats();
    // On-CPU for more than a tenth of the silence so far: a long body is
    // running, not a stall. Measured over the whole silence, so a short
    // burst of CPU charged to a sleeping thread does not end a stall.
    const std::int64_t cpu = wk.cpu_time_ns();
    const bool busy =
        cpu >= 0 && ln.silence_cpu_ns >= 0 &&
        static_cast<std::uint64_t>(cpu - ln.silence_cpu_ns) * 10 >
            ln.silent_ns + dt;
    if (beats != ln.last_beats || wk.parked_hint() || busy) {
      // Progress (or a healthy park, or a busy body). Close out a previous
      // stall with a complete span covering the observed outage.
      ln.last_beats = beats;
      ln.silent_ns = 0;
      ln.silence_cpu_ns = cpu;
      if (ln.health.load(std::memory_order_relaxed) ==
              worker_health::stalled &&
          ln.stall_started_ns != 0) {
        svc.span(telemetry::event_kind::stall_span, ln.stall_started_ns,
                 now - ln.stall_started_ns, w, 0);
      }
      ln.stall_started_ns = 0;
      ln.health.store(worker_health::healthy, std::memory_order_relaxed);
      continue;
    }
    ln.silent_ns += dt;
    if (ln.silent_ns >= budget_ns && loop_open) {
      if (ln.health.load(std::memory_order_relaxed) !=
          worker_health::stalled) {
        ln.health.store(worker_health::stalled, std::memory_order_relaxed);
        ln.stall_started_ns = now >= ln.silent_ns ? now - ln.silent_ns : 0;
        telemetry::bump(svc.counters.stalls_detected);
        svc.span(telemetry::event_kind::stall_span, now, 0, w, 0);
      }
      ++stalled;
      rescue_needed = true;
    } else if (ln.silent_ns >= budget_ns / 2) {
      ln.health.store(worker_health::slow, std::memory_order_relaxed);
    }
  }

  if (rescue_needed && loop_open) {
    // Escalate: early-release the stragglers' ownership reservations
    // (each open loop decides what that means — the hybrid record arms
    // its rescue sweep) and target-unpark one helper to pick them up.
    // Repeated on every stalled scan, so a wake lost to a race (the
    // helper found nothing yet) is re-sent while the stall persists.
    rt_.loop_board().request_rescue();
    if (rt_.parking().unpark_one()) {
      telemetry::bump(svc.counters.watchdog_wakes);
    }
  }
  scans_.fetch_add(1, std::memory_order_release);
  return stalled;
}

void health_watchdog::thread_main() {
  // Scan at half the budget so a stall is classified within 1.5x the
  // budget (see header); the condvar makes shutdown prompt. scan() runs
  // outside the lock — stop() only needs the mutex for the stop_ flag.
  const auto interval = opt_.progress_budget / 2;
  for (;;) {
    {
      std::unique_lock<hls::annotated_mutex> lk(mu_);
      if (cv_.wait_for(lk, interval,
                       [this]() HLS_REQUIRES(mu_) { return stop_; })) {
        return;
      }
    }
    scan();
  }
}

}  // namespace hls::rt
