// The hls work-stealing runtime.
//
// Construction spawns P-1 background worker threads; the constructing
// thread acts as worker 0 (like a Cilk program's initial worker). The
// runtime owns the loop participation board through which all work-sharing
// and hybrid loops distribute work.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <string>

#include "faultsim/faultsim.h"
#include "runtime/board.h"
#include "runtime/parking.h"
#include "runtime/worker.h"
#include "telemetry/registry.h"

namespace hls {
class cli;
}

namespace hls::rt {

class health_watchdog;

// The worker bound to the calling thread, or nullptr when the thread is not
// a runtime worker (e.g. during static initialization or in tests that use
// tasks without a runtime). parallel_for uses it to run a foreign thread's
// loop serially; parallel_reduce uses it to pick the caller's lane.
worker* current_worker_or_null() noexcept;

// Construction-time runtime configuration. All knobs are validated by
// validate() (called by the runtime constructor); from_cli additionally
// range-checks the raw flag values, so a bad --park-backstop-us fails with
// a message naming the flag instead of surfacing later.
struct runtime_options {
  std::uint32_t num_workers = 1;   // --workers, in [1, kMaxWorkers]
  std::uint64_t seed = 42;         // victim-selection reproducibility

  // Backstop for idle parks (see runtime::kParkBackstop for the default
  // and the rationale). Must be in [1us, 1s].
  std::chrono::microseconds park_backstop{200};

  // Health watchdog (runtime/health.h): off disables stall detection and
  // rescue escalation entirely (no service thread is started).
  bool watchdog = true;

  // Heartbeat-silence budget after which a worker is classified stalled.
  // 0 = derive from the park backstop (16x, the documented default): the
  // backstop is the longest a healthy worker legitimately goes dark, so
  // the progress budget defaults to a comfortable multiple of it. When
  // set, must be in [10us, 60s].
  std::chrono::microseconds progress_budget{0};

  // Chaos spec (faultsim/faultsim.h). "" = fall back to the HLS_CHAOS
  // environment variable; a non-empty spec must parse or the runtime
  // constructor throws.
  std::string chaos;

  // The watchdog's effective stall budget after defaulting.
  std::chrono::microseconds effective_progress_budget() const noexcept {
    return progress_budget.count() > 0 ? progress_budget
                                       : park_backstop * 16;
  }

  // Throws std::invalid_argument on any out-of-range knob.
  void validate() const;

  // Parses --workers, --park-backstop-us, --progress-budget-us,
  // --watchdog=0|1, --chaos.
  // Unset flags keep the defaults above (num_workers falls back to
  // hardware_concurrency).
  static runtime_options from_cli(const cli& c);
};

class runtime {
 public:
  // Upper bound on num_workers; far above any sane oversubscription, low
  // enough to catch a negative count cast to unsigned.
  static constexpr std::uint32_t kMaxWorkers = 4096;

  // num_workers in [1, kMaxWorkers]; anything else throws
  // std::invalid_argument (no silent clamping — a zero or garbage worker
  // count is a configuration error the caller must see). seed makes victim
  // selection reproducible per worker. If the HLS_CHAOS environment
  // variable is set, a deterministic fault injector is installed (see
  // faultsim/faultsim.h and set_chaos).
  explicit runtime(std::uint32_t num_workers, std::uint64_t seed = 42);

  // Full-options constructor; opt.validate() is applied first. Worker
  // thread spawn failures (std::system_error from std::thread, or the
  // faultsim thread_spawn hook) do not throw: the team shrinks to the
  // workers that did start, the loss is counted in degraded_workers, and
  // the runtime comes up degraded-but-functional (num_workers() reports
  // the actual team size).
  explicit runtime(const runtime_options& opt);
  ~runtime();

  runtime(const runtime&) = delete;
  runtime& operator=(const runtime&) = delete;

  // The ACTIVE team size: the requested worker count minus any workers
  // lost to spawn failure at construction (ids stay contiguous [0, n)).
  // Worker objects beyond it exist but have no thread and hold no work.
  std::uint32_t num_workers() const noexcept {
    return active_workers_.load(std::memory_order_relaxed);
  }
  worker& worker_at(std::uint32_t i) noexcept { return *workers_[i]; }
  board& loop_board() noexcept { return board_; }

  // The worker bound to the calling thread. Worker 0 is bound to the thread
  // that constructed the runtime; a call from any other non-worker thread
  // is a usage error and aborts.
  worker& current_worker();

  // Default backstop for idle parks (runtime_options::park_backstop). Not
  // a poll interval: every work-publication path issues a targeted wake,
  // so in normal operation parked workers are woken explicitly and this
  // timeout never fires. It exists so an edge with no tracked wake (or a
  // future bug) degrades to bounded latency — matching the old poll
  // interval — instead of a hang.
  static constexpr std::chrono::microseconds kParkBackstop{200};

  // The options this runtime was built with (after validation; num_workers
  // still reports the REQUESTED team size — num_workers() is the actual
  // one when spawn failures shrank the team).
  const runtime_options& options() const noexcept { return opt_; }

  // Wakes up to k parked workers (the new-work edge). A push wakes one:
  // each published task sends one wake, so wakes scale with the work, not
  // with the herd. A board post wakes the whole team the loop can use in
  // one call (parallel_for), so no worker the loop needs waits out the
  // park backstop. A span open wakes one and names its owner in `hint`
  // (docs/runtime.md "Hinted wakes"): the woken worker's next steal round
  // probes that worker first. Every delivered wake counts in the caller's
  // wakes_sent, and a hinted one in handoffs_sent too.
  void notify_work(std::uint32_t k = 1,
                   std::uint32_t hint = parking_lot::kNoHint) noexcept;

  // Wakes every parked worker. Called on completion edges (a loop's last
  // chunk retiring, a task_group draining) where the specific waiter that
  // cares — a worker blocked in work_until on that predicate — cannot be
  // identified, and on shutdown.
  void notify_all() noexcept;

  // Parks worker w until new work is signalled. Encodes the
  // check-then-park protocol: announce the waiter (parking_lot::
  // prepare_park), re-check for visible work AND the caller's own
  // completion predicate, then either cancel or commit to the park. A
  // notify_work() racing with the idle transition is never lost: it either
  // observes the announced waiter or its work is seen by the re-check.
  // `done` is the work_until predicate (empty from the top-level worker
  // loop): a completion broadcast that fired before the waiter announced
  // itself found nobody to unpark, so the re-check must re-test the
  // predicate or that edge would silently fall back to the backstop.
  // Returns waited == false when the park was cancelled (work or
  // completion visible, or stopping) — such calls must not be accounted as
  // idle sleeps — and the notify_work hint of the wake consumed, if any.
  parking_lot::park_result idle_park(worker& w, park_predicate done = {});

  // The health watchdog, or nullptr when runtime_options::watchdog is
  // false (runtime/health.h).
  health_watchdog* watchdog() noexcept { return watchdog_.get(); }

  // True when a loop is open: posted on the board or, for dynamic_ws,
  // which posts nothing there, a span in some worker's range slot 0. The
  // one definition work_visible and the health watchdog share. Racy by
  // nature, like work_visible.
  bool loop_open() const noexcept;

  // True when a loop is open (loop_open) or any deque holds a task. Racy
  // by nature (size estimates); used by the idle path's choice between an
  // on-CPU backoff nap and a park, its check-then-park re-check and the
  // spurious-wake accounting, never for correctness of work distribution
  // itself.
  bool work_visible() const noexcept;

  // The parking subsystem (exposed for tests and diagnostics).
  parking_lot& parking() noexcept { return parking_; }

  bool stopping() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }

  // Sum of all workers' event counters (racy-but-consistent snapshot):
  // totals add, watermarks take the max. Each field is monotonic, so
  // deltas of two snapshots (operator-) are well-defined.
  worker_stats stats_snapshot() const { return tel_.totals(); }

  // This runtime's telemetry registry: per-worker counters, histograms,
  // and (when enabled) scheduler event rings. See telemetry/registry.h.
  telemetry::registry& tel() noexcept { return tel_; }
  const telemetry::registry& tel() const noexcept { return tel_; }

  // ---- fault injection (faultsim/faultsim.h) ------------------------
  // The installed chaos injector, or nullptr (the common case: one
  // pointer load per hook site). Fault sites draw through worker::fault.
  faultsim::injector* chaos() const noexcept {
    return chaos_.load(std::memory_order_acquire);
  }

  // Installs a fault injector (nullptr uninstalls). Safe to call while
  // workers run: previously installed injectors are retired, not freed, so
  // a worker racing with the swap still reads valid state.
  void set_chaos(std::shared_ptr<faultsim::injector> inj);

  // ---- last-resort exception capture --------------------------------
  // First exception that escaped a raw task's execute() without being
  // routed through a loop context or task_group (worker::run's backstop).
  // The worker thread survives; the exception parks here. Returns and
  // clears the stored exception, or nullptr if none.
  std::exception_ptr take_orphan_exception();

 private:
  friend class worker;

  void worker_main(std::uint32_t id);
  void capture_orphan(std::exception_ptr e) noexcept;

  runtime_options opt_;      // validated copy
  telemetry::registry tel_;  // before workers_: workers reference slots
  parking_lot parking_;
  std::vector<std::unique_ptr<worker>> workers_;
  std::vector<std::thread> threads_;
  board board_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint32_t> active_workers_{1};
  std::unique_ptr<health_watchdog> watchdog_;  // reset first in ~runtime

  // Chaos injector: raw pointer for the hot-path load; keepers (current +
  // retired) pin every injector installed during this runtime's life so a
  // racing hook-site read never dangles.
  std::atomic<faultsim::injector*> chaos_{nullptr};
  std::mutex chaos_mu_;
  std::vector<std::shared_ptr<faultsim::injector>> chaos_keepers_;

  std::mutex orphan_mu_;
  std::exception_ptr orphan_;
};

inline bool worker::fault(faultsim::hook h, std::int64_t lo,
                          std::int64_t hi) noexcept {
  faultsim::injector* c = rt_.chaos();
  return c != nullptr && c->draw(h, id_, lo, hi);
}

}  // namespace hls::rt
