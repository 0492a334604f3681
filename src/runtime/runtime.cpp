#include "runtime/runtime.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>

#include "faultsim/faultsim.h"
#include "runtime/health.h"
#include "util/cli.h"
#include "util/rng.h"

namespace hls::rt {

namespace {
// Thread-local binding of OS thread -> worker, so nested parallel calls
// issued from inside tasks land on the executing worker.
thread_local worker* tls_worker = nullptr;
}  // namespace

worker* current_worker_or_null() noexcept { return tls_worker; }

namespace {
std::uint32_t checked_worker_count(std::uint32_t num_workers) {
  if (num_workers == 0) {
    throw std::invalid_argument(
        "hls: runtime requires at least 1 worker (got 0; pass --workers=1 "
        "for a serial runtime)");
  }
  if (num_workers > runtime::kMaxWorkers) {
    throw std::invalid_argument(
        "hls: runtime worker count " + std::to_string(num_workers) +
        " exceeds the maximum of " + std::to_string(runtime::kMaxWorkers) +
        " (a negative --workers value cast to unsigned?)");
  }
  return num_workers;
}

runtime_options legacy_options(std::uint32_t num_workers, std::uint64_t seed) {
  runtime_options o;
  o.num_workers = num_workers;
  o.seed = seed;
  return o;
}

const runtime_options& checked_options(const runtime_options& opt) {
  opt.validate();
  return opt;
}
}  // namespace

void runtime_options::validate() const {
  checked_worker_count(num_workers);
  if (park_backstop < std::chrono::microseconds(1) ||
      park_backstop > std::chrono::seconds(1)) {
    throw std::invalid_argument(
        "hls: park backstop " + std::to_string(park_backstop.count()) +
        "us out of range [1us, 1s]");
  }
  if (progress_budget.count() != 0 &&
      (progress_budget < std::chrono::microseconds(10) ||
       progress_budget > std::chrono::seconds(60))) {
    throw std::invalid_argument(
        "hls: progress budget " + std::to_string(progress_budget.count()) +
        "us out of range [10us, 60s] (0 derives 16x the park backstop)");
  }
}

runtime_options runtime_options::from_cli(const cli& c) {
  runtime_options o;
  const unsigned hw = std::thread::hardware_concurrency();
  o.num_workers = static_cast<std::uint32_t>(c.get_int_in(
      "workers", hw == 0 ? 4 : static_cast<int>(hw), 1,
      static_cast<int>(runtime::kMaxWorkers)));
  o.park_backstop = std::chrono::microseconds(c.get_int_in(
      "park-backstop-us", static_cast<int>(runtime::kParkBackstop.count()), 1,
      1'000'000));
  o.progress_budget = std::chrono::microseconds(
      c.get_int_in("progress-budget-us", 0, 0, 60'000'000));
  o.watchdog = c.get_bool("watchdog", true);
  o.work_handoff = c.get_bool("work-handoff", true);
  o.chaos = c.get("chaos", "");
  o.validate();
  return o;
}

runtime::runtime(std::uint32_t num_workers, std::uint64_t seed)
    : runtime(legacy_options(num_workers, seed)) {}

runtime::runtime(const runtime_options& opt)
    : opt_(checked_options(opt)),
      tel_(opt_.num_workers),
      parking_(tel_.num_workers()),
      handoff_(new handoff_slot[tel_.num_workers()]) {
  const std::uint32_t requested = opt_.num_workers;
  std::uint64_t sm = opt_.seed;
  workers_.reserve(requested);
  for (std::uint32_t i = 0; i < requested; ++i) {
    workers_.push_back(
        std::make_unique<worker>(*this, i, splitmix64(sm), tel_.of(i)));
  }
  tls_worker = workers_[0].get();
  if (!opt_.chaos.empty()) {
    set_chaos(faultsim::make_injector(opt_.chaos, requested));
  } else if (auto chaos_cfg = faultsim::config::from_env()) {
    set_chaos(std::make_shared<faultsim::injector>(*chaos_cfg, requested));
  }
  active_workers_.store(requested, std::memory_order_relaxed);
  threads_.reserve(requested - 1);
  faultsim::injector* inj = chaos();
  for (std::uint32_t i = 1; i < requested; ++i) {
    // Graceful degradation: a spawn failure (resource exhaustion, or the
    // faultsim thread_spawn hook standing in for one) shrinks the team to
    // the i workers already running instead of throwing a half-built
    // runtime away. Worker ids stay contiguous [0, i); the threadless
    // worker objects stay allocated (already-running workers may be
    // mid-scan over them) but hold no work and are never victims again
    // once active_workers_ shrinks.
    bool failed =
        inj != nullptr && inj->fire(faultsim::hook::thread_spawn, 0);
    if (!failed) {
      try {
        threads_.emplace_back([this, i] { worker_main(i); });
      } catch (const std::system_error&) {
        failed = true;
      }
    }
    if (failed) {
      active_workers_.store(i, std::memory_order_release);
      // The constructing thread IS worker 0, so its counter lane is ours
      // to bump (single-writer rule).
      telemetry::bump(tel_.of(0).counters.degraded_workers, requested - i);
      if (inj != nullptr) {
        telemetry::bump(tel_.of(0).counters.faults_injected);
      }
      std::fprintf(stderr,
                   "hls: worker thread %u failed to spawn; running degraded "
                   "with %u of %u workers\n",
                   i, i, requested);
      break;
    }
  }
  // Each running worker's thread CPU clock, for the watchdog's busy-or-
  // stalled call (runtime/health.h); recorded before the watchdog starts.
  workers_[0]->bind_cpu_clock(pthread_self());
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    workers_[i + 1]->bind_cpu_clock(threads_[i].native_handle());
  }
  if (opt_.watchdog) {
    health_watchdog::options ho;
    ho.progress_budget = opt_.effective_progress_budget();
    watchdog_ = std::make_unique<health_watchdog>(*this, ho);
  }
}

runtime::~runtime() {
  watchdog_.reset();  // stop the service thread before the workers go away
  stop_.store(true, std::memory_order_release);
  parking_.request_stop();
  for (auto& t : threads_) t.join();
  // Workers drained their own mailboxes on the way out of worker_main;
  // worker 0 (this thread) and any degraded threadless workers still need
  // theirs swept so no deposited range goes unexecuted.
  for (std::uint32_t i = 0; i < workers_.size(); ++i) {
    while (workers_[0]->try_consume_handoff_from(i)) {
    }
  }
  if (tls_worker == workers_[0].get()) tls_worker = nullptr;
}

worker& runtime::current_worker() {
  worker* w = tls_worker;
  if (w == nullptr || &w->rt() != this) {
    std::fprintf(stderr,
                 "hls: current_worker() called from a thread not bound to "
                 "this runtime\n");
    std::abort();
  }
  return *w;
}

void runtime::set_chaos(std::shared_ptr<faultsim::injector> inj) {
  std::lock_guard<std::mutex> lk(chaos_mu_);
  faultsim::injector* raw = inj.get();
  // Retire rather than free: a worker between loading chaos_ and calling
  // into the injector must never observe a destroyed object.
  chaos_keepers_.push_back(std::move(inj));
  chaos_.store(raw, std::memory_order_release);
}

std::exception_ptr runtime::take_orphan_exception() {
  std::lock_guard<std::mutex> lk(orphan_mu_);
  std::exception_ptr e = orphan_;
  orphan_ = nullptr;
  return e;
}

void runtime::capture_orphan(std::exception_ptr e) noexcept {
  std::lock_guard<std::mutex> lk(orphan_mu_);
  if (orphan_ == nullptr) orphan_ = std::move(e);
}

void runtime::notify_work(std::uint32_t k) noexcept {
  // unpark_n's seq_cst fence orders the caller's work publication (deque
  // bottom_ / board ptr stores) before the waiter scan, pairing with
  // prepare_park's fence in idle_park. Waking only as many workers as the
  // work can use avoids the old notify_all thundering herd.
  const std::uint32_t woken = parking_.unpark_n(k);
  if (woken == 0) return;
  worker* w = tls_worker;
  if (w != nullptr && &w->rt() == this) {
    telemetry::bump(w->tel().counters.wakes_sent, woken);
  }
}

void runtime::notify_all() noexcept {
  parking_.unpark_all();
}

bool runtime::work_visible(std::uint32_t self) const noexcept {
  if (board_.any_open()) return true;
  for (std::uint32_t i = 0; i < workers_.size(); ++i) {
    // The caller's own deque is included: a chaos-skipped pop leaves a
    // task queued locally, and sleeping over it would be a lost wakeup.
    if (workers_[i]->deque().size_estimate() > 0) return true;
    // An open range slot is published work too — under the lazy splitting
    // path a loop may expose no tasks at all, only a stealable span, and
    // parking over one would be the same lost wakeup. Slot 0 suffices:
    // a worker's open slots are a prefix of its stack, so any open span
    // keeps slot 0 open.
    if (workers_[i]->range(0).looks_open()) return true;
    // A full handoff mailbox is published work: the deposit happens before
    // the donor's targeted wake, and if that wake fails (or the chaos
    // handoff_drop hook swallows it) the payload must still keep every
    // would-be sleeper's re-check honest — any worker can poach it.
    if (handoff_[i].full()) return true;
  }
  (void)self;
  return false;
}

runtime::park_outcome runtime::idle_park(worker& w, park_predicate done) {
  if (stopping()) return {false, parking_lot::wake_reason::stop};
  const std::uint32_t ticket = parking_.prepare_park(w.id());
  // Check-then-park (the lost-wakeup fix): the waiter announcement above
  // is seq_cst-ordered before this re-check, and notify_work's waiter
  // scan is seq_cst-ordered after its work publication — so a racing
  // notify either sees us announced (and bumps our epoch, making park()
  // return immediately) or we see its work here and cancel. The caller's
  // completion predicate is part of the re-check for the same reason: a
  // completion broadcast (loop retire / task_group drain) publishes no new
  // work, so a broadcast landing just before the announcement is visible
  // only through the predicate itself.
  if (stopping() || work_visible(w.id()) || done.satisfied()) {
    parking_.cancel_park(w.id());
    return {false, parking_lot::wake_reason::notified};
  }
  const parking_lot::park_result res =
      parking_.park(w.id(), ticket, opt_.park_backstop);
  return {res.waited, res.reason};
}

void runtime::worker_main(std::uint32_t id) {
  worker& w = *workers_[id];
  tls_worker = &w;
  int idle = 0;
  while (!stopping()) {
    if (w.try_progress()) {
      idle = 0;
    } else {
      w.pause(++idle);
    }
  }
  // Shutdown drain: a deposit racing the stop flag must not be stranded in
  // this worker's mailbox (its range holds unretired iterations). In
  // correct usage loops complete before the runtime is destroyed, so this
  // is a defensive sweep, but the exactly-once guarantee must not depend
  // on that.
  while (w.try_consume_handoff()) {
  }
  tls_worker = nullptr;
}

}  // namespace hls::rt
