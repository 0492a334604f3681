#include "runtime/worker.h"

#include <chrono>
#include <thread>

#include "faultsim/faultsim.h"
#include "runtime/runtime.h"
#include "runtime/task.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace hls::rt {

namespace {
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}
}  // namespace

worker::worker(runtime& rt, std::uint32_t id, std::uint64_t seed,
               telemetry::worker_state& tel)
    : rt_(rt), id_(id), rng_(seed), tel_(tel) {}

void worker::push(task* t) {
  deque_.push(t);
  rt_.notify_work();
}

range_slot* worker::open_span(void* ctx, range_slot::span_runner run,
                              std::int64_t lo, std::int64_t hi,
                              std::int64_t grain) noexcept {
  if (open_spans_ == kSpanSlots) return nullptr;
  range_slot& slot = ranges_[open_spans_];
  if (!slot.open(ctx, run, lo, hi, grain)) return nullptr;
  ++open_spans_;
  return &slot;
}

bool worker::close_span() noexcept { return ranges_[--open_spans_].close(); }

void worker::bind_cpu_clock(pthread_t thread) noexcept {
  has_cpu_clock_ = pthread_getcpuclockid(thread, &cpu_clock_) == 0;
}

std::int64_t worker::cpu_time_ns() const noexcept {
  timespec ts{};
  if (!has_cpu_clock_ || clock_gettime(cpu_clock_, &ts) != 0) return -1;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

task* worker::pop_local() {
  // A fired fault skips the pop, and the task stays queued for the next
  // pop or a thief.
  if (fault(faultsim::hook::deque_pop)) return nullptr;
  return deque_.pop();
}

void worker::run(task* t) {
  telemetry::bump(tel_.counters.tasks_run);
  {
    const telemetry::scoped_span span(tel_, telemetry::event_kind::task_span,
                                      0, 0);
    // Last-resort exception boundary: loop chunks and task_group callables
    // catch their own exceptions, so anything arriving here escaped a raw
    // task's execute(). Swallowing it would lose it and rethrowing would
    // kill the worker thread (std::terminate); instead it parks on the
    // runtime for take_orphan_exception() and the worker survives.
    try {
      t->execute(*this);
    } catch (...) {
      telemetry::bump(tel_.counters.exceptions_caught);
      rt_.capture_orphan(std::current_exception());
    }
  }
  delete t;
}

worker::round_end worker::try_steal_round(std::uint64_t posts_seen,
                                          park_predicate done) {
  const std::uint32_t p = rt_.num_workers();
  if (p <= 1) return round_end::miss;
  fault(faultsim::hook::delay);
  const board& brd = rt_.loop_board();
  const std::uint64_t t0 = tel_.now();
  std::uint64_t probes = 0;
  round_end end = round_end::miss;

  // The round's one accounting path, called once per round: for a hit as
  // the work is acquired (before it runs), for a miss or an early end as
  // the round returns. Every probe made counts in steal_probes.
  const auto settle = [&](round_end how) {
    end = how;
    telemetry::bump(tel_.counters.steal_probes, probes);
    if (probes > 0) tel_.steal_probe_hist.record(probes);
    if (end == round_end::hit) {
      telemetry::bump(tel_.counters.steal_latency_ns, tel_.now() - t0);
    }
  };

  // Probes one victim. Returns true when the round is over: the probe hit
  // (the stolen work has run), or the round ended before probing because a
  // loop was posted since the caller's board visit — better work than any
  // probe — or the caller's wait is over. A deque hit takes the victim's
  // oldest task and runs it. `hinted` marks the probe a hinted wake asked
  // for.
  const auto probe = [&](std::uint32_t v, bool hinted) -> bool {
    if (brd.posts() != posts_seen) {
      end = round_end::posted;
      return true;
    }
    if (done.satisfied()) {
      end = round_end::done;
      return true;
    }
    ++probes;
    // A forced empty probe counts as a miss; the victim keeps its task.
    if (fault(faultsim::hook::steal_probe)) return false;
    // The victim's range slots outrank its deque: stealing half of a live
    // span is one CAS, no allocation, and seeds this worker's own slot
    // (recursive splitting). The open slots are a prefix of the stack, so
    // the probe walks up from the outermost (widest) span and stops at the
    // first closed slot; the common miss is one relaxed load.
    worker& victim = rt_.worker_at(v);
    for (std::uint32_t i = 0; i < kSpanSlots; ++i) {
      range_slot& rs = victim.range(i);
      if (!rs.looks_open()) break;
      // A forced failed split CAS leaves the span whole for the owner.
      if (fault(faultsim::hook::range_steal)) continue;
      if (range_slot::stolen s = rs.try_steal()) {
        settle(round_end::hit);
        telemetry::bump(tel_.counters.range_steals);
        // A range taken where a span-open wake pointed: the wake found its
        // span, so it counts, and is traced, as a handoff.
        if (hinted) telemetry::bump(tel_.counters.handoffs_consumed);
        tel_.instant(hinted ? telemetry::event_kind::handoff
                            : telemetry::event_kind::range_steal,
                     v, s.hi - s.lo);
        s.run(*this, s.ctx, s.lo, s.hi);
        return true;
      }
    }
    if (task* t = victim.deque().steal()) {
      settle(round_end::hit);
      telemetry::bump(tel_.counters.steals);
      tel_.instant(telemetry::event_kind::steal, v,
                   static_cast<std::int64_t>(probes));
      run(t);
      return true;
    }
    return false;
  };

  // The worker a hinted wake named opened a span just before the wake:
  // probe it first. The hint is spent either way.
  const std::uint32_t hint = wake_hint_;
  wake_hint_ = parking_lot::kNoHint;
  bool over = hint < p && probe(hint, true);
  // Up to P probes of uniformly random victims (randomized work stealing;
  // the round bound keeps the idle loop responsive to board posts).
  for (std::uint32_t attempt = 0; !over && attempt < p; ++attempt) {
    const auto victim =
        static_cast<std::uint32_t>(rng_.next_below(p - 1));
    over = probe(victim >= id_ ? victim + 1 : victim, false);
  }
  // A hit settled as it happened; anything else settles here.
  if (end != round_end::hit) settle(end);
  return end;
}

bool worker::try_progress(park_predicate done) {
  if (task* t = pop_local()) {
    run(t);
    return true;
  }
  board& b = rt_.loop_board();
  for (;;) {
    // Read before the visit, so a post the visit may have missed ends the
    // steal round below at its next probe.
    const std::uint64_t posts_seen = b.posts();
    if (b.visit(*this)) {
      telemetry::bump(tel_.counters.board_participations);
      return true;
    }
    switch (try_steal_round(posts_seen, done)) {
      case round_end::hit:
      case round_end::done:
        return true;
      case round_end::miss:
        return false;
      case round_end::posted:
        break;  // straight back to the board, not through a pause rung
    }
  }
}

void worker::pause(int idle_count, park_predicate done) {
  // Heartbeat at the park boundary: an idle-but-scheduled worker keeps
  // beating through this loop, so the watchdog only sees silence when the
  // thread is truly off-CPU or wedged (runtime/health.h).
  beat();
  if (idle_count == 1) {
    // Progress happened since the last pause streak; restart the backoff
    // ladder from the spin rungs.
    backoff_level_ = 0;
  }
  if (idle_count < 4) {
    cpu_relax();
  } else if (idle_count < 16) {
    std::this_thread::yield();
  } else {
    fault(faultsim::hook::delay_park);  // an injected pre-park preemption
    // Visible work this worker failed to get: the loop it waits on is
    // still open, so wait on the CPU for the next post rather than park.
    if (rt_.work_visible()) {
      backoff_nap(done);
      return;
    }
    const std::uint64_t t0 = tel_.now();
    // Count only parks that actually blocked: idle_park reports
    // waited == false when it bailed out in the check-then-park re-check
    // (work or the caller's completion predicate became visible, or the
    // runtime is stopping), and those must not inflate the sleep counter
    // or emit zero-length idle spans.
    hb_parked_.store(1, std::memory_order_relaxed);
    const parking_lot::park_result out = rt_.idle_park(*this, done);
    hb_parked_.store(0, std::memory_order_relaxed);
    wake_hint_ = out.hint;
    if (!out.waited) return;
    backoff_level_ = 0;
    telemetry::bump(tel_.counters.idle_sleeps);
    const std::uint64_t dt = tel_.now() - t0;
    telemetry::bump(tel_.counters.idle_sleep_ns, dt);
    const bool notified = out.reason == parking_lot::wake_reason::notified;
    // A targeted wake that finds no visible work means the work was taken
    // before this worker arrived; tracked so wake efficiency is
    // observable. A wake that delivered a completion edge (the caller's
    // predicate now holds) did its job and is not spurious.
    if (notified && !rt_.work_visible() && !done.satisfied()) {
      telemetry::bump(tel_.counters.wakes_spurious);
    }
    // Arm the wake-to-first-chunk measurement: a notified unpark that did
    // not deliver the completion edge is the "go run loop work" case the
    // push-based work-sharing PR wants latency for; the next chunk this
    // worker starts closes the interval (registry.h, wake_to_chunk_hist).
    // Timeout/stop wakeups disarm instead so backstop parks don't pollute
    // the histogram.
    if (notified && !done.satisfied()) {
      tel_.mark_woken(t0 + dt);
    } else {
      tel_.clear_pending_wake();
    }
    tel_.span(telemetry::event_kind::idle_span, t0, dt, notified ? 1 : 0, 0);
  }
}

void worker::backoff_nap(park_predicate done) {
  // Bounded exponential nap with jitter: 2us << level, jittered to
  // 50-150% so synchronized thieves don't re-collide, capped at the park
  // backstop. The worker is not announced in the parking lot, so no wake
  // reaches it: it watches for the edges that end its wait itself, and
  // the deadline bounds any edge it does not watch (a new span or task).
  const std::int64_t base_ns = 2'000ll << backoff_level_;
  const std::int64_t cap_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          rt_.options().park_backstop)
          .count();
  std::int64_t nap_ns = base_ns / 2 +
                        static_cast<std::int64_t>(
                            rng_.next_below(static_cast<std::uint64_t>(base_ns)));
  if (nap_ns > cap_ns) nap_ns = cap_ns;
  telemetry::bump(tel_.counters.steal_backoffs);
  const board& brd = rt_.loop_board();
  const std::uint64_t posts = brd.posts();
  const std::uint64_t t0 = tel_.now();
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(nap_ns);
  std::uint64_t t = t0;
  while (brd.posts() == posts && !done.satisfied() && !rt_.stopping() &&
         t < deadline) {
    std::this_thread::yield();
    beat();  // on-CPU and holding no work: healthy, not silent
    t = tel_.now();
  }
  telemetry::bump(tel_.counters.idle_spin_ns, t - t0);
  if (backoff_level_ < kMaxBackoffLevel) ++backoff_level_;
}

}  // namespace hls::rt
