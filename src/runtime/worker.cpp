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
  advertise_deque();
  // Deep-deque donation: with enough local backlog, hand one queued task
  // straight to a parked peer instead of waking it to probe. The guard
  // inside donate_surplus_task keeps the common no-sleeper case at one
  // relaxed load.
  if (deque_.size_estimate() >= kHandoffDepth && donate_surplus_task()) {
    return;
  }
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

void worker::advertise_deque() noexcept {
  rt_.loads().publish_deque(id_, deque_.size_estimate());
}

void worker::advertise_span(std::uint64_t width) noexcept {
  rt_.loads().publish_span(id_, width);
}

bool worker::try_consume_handoff() { return try_consume_handoff_from(id_); }

bool worker::try_consume_handoff_from(std::uint32_t v) {
  handoff_item it;
  if (!rt_.handoff_of(v).try_take(it)) return false;
  run_handoff(it);
  return true;
}

void worker::run_handoff(handoff_item& it) {
  telemetry::bump(tel_.counters.handoffs_consumed);
  // Affinity follows the donor: a worker with surplus to push is the most
  // likely place the next steal lands.
  if (it.donor != id_ && it.donor < rt_.num_workers()) {
    last_victim_ = it.donor;
  }
  if (it.k == handoff_item::kind::range) {
    it.run(*this, it.ctx, it.lo, it.hi);
  } else {
    run(it.t);
  }
}

// Picks a deposit target and claims its mailbox. Returns nullptr when the
// handoff path should not run (disabled, solo, nobody parked, target
// mailbox occupied). On success *target_out names the claimed peer.
handoff_slot* worker::claim_handoff_target(std::uint32_t* target_out) {
  if (!rt_.handoff_enabled()) return nullptr;
  const std::uint32_t p = rt_.num_workers();
  if (p <= 1) return nullptr;
  parking_lot& pl = rt_.parking();
  if (pl.waiters() == 0) return nullptr;
  const std::uint32_t target = pl.pick_waiter();
  if (target >= p || target == id_) return nullptr;
  handoff_slot& box = rt_.handoff_of(target);
  if (!box.try_claim()) return nullptr;
  *target_out = target;
  return &box;
}

// Deposit published; deliver the wake or reclaim the payload. Returns
// true when the payload was delivered (targeted wake sent, or a racing
// consumer already took it); false after a successful reclaim, with the
// payload copied to *back for the caller to reinstate.
bool worker::deliver_or_reclaim(handoff_slot& box, std::uint32_t target,
                                std::int64_t iters, handoff_item* back) {
  if (faultsim::injector* c = rt_.chaos();
      c != nullptr && c->fire(faultsim::hook::handoff_drop, id_)) {
    // Injected dropped handoff: the wake is swallowed AND the donor
    // forgets to reclaim — the payload is stranded in the mailbox. The
    // no-lost-work guarantee now rests on the sweep paths (work_visible
    // keeps would-be sleepers honest; steal rounds poach full mailboxes),
    // which is exactly what the chaos sweep in handoff_test asserts.
    telemetry::bump(tel_.counters.faults_injected);
    return true;
  }
  if (rt_.parking().unpark_at(target)) {
    telemetry::bump(tel_.counters.wakes_sent);
    telemetry::bump(tel_.counters.handoffs_sent);
    if (tel_.events_on()) {
      tel_.emit({tel_.now(), 0, static_cast<std::int64_t>(target), iters,
                 telemetry::event_kind::handoff});
    }
    return true;
  }
  // The targeted wake failed (the peer raced into activity or already
  // holds an unconsumed wake). Reclaim the deposit; exactly one of this
  // take and any concurrent consumer/poacher wins.
  if (box.try_take(*back)) {
    telemetry::bump(tel_.counters.handoffs_reclaimed);
    return false;
  }
  // Lost the reclaim race: someone is already executing the payload.
  telemetry::bump(tel_.counters.handoffs_sent);
  if (tel_.events_on()) {
    tel_.emit({tel_.now(), 0, static_cast<std::int64_t>(target), iters,
               telemetry::event_kind::handoff});
  }
  return true;
}

bool worker::donate_range() {
  std::uint32_t target = 0;
  handoff_slot* box = claim_handoff_target(&target);
  if (box == nullptr) return false;
  // Donor-side pre-split: carve the upper half off the span this worker
  // just opened (its innermost slot) with the slot's regular thief
  // protocol — the same CAS transaction an actual steal runs, so the
  // Corollary-6 split bound and exactly-once argument apply unchanged.
  range_slot& slot = ranges_[open_spans_ - 1];
  const range_slot::stolen s = slot.try_steal();
  if (!s) {
    box->abort_claim();  // span too narrow to halve (or lost a race)
    return false;
  }
  handoff_item it;
  it.k = handoff_item::kind::range;
  it.donor = id_;
  it.run = s.run;
  it.ctx = s.ctx;
  it.lo = s.lo;
  it.hi = s.hi;
  box->publish(it);
  handoff_item back;
  if (deliver_or_reclaim(*box, target, s.hi - s.lo, &back)) return true;
  // Reclaimed: restore the range to the open span when no thief moved the
  // frontier meanwhile; otherwise execute it here (the runner thunk opens
  // the next slot for it, nested inside the span it came from).
  if (!slot.try_unsteal(back.lo, back.hi)) {
    back.run(*this, back.ctx, back.lo, back.hi);
  }
  return false;
}

bool worker::donate_surplus_task() {
  std::uint32_t target = 0;
  handoff_slot* box = claim_handoff_target(&target);
  if (box == nullptr) return false;
  task* t = deque_.pop();
  if (t == nullptr) {
    box->abort_claim();  // thieves emptied the deque under us
    return false;
  }
  handoff_item it;
  it.k = handoff_item::kind::task;
  it.donor = id_;
  it.t = t;
  box->publish(it);
  advertise_deque();
  handoff_item back;
  if (deliver_or_reclaim(*box, target, 1, &back)) return true;
  deque_.push(back.t);  // reclaimed: the task goes back where it came from
  advertise_deque();
  return false;
}

task* worker::pop_local() {
  if (faultsim::injector* c = rt_.chaos();
      c != nullptr && c->fire(faultsim::hook::deque_pop, id_)) {
    // Skipped, not lost: the task stays queued for the next pop or a thief.
    telemetry::bump(tel_.counters.faults_injected);
    return nullptr;
  }
  return deque_.pop();
}

void worker::run(task* t) {
  telemetry::bump(tel_.counters.tasks_run);
  // Last-resort exception boundary: loop chunks and task_group callables
  // catch their own exceptions, so anything arriving here escaped a raw
  // task's execute(). Swallowing it would lose it and rethrowing would
  // kill the worker thread (std::terminate); instead it parks on the
  // runtime for take_orphan_exception() and the worker survives.
  const auto guarded = [&] {
    try {
      t->execute(*this);
    } catch (...) {
      telemetry::bump(tel_.counters.exceptions_caught);
      rt_.capture_orphan(std::current_exception());
    }
  };
  if (tel_.events_on()) {
    const std::uint64_t t0 = tel_.now();
    guarded();
    tel_.emit({t0, tel_.now() - t0, 0, 0, telemetry::event_kind::task_span});
  } else {
    guarded();
  }
  delete t;
}

worker::round_end worker::try_steal_round(std::uint64_t posts_seen,
                                          park_predicate done) {
  const std::uint32_t p = rt_.num_workers();
  if (p <= 1) return round_end::miss;
  faultsim::injector* chaos = rt_.chaos();
  if (chaos != nullptr && chaos->maybe_delay(id_)) {
    telemetry::bump(tel_.counters.faults_injected);
  }
  const board& brd = rt_.loop_board();
  const std::uint64_t t0 = tel_.now();
  std::uint64_t probes = 0;
  round_end end = round_end::miss;

  // The round's one accounting path, called once per round: for a hit as
  // the work is acquired (before it runs), for a miss or an early end as
  // the round returns. Every probe made counts in steal_probes.
  const auto settle = [&](round_end how, std::uint32_t v, bool affinity) {
    end = how;
    telemetry::bump(tel_.counters.steal_probes, probes);
    if (probes > 0) tel_.steal_probe_hist.record(probes);
    if (end != round_end::hit) return;
    telemetry::bump(tel_.counters.steal_latency_ns, tel_.now() - t0);
    if (affinity) telemetry::bump(tel_.counters.affinity_hits);
    last_victim_ = v;
  };

  // Probes one victim. Returns true when the round is over: the probe hit
  // (the stolen work has run), or the round ended before probing because a
  // loop was posted since the caller's board visit — better work than any
  // probe — or the caller's wait is over. On a deque hit a batch (up to
  // half the victim's visible tasks) lands in the local deque and the
  // oldest stolen task runs.
  const auto probe = [&](std::uint32_t v, bool affinity) -> bool {
    if (brd.posts() != posts_seen) {
      end = round_end::posted;
      return true;
    }
    if (done.satisfied()) {
      end = round_end::done;
      return true;
    }
    ++probes;
    if (chaos != nullptr && chaos->fire(faultsim::hook::steal_probe, id_)) {
      // Forced empty probe: counts as a miss, the victim keeps its task.
      telemetry::bump(tel_.counters.faults_injected);
      return false;
    }
    // The victim's range slots outrank its deque: stealing half of a live
    // span is one CAS, no allocation, and seeds this worker's own slot
    // (recursive splitting). The open slots are a prefix of the stack, so
    // the probe walks up from the outermost (widest) span and stops at the
    // first closed slot; the common miss is one relaxed load.
    worker& victim = rt_.worker_at(v);
    for (std::uint32_t i = 0; i < kSpanSlots; ++i) {
      range_slot& rs = victim.range(i);
      if (!rs.looks_open()) break;
      if (chaos != nullptr &&
          chaos->fire(faultsim::hook::range_steal, id_)) {
        // Forced failed split CAS: the span stays whole for the owner.
        telemetry::bump(tel_.counters.faults_injected);
      } else if (range_slot::stolen s = rs.try_steal()) {
        settle(round_end::hit, v, affinity);
        telemetry::bump(tel_.counters.range_steals);
        if (tel_.events_on()) {
          tel_.emit({tel_.now(), 0, static_cast<std::int64_t>(v),
                     s.hi - s.lo, telemetry::event_kind::range_steal});
        }
        s.run(*this, s.ctx, s.lo, s.hi);
        return true;
      }
    }
    std::uint32_t k = 0;
    if (task* t = victim.deque().steal_batch(deque_, &k)) {
      settle(round_end::hit, v, affinity);
      telemetry::bump(tel_.counters.steals);
      telemetry::bump(tel_.counters.batch_steal_tasks, k);
      if (tel_.events_on()) {
        tel_.emit({tel_.now(), 0, static_cast<std::int64_t>(v),
                   static_cast<std::int64_t>(probes),
                   telemetry::event_kind::steal});
      }
      advertise_deque();
      // Surplus tasks just landed in this deque; hand one straight to a
      // parked peer (wake that carries work), or chain a plain wake so
      // another idle worker picks them up while this one runs the first.
      if (k > 1 && !donate_surplus_task()) rt_.notify_work();
      run(t);
      return true;
    }
    // Last resort on this victim: poach its handoff mailbox. Normally the
    // deposit's targeted wake delivers it to the addressee, but a stranded
    // deposit (the donor lost its reclaim race, or a chaos-dropped wake)
    // must not outlive the next steal round — this probe is the sweep that
    // guarantees it.
    handoff_item it;
    if (rt_.handoff_of(v).full() && rt_.handoff_of(v).try_take(it)) {
      settle(round_end::hit, v, affinity);
      run_handoff(it);  // re-points last_victim_ at the donor
      return true;
    }
    return false;
  };
  // A hit settled as it happened; anything else settles here.
  const auto finish = [&] {
    if (end != round_end::hit) settle(end, kNoVictim, false);
    return end;
  };

  // Affinity order: last successful victim first, then the board's poster
  // hint (the worker whose range slot holds the open loop's span), then
  // random victims.
  std::uint32_t tried = kNoVictim;
  if (last_victim_ != kNoVictim && last_victim_ != id_ && last_victim_ < p) {
    tried = last_victim_;
    if (probe(last_victim_, true)) return finish();
    last_victim_ = kNoVictim;  // went dry; forget it
  }
  const std::uint32_t hint = brd.poster_hint();
  if (hint != board::kNoPoster && hint != id_ && hint != tried && hint < p) {
    if (probe(hint, true)) return finish();
  }
  // Load-board pick: the most-loaded advertised victim, before rolling the
  // dice. The board is advisory (relaxed stores at the owners' work
  // boundaries), so a hit is counted only when the probe actually lands.
  const std::uint32_t busiest = rt_.loads().busiest(id_);
  if (busiest < p && busiest != tried && busiest != hint) {
    if (probe(busiest, false)) {
      if (end == round_end::hit) {
        telemetry::bump(tel_.counters.load_board_hits);
      }
      return finish();
    }
  }
  // Up to P random victim probes (standard randomized stealing; the round
  // bound keeps the idle loop responsive to board posts).
  for (std::uint32_t attempt = 0; attempt < p; ++attempt) {
    const auto victim =
        static_cast<std::uint32_t>(rng_.next_below(p - 1));
    const std::uint32_t v = victim >= id_ ? victim + 1 : victim;
    if (probe(v, false)) return finish();
  }
  return finish();
}

bool worker::try_progress(park_predicate done) {
  // Mailbox first: a wake that carried work is consumed before any
  // probing, so the push-handoff path really is zero-steal-probe.
  if (try_consume_handoff()) return true;
  if (task* t = pop_local()) {
    run(t);
    return true;
  }
  // Empty pop: refresh the load board so a stale positive from earlier
  // pushes stops attracting probes (pops themselves don't republish — the
  // hot path stays store-free).
  advertise_deque();
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
    backoff_streak_ = 0;
    backoff_level_ = 0;
  }
  if (idle_count < 4) {
    cpu_relax();
  } else if (idle_count < 16) {
    std::this_thread::yield();
  } else {
    if (faultsim::injector* c = rt_.chaos();
        c != nullptr && c->maybe_delay(faultsim::hook::delay_park, id_)) {
      // Injected pre-park preemption (the delay fault class).
      telemetry::bump(tel_.counters.faults_injected);
    }
    const std::uint64_t t0 = tel_.now();
    // Count only parks that actually blocked: idle_park reports
    // blocked == false when it bailed out in the check-then-park re-check
    // (work or the caller's completion predicate became visible, or the
    // runtime is stopping), and those must not inflate the sleep counter
    // or emit zero-length idle spans.
    hb_parked_.store(1, std::memory_order_relaxed);
    const runtime::park_outcome out = rt_.idle_park(*this, done);
    hb_parked_.store(0, std::memory_order_relaxed);
    if (!out.blocked) {
      // A cancelled park means work is visible but this worker keeps
      // failing to acquire it (all iterations claimed by a straggler, or
      // every split CAS lost). Repeated cancellations are the spinning-
      // thief signature the steal backoff damps.
      if (++backoff_streak_ >= kBackoffAfter) backoff_nap(done);
      return;
    }
    backoff_streak_ = 0;
    backoff_level_ = 0;
    telemetry::bump(tel_.counters.idle_sleeps);
    const std::uint64_t dt = tel_.now() - t0;
    telemetry::bump(tel_.counters.idle_sleep_ns, dt);
    const bool notified = out.reason == parking_lot::wake_reason::notified;
    // A targeted wake that finds no visible work means the work was taken
    // before this worker arrived; tracked so wake efficiency is
    // observable. A wake that delivered a completion edge (the caller's
    // predicate now holds) did its job and is not spurious.
    if (notified && !rt_.work_visible(id_) && !done.satisfied()) {
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
    if (tel_.events_on()) {
      tel_.emit({t0, dt, notified ? 1 : 0, 0,
                 telemetry::event_kind::idle_span});
    }
  }
}

void worker::backoff_nap(park_predicate done) {
  // Bounded exponential nap with jitter: 2us << level, jittered to
  // 50-150% so synchronized thieves don't re-collide, capped at the park
  // backstop. The nap goes through runtime::backoff_park (announced
  // waiter, completion-predicate re-check, bounded timeout), so no wake
  // edge is lost — see the model-checked parking-backoff protocol.
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
  hb_parked_.store(1, std::memory_order_relaxed);
  const runtime::park_outcome out =
      rt_.backoff_park(*this, std::chrono::nanoseconds(nap_ns), done);
  hb_parked_.store(0, std::memory_order_relaxed);
  backoff_streak_ = 0;
  if (out.blocked && backoff_level_ < kMaxBackoffLevel) ++backoff_level_;
}

}  // namespace hls::rt
