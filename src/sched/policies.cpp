#include "sched/policies.h"

#include <algorithm>
#include <bit>

#include "core/claim.h"
#include "faultsim/faultsim.h"
#include "runtime/runtime.h"
#include "runtime/worker.h"
#include "trace/loop_trace.h"

namespace hls::sched {

bool loop_ctx::stop_requested(rt::worker& w) noexcept {
  if (stop.load(std::memory_order_relaxed) != kRunning) return true;
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    latch_stop(kCancelled);
    return true;
  }
  if (deadline_at_ns != 0 &&
      telemetry::steady_now_ns() >= deadline_at_ns) {
    if (latch_stop(kDeadline)) {
      telemetry::bump(w.tel().counters.deadline_expirations);
    }
    return true;
  }
  return false;
}

void loop_ctx::run_body(rt::worker& w, std::int64_t lo, std::int64_t hi) {
  if (lo >= hi) return;
  // Heartbeat at the chunk boundary (runtime/health.h): a worker stuck
  // inside one body stops beating and becomes visible to the watchdog.
  w.beat();
  telemetry::worker_state& tel = w.tel();
  // Chunk timing needs two clock reads, so it only runs in event-tracing
  // mode; the always-on path is pure relaxed counter stores.
  const bool timed = tel.events_on();
  const std::uint64_t t0 = timed ? tel.now() : 0;
  // First chunk after a notified unpark closes the wake-to-first-chunk
  // interval. The pending flag is owner-thread-only and almost always
  // clear, so this costs one predictable branch; the clock read happens
  // only on the rare armed path (or reuses t0 when tracing already read it).
  if (tel.wake_pending()) tel.note_chunk_started(timed ? t0 : tel.now());
  // Drain mode: once a body has thrown or the loop was cancelled / timed
  // out, remaining chunks skip their bodies but are still retired by the
  // caller, so the loop terminates and claim accounting stays consistent.
  const bool skip =
      failed.load(std::memory_order_acquire) || stop_requested(w);
  if (!skip) {
    try {
      if (faultsim::injector* c = w.rt().chaos(); c != nullptr) {
        // Injected straggler: a body-blocked worker holding claimed work
        // (the delay_chunk fault class; see the stall sweep tests).
        if (c->maybe_delay(faultsim::hook::delay_chunk, w.id())) {
          telemetry::bump(tel.counters.faults_injected);
        }
        if (c->should_throw(w.id(), lo, hi)) {
          telemetry::bump(tel.counters.faults_injected);
          throw faultsim::injected_fault(w.id(), lo, hi);
        }
      }
      body(lo, hi);
      if (trace != nullptr) trace->record(w.id(), lo, hi);
    } catch (...) {
      telemetry::bump(tel.counters.exceptions_caught);
      std::lock_guard<std::mutex> lk(error_mu);
      if (!failed.load(std::memory_order_relaxed)) {
        first_error = std::current_exception();
        failed.store(true, std::memory_order_release);
      }
    }
  } else {
    skipped.fetch_add(hi - lo, std::memory_order_relaxed);
    telemetry::bump(tel.counters.cancelled_chunks);
  }
  telemetry::bump(tel.counters.chunks_run);
  if (timed) {
    const std::uint64_t dt = tel.now() - t0;
    tel.chunk_ns_hist.record(dt);
    tel.emit({t0, dt, lo, hi, telemetry::event_kind::chunk_span});
  }
}

void loop_ctx::run_body_measured(rt::worker& w, std::int64_t lo,
                                 std::int64_t hi) {
  const std::uint64_t t0 = telemetry::steady_now_ns();
  run_body(w, lo, hi);
  const std::uint64_t dt = telemetry::steady_now_ns() - t0;
  if (dt <= kSplitTargetNs) return;
  // dt > target, so the fit is below hi - lo; computed in double because
  // (hi - lo) * target can overflow for a huge explicit grain.
  const auto fit = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(static_cast<double>(hi - lo) *
                                   static_cast<double>(kSplitTargetNs) /
                                   static_cast<double>(dt)));
  std::int64_t cur = split_floor_.load(std::memory_order_relaxed);
  while (fit < cur && !split_floor_.compare_exchange_weak(
                          cur, fit, std::memory_order_relaxed,
                          std::memory_order_relaxed)) {
  }
}

void loop_ctx::run_range(rt::worker& w, std::int64_t lo, std::int64_t hi) {
  if (lo >= hi) return;
  for (std::int64_t cur = lo; cur < hi; cur += grain) {
    run_body(w, cur, std::min(cur + grain, hi));
  }
  // Even on failure/skip, so the loop terminates.
  retire(w, hi - lo);
}

void loop_ctx::retire(rt::worker& w, std::int64_t n) noexcept {
  if (remaining.fetch_sub(n, std::memory_order_acq_rel) - n <= 0) {
    // Completion edge: wake everyone, because the worker that cares (one
    // parked in work_until on finished()) cannot be identified here.
    w.rt().notify_all();
  }
}

void loop_ctx::rethrow_if_failed() {
  if (failed.load(std::memory_order_acquire)) {
    std::rethrow_exception(first_error);
  }
}

// ------------------------------------------------------------ range_span

void range_span::owner_loop(rt::worker& w, rt::range_slot& slot,
                            loop_ctx* ctx, std::int64_t lo,
                            std::int64_t floor) {
  std::uint64_t refills = 0;
  std::int64_t cur = lo;
  // The span's first chunk is timed; a floor of 1 cannot drop further.
  bool measure = floor > 1;
  for (;;) {
    // One RMW reserves the next max(floor, remaining/8) iterations; the
    // chunks inside a reservation then run with no shared-word traffic at
    // all (cancellation/deadline/drain still poll per chunk in run_body).
    const std::int64_t res = slot.reserve(cur);
    if (res <= cur) break;  // thieves consumed everything above cur
    ++refills;
    if (measure) {
      const std::int64_t end = std::min(cur + floor, res);
      ctx->run_body_measured(w, cur, end);
      cur = end;
      measure = false;
    }
    while (cur < res) {
      const std::int64_t end = std::min(cur + floor, res);
      ctx->run_body(w, cur, end);
      cur = end;
    }
    // Follow the loop's floor down, lowered by this span's first chunk or
    // by any other span of the loop: smaller chunks and reservations here,
    // and a lower steal threshold for thieves.
    if (const std::int64_t f = ctx->split_floor(); f < floor) {
      floor = f;
      slot.set_grain(f);
    }
  }
  // Nothing above can throw (run_body captures body exceptions), so the
  // slot is always closed — and drained — before the span retires and the
  // loop may join. The final reserve() only fails once the stealable
  // region is empty, so no thief can split the span after that. Spans the
  // chunk bodies opened have all closed again, so `slot` is the innermost.
  const bool split = w.close_span();
  telemetry::worker_state& tel = w.tel();
  telemetry::bump(tel.counters.range_splits, refills);
  if (!split) telemetry::bump(tel.counters.spans_unsplit);
  // One retire for everything the owner ran. Thieves retire what they took
  // themselves; when they took it all the owner holds nothing, and must
  // not touch ctx, which may already be gone.
  if (cur > lo) ctx->retire(w, cur - lo);
}

void range_span::run_stolen(rt::worker& w, void* ctx, std::int64_t lo,
                            std::int64_t hi) {
  run(w, static_cast<loop_ctx*>(ctx), lo, hi);
}

void range_span::run(rt::worker& w, loop_ctx* ctx, std::int64_t lo,
                     std::int64_t hi) {
  if (lo >= hi) return;
  const std::int64_t floor = ctx->split_floor();
  if (hi - lo <= floor) {
    ctx->run_chunk(w, lo, hi);
    return;
  }
  // The span takes the next free slot, whether it is a loop's top level, a
  // loop nested in a chunk body, or a stolen range (recursive splitting: a
  // stolen range always fits kMaxSpan, having been carved from a span).
  rt::range_slot* slot =
      w.open_span(ctx, &range_span::run_stolen, lo, hi, floor);
  if (slot == nullptr) {
    // Every slot is open: spans are nested kSpanSlots deep on this worker
    // (or, beyond any real loop, the span exceeds kMaxSpan). Run the range
    // as serial chunks; exactly-once holds either way.
    telemetry::bump(w.tel().counters.alloc_fallbacks);
    ctx->run_range(w, lo, hi);
    return;
  }
  // With a parked peer, the wake itself carries the span's upper half
  // (donate-on-open, docs/runtime.md "Push-based handoff"); otherwise fall
  // back to the bare targeted wake and let the woken worker probe.
  if (!w.donate_range()) w.rt().notify_work();
  owner_loop(w, *slot, ctx, lo, floor);
}

// ---------------------------------------------------------------- static

static_record::static_record(loop_ctx& ctx, std::uint32_t num_workers)
    : ctx_(ctx),
      blocks_(num_workers == 0 ? 1 : num_workers),
      taken_(new padded<std::atomic<std::uint8_t>>[blocks_]) {
  for (std::uint32_t b = 0; b < blocks_; ++b) {
    taken_[b].value.store(0, std::memory_order_relaxed);
  }
}

bool static_record::participate(rt::worker& w) {
  const std::uint32_t b = w.id();
  if (b >= blocks_) return false;
  if (taken_[b].value.exchange(1, std::memory_order_acq_rel) != 0) {
    return false;
  }
  // Balanced block split, identical to the hybrid partitioning arithmetic.
  const std::int64_t n = ctx_.end - ctx_.begin;
  const std::int64_t base = n / blocks_;
  const std::int64_t rem = n % blocks_;
  const std::int64_t extra = std::min<std::int64_t>(b, rem);
  const std::int64_t lo = ctx_.begin + static_cast<std::int64_t>(b) * base + extra;
  // The comparison must stay in int64: casting rem to uint32 truncates for
  // N > 2^32 and mis-sizes the boundary blocks (the N = 2^32 + 3 case in
  // huge_n_test.cpp).
  const std::int64_t hi =
      lo + base + (static_cast<std::int64_t>(b) < rem ? 1 : 0);
  ctx_.run_chunk(w, lo, hi);
  return true;
}

// --------------------------------------------------------- dynamic_shared

shared_queue_record::shared_queue_record(loop_ctx& ctx, std::int64_t chunk)
    : ctx_(ctx), chunk_(chunk < 1 ? 1 : chunk), next_(ctx_.begin) {}

namespace {

// Prompt stop for the central queues: on cancellation/deadline/failure,
// swallow the whole tail in one exchange instead of skipping chunk by
// chunk. The tail [lo, end) is disjoint from every chunk claimed before
// the exchange, and later claimants observe lo >= end and leave, so each
// iteration still retires exactly once. Returns the iterations swallowed,
// which the caller retires with the rest of its visit.
std::int64_t swallow_tail(rt::worker& w, loop_ctx& ctx,
                          std::atomic<std::int64_t>& next) {
  const std::int64_t lo = next.exchange(ctx.end, std::memory_order_acq_rel);
  if (lo >= ctx.end) return 0;
  ctx.skipped.fetch_add(ctx.end - lo, std::memory_order_relaxed);
  telemetry::bump(w.tel().counters.cancelled_chunks);
  return ctx.end - lo;
}

}  // namespace

bool shared_queue_record::participate(rt::worker& w) {
  bool worked = false;
  std::int64_t held = 0;  // run or swallowed, not yet retired
  // Stay on the queue until it drains, like an OpenMP thread inside a
  // `schedule(dynamic)` region. The fetch_add result alone decides when
  // to leave: the old loop condition re-read next_ with a relaxed load,
  // a racy pre-check that could only disagree with the claiming fetch_add
  // below and added nothing the claim does not already validate.
  for (;;) {
    if (ctx_.failed.load(std::memory_order_acquire) ||
        ctx_.stop_requested(w)) {
      held += swallow_tail(w, ctx_, next_);
      break;
    }
    const std::int64_t lo = next_.fetch_add(chunk_, std::memory_order_acq_rel);
    if (lo >= ctx_.end) break;
    const std::int64_t hi = std::min(lo + chunk_, ctx_.end);
    ctx_.run_body(w, lo, hi);
    held += hi - lo;
    worked = true;
  }
  // One retire for the whole visit, after its last chunk: nobody waits on
  // these iterations but the join, which cannot come sooner anyway.
  if (held > 0) ctx_.retire(w, held);
  return worked;
}

// ----------------------------------------------------------------- guided

guided_record::guided_record(loop_ctx& ctx, std::int64_t min_chunk,
                             std::uint32_t num_workers)
    : ctx_(ctx),
      min_chunk_(min_chunk < 1 ? 1 : min_chunk),
      p_(num_workers == 0 ? 1 : num_workers),
      next_(ctx_.begin) {}

bool guided_record::participate(rt::worker& w) {
  bool worked = false;
  std::int64_t held = 0;  // run or swallowed, not yet retired
  for (;;) {
    if (ctx_.failed.load(std::memory_order_acquire) ||
        ctx_.stop_requested(w)) {
      held += swallow_tail(w, ctx_, next_);
      break;
    }
    std::int64_t lo = next_.load(std::memory_order_acquire);
    std::int64_t hi = lo;
    do {
      if (lo >= ctx_.end) break;
      const std::int64_t rem = ctx_.end - lo;
      const std::int64_t sz =
          std::max(min_chunk_, rem / (2 * static_cast<std::int64_t>(p_)));
      hi = std::min(lo + sz, ctx_.end);
    } while (!next_.compare_exchange_weak(lo, hi, std::memory_order_acq_rel,
                                          std::memory_order_acquire));
    if (lo >= ctx_.end) break;
    ctx_.run_body(w, lo, hi);
    held += hi - lo;
    worked = true;
  }
  // Same single retire per visit as shared_queue_record.
  if (held > 0) ctx_.retire(w, held);
  return worked;
}

// ----------------------------------------------------------------- hybrid

hybrid_record::hybrid_record(loop_ctx& ctx, std::uint32_t partitions)
    : ctx_(ctx), parts_(ctx_.begin, ctx_.end, partitions) {}

hybrid_record::hybrid_record(loop_ctx& ctx, std::uint32_t partitions,
                             const std::function<double(std::int64_t)>& weight)
    : ctx_(ctx), parts_(ctx_.begin, ctx_.end, partitions, weight) {}

void hybrid_record::execute_partition(rt::worker& w, std::uint64_t r) {
  const core::iter_range rg = parts_.range(r);
  if (rg.empty()) return;
  telemetry::worker_state& tel = w.tel();
  const bool timed = tel.events_on();
  const std::uint64_t t0 = timed ? tel.now() : 0;
  // doWork (paper Alg. 3 lines 11/17): a stealable parallel loop over the
  // partition, so stragglers inside a partition are balanced by
  // stealing — lazily split via the worker's range slot (thieves CAS off
  // the upper half; nothing is allocated when no thief arrives). The span
  // returns once the owner's unstolen share is done, so the claiming
  // worker finishes it depth-first before the next claim, as continuation
  // stealing would.
  range_span::run(w, &ctx_, rg.begin, rg.end);
  if (timed) {
    tel.emit({t0, tel.now() - t0, static_cast<std::int64_t>(r), 0,
              telemetry::event_kind::partition_span});
  }
}

namespace {

// Claim-flag adapter with a chaos layer in front: a fired claim_fail fault
// reports "already claimed" WITHOUT setting the flag, so the partition
// stays available. This can only delay execution (rescue_sweep restores
// coverage), never duplicate it — execution still requires winning the
// real fetch_or.
struct chaos_claim_flags {
  core::partition_set::flags_adapter inner;
  faultsim::injector* chaos;
  std::uint32_t worker;
  telemetry::worker_state* tel;

  bool test_and_set(std::uint64_t r) noexcept {
    if (chaos != nullptr &&
        chaos->fire(faultsim::hook::claim_fail, worker)) {
      telemetry::bump(tel->counters.faults_injected);
      return true;
    }
    return inner.test_and_set(r);
  }
};

}  // namespace

bool hybrid_record::rescue_sweep(rt::worker& w) {
  bool worked = false;
  // Word-at-a-time sweep: one claim_block call claims every leftover in a
  // 64-partition block (a single fetch_or in bitmap mode, preceded by a
  // load that skips fully-claimed blocks without an RMW), so sweeping a
  // large-R set costs O(R/64) loads instead of O(R) per-partition probes.
  // Each won bit is an individual test_and_set transition, so exactly-once
  // (Theorem 3) is untouched.
  for (std::uint64_t b = 0; b < parts_.block_count(); ++b) {
    for (std::uint64_t won = parts_.claim_block(b); won != 0;
         won &= won - 1) {
      const std::uint64_t r =
          (b << 6) + static_cast<std::uint64_t>(std::countr_zero(won));
      telemetry::bump(w.tel().counters.claims_ok);
      // Every sweep-claimed partition was some owner's earmark that the
      // owner never reached — whether lost to an injected claim fault or
      // released early by a watchdog rescue.
      telemetry::bump(w.tel().counters.earmarks_rescued);
      execute_partition(w, r);
      worked = true;
    }
  }
  return worked;
}

bool hybrid_record::participate(rt::worker& w) {
  telemetry::worker_state& tel = w.tel();
  faultsim::injector* chaos = w.rt().chaos();
  // Sweep triggers: injected claim faults break the "failure implies
  // claimed" invariant for the whole run; a watchdog rescue breaks it on
  // demand (a stalled owner's earmarks must not wait for the owner).
  const bool sweep_leftovers =
      (chaos != nullptr && chaos->cfg().claims_active()) ||
      rescue_armed_.load(std::memory_order_acquire);
  if (chaos != nullptr && chaos->maybe_delay(w.id())) {
    telemetry::bump(tel.counters.faults_injected);
  }
  // DoHybridLoop steal protocol: a worker arriving at the loop first checks
  // its designated starting partition r = w XOR 0; if that partition is
  // claimed it reverts to ordinary randomized work stealing. When fewer
  // partitions than workers are requested, worker IDs wrap modulo R.
  const std::uint32_t weff =
      w.id() & static_cast<std::uint32_t>(parts_.count() - 1);
  bool observed_claimed = parts_.is_claimed(core::claim_target(0, weff));
  if (!observed_claimed && chaos != nullptr &&
      chaos->fire(faultsim::hook::claim_peek, w.id())) {
    telemetry::bump(tel.counters.faults_injected);
    observed_claimed = true;
  }
  if (observed_claimed) {
    // Observed-claimed designated partition: the Alg. 3 line 14 exit.
    telemetry::bump(tel.counters.claims_failed);
    if (tel.events_on()) {
      tel.emit({tel.now(), 0,
                static_cast<std::int64_t>(core::claim_target(0, weff)), 0,
                telemetry::event_kind::claim_fail});
    }
    // Under claim chaos or an armed rescue the "designated claimed => my
    // subtree is covered" implication no longer holds, so leftovers must
    // be swept here too — otherwise a loop whose every designated
    // partition is claimed could strand a skipped partition forever.
    if (sweep_leftovers && !parts_.all_claimed()) return rescue_sweep(w);
    return false;
  }

  auto inner = parts_.flags();
  chaos_claim_flags flags{inner, chaos, w.id(), &tel};
  const bool traced = tel.events_on();
  const core::claim_stats st = core::run_claim_loop(
      weff, parts_.count(), flags,
      [&](std::uint64_t r, std::uint64_t /*index*/) {
        execute_partition(w, r);
      },
      [&](std::uint64_t r, std::uint64_t index, bool ok) {
        if (traced) {
          tel.emit({tel.now(), 0, static_cast<std::int64_t>(r),
                    static_cast<std::int64_t>(index),
                    ok ? telemetry::event_kind::claim_ok
                       : telemetry::event_kind::claim_fail});
        }
      });
  // Counter rollup + live Lemma 4 check on the completed claim sequence.
  // Injected failures count as failures here on purpose: the lg R + 1
  // consecutive-failure bound is structural (each failure strictly raises
  // lsb(i)), so it must hold no matter why a claim failed — which is
  // exactly what the chaos suites assert.
  tel.note_claim_sequence(st.successes, st.failures, st.max_consec_failures,
                          parts_.count());
  bool worked = st.successes > 0;
  if (sweep_leftovers && !parts_.all_claimed()) {
    worked = rescue_sweep(w) || worked;
  }
  return worked;
}

}  // namespace hls::sched
