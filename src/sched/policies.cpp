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
  const telemetry::scoped_span span(tel, telemetry::event_kind::chunk_span, lo,
                                    hi, &tel.chunk_ns_hist);
  // First chunk after a notified unpark closes the wake-to-first-chunk
  // interval. The pending flag is owner-thread-only and almost always
  // clear, so this costs one predictable branch; the clock read happens
  // only on the rare armed path.
  if (tel.wake_pending()) tel.note_chunk_started(tel.now());
  // Drain mode: once a body has thrown or the loop was cancelled / timed
  // out, remaining chunks skip their bodies but are still retired by the
  // caller, so the loop terminates and claim accounting stays consistent.
  const bool skip =
      failed.load(std::memory_order_acquire) || stop_requested(w);
  if (!skip) {
    try {
      // Injected straggler: a body-blocked worker holding claimed work
      // (the delay_chunk fault class; see the stall sweep tests).
      w.fault(faultsim::hook::delay_chunk);
      if (w.fault(faultsim::hook::body_throw, lo, hi)) {
        throw faultsim::injected_fault(w.id(), lo, hi);
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
  // Wake one parked peer and name this worker as the span's owner: its
  // next steal round probes here first (docs/runtime.md "Hinted wakes").
  w.rt().notify_work(1, w.id());
  owner_loop(w, *slot, ctx, lo, floor);
}

// ---------------------------------------------------------------- static

static_record::static_record(loop_ctx& ctx, std::uint32_t num_workers)
    : ctx_(ctx), taken_(num_workers == 0 ? 1 : num_workers) {}

bool static_record::participate(rt::worker& w) {
  const std::uint64_t b = w.id();
  if (b >= taken_.count() || taken_.is_claimed(b) || taken_.test_and_set(b)) {
    return false;
  }
  const core::iter_range rg =
      core::balanced_range(ctx_.begin, ctx_.end, taken_.count(), b);
  ctx_.run_chunk(w, rg.begin, rg.end);
  return true;
}

// ------------------------------------------------- dynamic_shared, guided

bool queue_record::participate(rt::worker& w) {
  bool worked = false;
  std::int64_t held = 0;  // run or swallowed, not yet retired
  // Stay on the queue until it drains or the loop stops, like an OpenMP
  // thread inside a `schedule(dynamic)` region.
  for (;;) {
    if (ctx_.failed.load(std::memory_order_acquire) ||
        ctx_.stop_requested(w)) {
      // Prompt stop: swallow the whole tail at once instead of skipping it
      // chunk by chunk.
      const core::iter_range rest = queue_.take_rest();
      if (!rest.empty()) {
        ctx_.skipped.fetch_add(rest.size(), std::memory_order_relaxed);
        telemetry::bump(w.tel().counters.cancelled_chunks);
        held += rest.size();
      }
      break;
    }
    const core::iter_range rg = queue_.take();
    if (rg.empty()) break;
    ctx_.run_body(w, rg.begin, rg.end);
    held += rg.size();
    worked = true;
  }
  // One retire for the whole visit, after its last chunk: nobody waits on
  // these iterations but the join, which cannot come sooner anyway.
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
  const telemetry::scoped_span span(
      w.tel(), telemetry::event_kind::partition_span,
      static_cast<std::int64_t>(r), 0);
  // doWork (paper Alg. 3 lines 11/17): a stealable parallel loop over the
  // partition, so stragglers inside a partition are balanced by
  // stealing — lazily split via the worker's range slot (thieves CAS off
  // the upper half; nothing is allocated when no thief arrives). The span
  // returns once the owner's unstolen share is done, so the claiming
  // worker finishes it depth-first before the next claim, as continuation
  // stealing would.
  range_span::run(w, &ctx_, rg.begin, rg.end);
}

namespace {

// Claim-flag adapter with a chaos layer in front: a fired claim_fail fault
// reports "already claimed" WITHOUT setting the flag, so the partition
// stays available. This can only delay execution (rescue_sweep restores
// coverage), never duplicate it — execution still requires winning the
// real fetch_or.
struct chaos_claim_flags {
  core::partition_set::flags_adapter inner;
  rt::worker& w;

  bool test_and_set(std::uint64_t r) noexcept {
    return w.fault(faultsim::hook::claim_fail) || inner.test_and_set(r);
  }
};

}  // namespace

bool hybrid_record::rescue_sweep(rt::worker& w) {
  bool worked = false;
  // Word-at-a-time sweep: one claim_block call claims every leftover in a
  // 64-partition block (a single fetch_or, preceded by a load that skips
  // fully-claimed blocks without an RMW), so sweeping a large-R set costs
  // O(R/64) loads instead of O(R) per-partition probes.
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
  w.fault(faultsim::hook::delay);
  // DoHybridLoop steal protocol: a worker arriving at the loop first checks
  // its designated starting partition r = w XOR 0; if that partition is
  // claimed it reverts to ordinary randomized work stealing. When fewer
  // partitions than workers are requested, worker IDs wrap modulo R.
  const std::uint64_t designated =
      core::claim_cursor(w.id(), parts_.count()).target();
  // A fired claim_peek fault reads an unclaimed partition as claimed.
  if (parts_.is_claimed(designated) ||
      w.fault(faultsim::hook::claim_peek)) {
    // Observed-claimed designated partition: the Alg. 3 line 14 exit.
    telemetry::bump(tel.counters.claims_failed);
    tel.instant(telemetry::event_kind::claim_fail,
                static_cast<std::int64_t>(designated), 0);
    // Under claim chaos or an armed rescue the "designated claimed => my
    // subtree is covered" implication no longer holds, so leftovers must
    // be swept here too — otherwise a loop whose every designated
    // partition is claimed could strand a skipped partition forever.
    if (sweep_leftovers && !parts_.all_claimed()) return rescue_sweep(w);
    return false;
  }

  chaos_claim_flags flags{parts_.flags(), w};
  const core::claim_stats st = core::run_claim_loop(
      w.id(), parts_.count(), flags,
      [&](std::uint64_t r, std::uint64_t /*index*/) {
        execute_partition(w, r);
      },
      [&](std::uint64_t r, std::uint64_t index, bool ok) {
        tel.instant(ok ? telemetry::event_kind::claim_ok
                       : telemetry::event_kind::claim_fail,
                    static_cast<std::int64_t>(r),
                    static_cast<std::int64_t>(index));
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
