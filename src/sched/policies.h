// Internal policy implementations behind parallel_for.
//
// Each work-sharing policy is a loop_record posted on the runtime's board;
// dynamic_ws posts nothing and runs as a range_span in the caller's slot.
// Exposed in a header (rather than an anonymous namespace) so the tests
// can exercise records directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>

#include "core/chunk_queue.h"
#include "core/partition_set.h"
#include "runtime/board.h"
#include "sched/loop.h"
#include "util/cacheline.h"

namespace hls::sched {

// Split target of a range span: a span splits its loop's iterations down
// to pieces of about this much work. Several times the ~0.6 us a steal
// costs on a 4-vCPU x86 guest, so a split piece pays for its migration,
// yet small enough that a heavy tail no longer runs as one grain while
// the other workers nap. 2 us and 8 us measured the same on the unbalanced
// micro kernel. loop_ctx::run_body_measured applies it.
inline constexpr std::uint64_t kSplitTargetNs = 4000;

// State shared by every chunk of one parallel loop. It lives in the
// posting worker's parallel_for frame, as does the policy record, and
// everything else refers to it by plain pointer: each holder either holds
// unretired iterations (an open span, a stolen range, a handoff payload),
// so the loop cannot join and the frame cannot return, or is a board
// visitor, which board::clear drains before parallel_for returns
// (docs/runtime.md "Loop lifetime").
struct loop_ctx {
  // Why this loop stopped handing out bodies (maps onto loop_status).
  enum : std::uint8_t { kRunning = 0, kCancelled = 1, kDeadline = 2 };

  loop_ctx(std::int64_t b, std::int64_t e, chunk_body body_,
           std::int64_t grain_, trace::loop_trace* trace_)
      : begin(b), end(e), body(body_), grain(grain_), trace(trace_),
        remaining(e - b), split_floor_(grain_) {}

  const std::int64_t begin;
  const std::int64_t end;
  const chunk_body body;
  const std::int64_t grain;
  trace::loop_trace* const trace;

  // The smallest piece a range span of this loop hands out: the owner's
  // reserve minimum and chunk size, half the steal threshold, and the
  // run-whole cutoff of a stolen range. Starts at `grain` and only ever
  // drops, when a span's first chunk measures a grain slower than
  // kSplitTargetNs. A size with no ordering role, so relaxed.
  std::int64_t split_floor() const noexcept {
    return split_floor_.load(std::memory_order_relaxed);
  }

  // Runs one chunk like run_body, timed by one clock-read pair. When it
  // took longer than kSplitTargetNs, lowers the split floor (a CAS-min) to
  // the iterations that fit the target, at least one. A span calls it for
  // its first chunk only.
  void run_body_measured(rt::worker& w, std::int64_t lo, std::int64_t hi);

  alignas(kCacheLine) std::atomic<std::int64_t> remaining;

  // First exception thrown by any chunk body. Later chunks are skipped
  // (their iterations still retire, so the loop completes and the posting
  // worker can rethrow).
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  // Cancellation/deadline state, set by parallel_for before the loop is
  // published. `cancel` borrows loop_options::cancel's flag (the options
  // outlive the blocking call); deadline_at_ns is an absolute
  // telemetry::steady_now_ns instant, 0 for none.
  const std::atomic<bool>* cancel = nullptr;
  std::uint64_t deadline_at_ns = 0;
  std::atomic<std::uint8_t> stop{kRunning};
  alignas(kCacheLine) std::atomic<std::int64_t> skipped{0};

  bool finished() const noexcept {
    return remaining.load(std::memory_order_acquire) <= 0;
  }

  // Polls cancellation and the deadline; latches the first observed stop
  // reason. Called once per chunk (w pays for the deadline's clock read
  // only when a deadline is set and bumps deadline_expirations on the
  // latching transition).
  bool stop_requested(rt::worker& w) noexcept;

  // Rethrows the first captured body exception, if any. Called by the
  // posting worker after the loop completes.
  void rethrow_if_failed();

  // Runs body on [lo, hi) on worker w — unless the loop has failed or
  // stopped, in which case the body is skipped — and records the trace and
  // chunk telemetry. It does not retire: the caller owes retire() for the
  // iterations, once per span, range or queue visit rather than per chunk,
  // so the shared `remaining` line takes one RMW per unit of work a worker
  // holds instead of one per chunk.
  void run_body(rt::worker& w, std::int64_t lo, std::int64_t hi);

  // One chunk run and retired on its own.
  void run_chunk(rt::worker& w, std::int64_t lo, std::int64_t hi) {
    run_body(w, lo, hi);
    if (lo < hi) retire(w, hi - lo);
  }

  // Runs [lo, hi) on w in grain-sized chunks and retires it once. Reads
  // nothing of the loop after that retire.
  void run_range(rt::worker& w, std::int64_t lo, std::int64_t hi);

  // Retires n > 0 iterations. The retire is the last touch of the loop:
  // once remaining hits 0 the posting thread may return, and the context,
  // the record and the body callable die with its frame. The call that
  // drops `remaining` to zero wakes every parked worker: the posting worker
  // may be parked inside work_until waiting on finished(), and that
  // predicate flip has no other tracked wake edge — without this broadcast
  // it would only notice at the park backstop.
  void retire(rt::worker& w, std::int64_t n) noexcept;

 private:
  // Latches `reason` if still running; returns true for the latching call.
  bool latch_stop(std::uint8_t reason) noexcept {
    std::uint8_t expect = kRunning;
    return stop.compare_exchange_strong(expect, reason,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire);
  }

  // Read on every span open and refill, written a few times per loop at
  // most; it shares `skipped`'s line, which only a stopping loop writes.
  std::atomic<std::int64_t> split_floor_;
};

// Lazy steal-driven range splitting: how dynamic_ws and hybrid partitions
// run a span, nested loops included. The owner publishes the span in the
// next free slot of its worker's slot stack (runtime/range_slot.h) and
// consumes it in chunks of the loop's split floor with zero allocations
// and one retire for the whole span; thieves split off the upper half via
// the slot's CAS and seed their own slots recursively, so the
// divide-and-conquer span bound is preserved while the no-steal fast path
// costs one shared-word CAS per refill. The slot's one-word protocol
// counts a span of 2^32 - 1 iterations or more in units of 2^shift
// iterations, so full 64-bit spans open directly. The floor starts at the
// grain; each span times its first chunk, and a grain slower than
// kSplitTargetNs lowers it for the whole loop, so a heavy tail splits
// below the grain. The one fallback is a full stack (spans nested
// rt::worker::kSpanSlots deep): the span then runs as bounded serial
// chunks.
class range_span {
 public:
  static void run(rt::worker& w, loop_ctx* ctx, std::int64_t lo,
                  std::int64_t hi);

 private:
  // range_slot::span_runner thunk: executes a stolen range on the thief.
  // The stolen iterations are unretired, so the loop cannot join — and ctx
  // cannot die — before the thief retires them.
  static void run_stolen(rt::worker& w, void* ctx, std::int64_t lo,
                         std::int64_t hi);

  // Owner reserve/execute loop over the span's slot (the innermost open
  // one), opened at split floor `floor`; then close, counter rollup, and
  // the span's one retire.
  static void owner_loop(rt::worker& w, rt::range_slot& slot, loop_ctx* ctx,
                         std::int64_t lo, std::int64_t floor);
};

// Strict static partitioning: block k is executed serially by worker k and
// nobody else (omp static semantics).
class static_record final : public rt::loop_record {
 public:
  static_record(loop_ctx& ctx, std::uint32_t num_workers);
  bool participate(rt::worker& w) override;
  bool finished() const noexcept override { return ctx_.finished(); }

 private:
  loop_ctx& ctx_;
  std::uint32_t blocks_;
  std::unique_ptr<padded<std::atomic<std::uint8_t>>[]> taken_;
};

// Central queue (omp dynamic and guided semantics): an arriving worker
// takes chunks off a core::chunk_queue until it drains, and retires what
// it ran once, when it leaves the queue.
class queue_record final : public rt::loop_record {
 public:
  // chunk > 0: fixed chunks; chunk == 0: guided chunks of
  // max(min_chunk, remaining / (2 P)).
  queue_record(loop_ctx& ctx, std::int64_t chunk, std::int64_t min_chunk,
               std::uint32_t num_workers)
      : ctx_(ctx), queue_(ctx.begin, ctx.end, chunk, min_chunk, num_workers) {}
  bool participate(rt::worker& w) override;
  bool finished() const noexcept override { return ctx_.finished(); }

 private:
  loop_ctx& ctx_;
  core::chunk_queue queue_;
};

// The hybrid loop (paper Section III). participate() implements the
// DoHybridLoop steal protocol: check the arriving worker's designated
// partition; if unclaimed, run the claim loop under the worker's own ID,
// executing each claimed partition as a stealable divide-and-conquer span.
class hybrid_record final : public rt::loop_record {
 public:
  hybrid_record(loop_ctx& ctx, std::uint32_t partitions);

  // Weighted initial partitioning (loop_options::iteration_weight).
  hybrid_record(loop_ctx& ctx, std::uint32_t partitions,
                const std::function<double(std::int64_t)>& weight);
  bool participate(rt::worker& w) override;
  bool finished() const noexcept override { return ctx_.finished(); }

  // Watchdog escalation (board::request_rescue): latches the rescue sweep
  // on so every subsequent participate() linearly try_claims leftover
  // partitions instead of trusting the "designated claimed => subtree
  // covered" implication — a stalled owner's earmarked partitions become
  // claimable by any helper immediately. Idempotent, callable from any
  // thread, and exactly-once-safe: rescue only ever wins real claim flags.
  void request_rescue() noexcept override {
    rescue_armed_.store(true, std::memory_order_release);
  }
  bool rescue_armed() const noexcept {
    return rescue_armed_.load(std::memory_order_acquire);
  }

  const core::partition_set& partitions() const noexcept { return parts_; }
  // Mutable access so deterministic tests can pre-claim a "straggler's"
  // partition before arming a rescue.
  core::partition_set& partitions() noexcept { return parts_; }

 private:
  void execute_partition(rt::worker& w, std::uint64_t r);

  // Coverage restoration: forced claim failures (faultsim) can leave
  // partitions unclaimed after every claim loop has exited, which the
  // real protocol's "failure implies claimed" invariant rules out; a
  // watchdog rescue (request_rescue) deliberately asks for the same
  // sweep to strip a stalled owner of its unclaimed earmarks. The sweep
  // linearly try_claims leftovers so faults and stalls delay execution
  // but can never lose a partition. Returns true if it ran any.
  bool rescue_sweep(rt::worker& w);

  loop_ctx& ctx_;
  core::partition_set parts_;
  std::atomic<bool> rescue_armed_{false};
};

}  // namespace hls::sched
