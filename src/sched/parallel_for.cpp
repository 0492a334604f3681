#include "sched/loop.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>

#include "faultsim/faultsim.h"
#include "sched/policies.h"
#include "telemetry/profiler.h"
#include "telemetry/registry.h"
#include "trace/loop_trace.h"
#include "util/bits.h"

namespace hls {

namespace {

// Records one loop span on the posting worker (emitted from the
// destructor so every exit path, including exception rethrow, is
// covered). Inactive unless event tracing is on.
class loop_span_guard {
 public:
  loop_span_guard(rt::runtime& rt, rt::worker& me, policy pol,
                  const loop_options& opt, std::int64_t n)
      : tel_(me.tel()), active_(tel_.events_on()), n_(n) {
    if (!active_) return;
    label_id_ = rt.tel().intern_label(
        opt.site != nullptr && opt.site->name != nullptr ? opt.site->name
                                                         : policy_name(pol));
    t0_ = tel_.now();
  }

  ~loop_span_guard() {
    if (!active_) return;
    tel_.emit({t0_, tel_.now() - t0_, label_id_, n_,
               telemetry::event_kind::loop_span});
  }

 private:
  telemetry::worker_state& tel_;
  const bool active_;
  std::int64_t label_id_ = 0;
  std::int64_t n_;
  std::uint64_t t0_ = 0;
};

void validate_options(const loop_options& opt) {
  if (opt.grain < 0) {
    throw std::invalid_argument("hls: loop_options::grain must be >= 0 (got " +
                                std::to_string(opt.grain) + ")");
  }
  if (opt.chunk < 0) {
    throw std::invalid_argument("hls: loop_options::chunk must be >= 0 (got " +
                                std::to_string(opt.chunk) + ")");
  }
  if (opt.min_chunk < 1) {
    throw std::invalid_argument(
        "hls: loop_options::min_chunk must be >= 1 (got " +
        std::to_string(opt.min_chunk) + ")");
  }
  if (opt.partitions > kMaxLoopPartitions) {
    throw std::invalid_argument(
        "hls: loop_options::partitions " + std::to_string(opt.partitions) +
        " exceeds the maximum of " + std::to_string(kMaxLoopPartitions) +
        " (did a negative value get cast to unsigned?)");
  }
}

// Foreign-thread fallback: chunked serial execution honoring cancellation
// and the deadline. No worker context, so no telemetry; body exceptions
// propagate directly to the caller (nothing is in flight to drain).
loop_result run_serial_foreign(std::int64_t begin, std::int64_t end,
                               chunk_body body, const loop_options& opt,
                               std::int64_t grain) {
  const std::atomic<bool>* cancel = opt.cancel.flag();
  const std::uint64_t deadline_at =
      opt.deadline.count() > 0
          ? telemetry::steady_now_ns() +
                static_cast<std::uint64_t>(opt.deadline.count())
          : 0;
  loop_result res;
  for (std::int64_t lo = begin; lo < end; lo += grain) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      res.status = loop_status::cancelled;
      res.skipped = end - lo;
      return res;
    }
    if (deadline_at != 0 && telemetry::steady_now_ns() >= deadline_at) {
      res.status = loop_status::deadline_expired;
      res.skipped = end - lo;
      return res;
    }
    const std::int64_t hi = std::min(end, lo + grain);
    body(lo, hi);
    // Foreign chunks go to the trace's dedicated foreign lane — recording
    // them as worker 0 would collide with the real worker 0 in merged
    // traces (and race its unlocked per-worker buffer).
    if (opt.trace != nullptr) {
      opt.trace->record(trace::loop_trace::kForeignLane, lo, hi);
    }
  }
  return res;
}

void warn_foreign_thread_once() {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_acq_rel)) {
    std::fprintf(stderr,
                 "hls: parallel_for called from a thread not bound to the "
                 "runtime; degrading to serial execution on the calling "
                 "thread (this warning prints once)\n");
  }
}

}  // namespace

loop_result parallel_for(rt::runtime& rt, std::int64_t begin, std::int64_t end,
                         policy pol, chunk_body body, const loop_options& opt) {
  validate_options(opt);
  if (end <= begin) return {};
  const std::int64_t n = end - begin;
  const std::uint32_t p = rt.num_workers();
  const std::int64_t grain =
      opt.grain > 0 ? opt.grain : default_grain(n, p);

  // Profiling is one relaxed pointer load when off; the probe is inert
  // (every method an early-out branch) unless a loop_profiler is installed.
  telemetry::invocation_probe probe(rt.tel(), rt.tel().profiler());

  rt::worker* me_ptr = rt::current_worker_or_null();
  if (me_ptr == nullptr || &me_ptr->rt() != &rt) {
    // A foreign thread has no deque, no board access, and no telemetry
    // lane; running the loop serially on it is the only sound option. The
    // profiler still sees it (degrade_reason::foreign_thread) so degraded
    // invocations show up in per-site profiles instead of vanishing.
    warn_foreign_thread_once();
    probe.setup_done();
    const loop_result res = run_serial_foreign(begin, end, body, opt, grain);
    probe.work_done();
    probe.commit(opt.site, pol, 0, grain, n,
                 static_cast<std::uint8_t>(res.status), res.skipped,
                 telemetry::degrade_reason::foreign_thread);
    return res;
  }
  rt::worker& me = *me_ptr;

  telemetry::bump(me.tel().counters.loops_posted);
  loop_span_guard span(rt, me, pol, opt, n);

  const std::atomic<bool>* cancel_flag = opt.cancel.flag();
  const bool stop_hazards =
      cancel_flag != nullptr || opt.deadline.count() > 0;

  if (pol == policy::serial && !stop_hazards) {
    probe.setup_done();
    body(begin, end);
    probe.work_done();
    if (opt.trace != nullptr) opt.trace->record(me.id(), begin, end);
    probe.commit(opt.site, pol, 0, grain, n, 0, 0,
                 telemetry::degrade_reason::none);
    return {};
  }

  // The loop's state lives in this frame (sched/policies.h, loop_ctx):
  // nothing below returns before the loop has joined and its board slot
  // is cleared, so every pointer peers hold to it dies unused.
  sched::loop_ctx ctx(begin, end, body, grain, opt.trace);
  ctx.cancel = cancel_flag;
  if (opt.deadline.count() > 0) {
    ctx.deadline_at_ns = telemetry::steady_now_ns() +
                         static_cast<std::uint64_t>(opt.deadline.count());
  }

  const auto result_of = [&ctx]() -> loop_result {
    loop_result res;
    switch (ctx.stop.load(std::memory_order_acquire)) {
      case sched::loop_ctx::kCancelled:
        res.status = loop_status::cancelled;
        break;
      case sched::loop_ctx::kDeadline:
        res.status = loop_status::deadline_expired;
        break;
      default:
        break;
    }
    res.skipped = ctx.skipped.load(std::memory_order_acquire);
    return res;
  };

  if (pol == policy::serial) {
    // Serial with a cancel token or deadline: chunked through run_range so
    // stop polling, skip accounting, and counters behave like the parallel
    // policies.
    probe.setup_done();
    ctx.run_range(me, begin, end);
    probe.work_done();
    ctx.rethrow_if_failed();
    const loop_result res = result_of();
    probe.commit(opt.site, pol, 0, grain, n,
                 static_cast<std::uint8_t>(res.status), res.skipped,
                 telemetry::degrade_reason::none);
    return res;
  }

  if (pol == policy::dynamic_ws) {
    // Vanilla cilk_for, lazily split: the caller publishes the span in its
    // next free range slot and consumes it chunk by chunk; idle workers
    // join by stealing the upper half off the slot.
    probe.setup_done();
    sched::range_span::run(me, &ctx, begin, end);
    probe.work_done();
    me.work_until([&] { return ctx.finished(); });
    ctx.rethrow_if_failed();
    const loop_result res = result_of();
    probe.commit(opt.site, pol, 0, grain, n,
                 static_cast<std::uint8_t>(res.status), res.skipped,
                 telemetry::degrade_reason::none);
    return res;
  }

  std::uint32_t eff_parts = 0;  // effective R; stays 0 for non-hybrid
  // The policy record, in this frame like ctx. Declared after ctx, so it
  // is destroyed first.
  std::variant<std::monostate, sched::static_record,
               sched::shared_queue_record, sched::guided_record,
               sched::hybrid_record>
      records;
  rt::loop_record* rec = nullptr;
  // Units of work the record can hand out at once, capped at P below: the
  // board post wakes that many workers minus the poster, so every worker
  // the loop can use arrives at once (PAPER.md §1, steps 1-2) instead of
  // one per wake with the rest sleeping out the park backstop. A static
  // block runs only on its owner and the wake is not targeted, so static
  // wakes the whole team.
  std::int64_t units = p;
  if (pol == policy::static_part) {
    rec = &records.emplace<sched::static_record>(ctx, p);
  } else if (pol == policy::dynamic_shared) {
    const std::int64_t chunk =
        opt.chunk > 0 ? opt.chunk : default_grain(n, p);
    units = (n - 1) / chunk + 1;
    rec = &records.emplace<sched::shared_queue_record>(ctx, chunk);
  } else if (pol == policy::guided) {
    units = (n - 1) / opt.min_chunk + 1;
    rec = &records.emplace<sched::guided_record>(ctx, opt.min_chunk, p);
  } else {
    const std::uint32_t parts = opt.partitions > 0 ? opt.partitions : p;
    eff_parts = parts;
    units = std::min<std::int64_t>(parts, n);
    if (opt.iteration_weight) {
      rec = &records.emplace<sched::hybrid_record>(ctx, parts,
                                                   opt.iteration_weight);
    } else {
      rec = &records.emplace<sched::hybrid_record>(ctx, parts);
    }
  }

  int slot;
  if (faultsim::injector* chaos = rt.chaos();
      chaos != nullptr && chaos->fire(faultsim::hook::board_post, me.id())) {
    // Forced board overflow: exercises the same degraded path a full board
    // takes, without needing kSlots concurrent loops.
    telemetry::bump(me.tel().counters.faults_injected);
    slot = -1;
  } else {
    slot = rt.loop_board().post(rec);
  }
  // An unposted record is invisible to peers, so it wakes nobody.
  if (slot >= 0) {
    const auto team =
        static_cast<std::uint32_t>(std::min<std::int64_t>(units, p));
    rt.notify_work(team - 1);
  }
  probe.setup_done();
  if (slot < 0 && pol == policy::static_part) {
    // Board overflow: strict static needs every worker to arrive, which
    // cannot be guaranteed without a slot. Degrade to executing the
    // whole range on the posting worker (correctness over placement).
    ctx.run_chunk(me, begin, end);
  } else if (slot < 0) {
    // No slot means no other worker can discover this record, so the
    // posting worker must drive it to completion itself. One participate()
    // call is not enough: under chaos a forced peek failure can make it
    // return without doing anything, so loop until the record drains
    // (try_progress keeps ranges stolen from hybrid partitions moving).
    while (!ctx.finished()) {
      if (!rec->participate(me) && !me.try_progress()) {
        std::this_thread::yield();
      }
    }
  } else {
    rec->participate(me);
  }
  probe.work_done();
  me.work_until([&] { return ctx.finished(); });
  rt.loop_board().clear(slot);
  ctx.rethrow_if_failed();
  const loop_result res = result_of();
  probe.commit(opt.site, pol, eff_parts, grain, n,
               static_cast<std::uint8_t>(res.status), res.skipped,
               telemetry::degrade_reason::none);
  return res;
}

}  // namespace hls
