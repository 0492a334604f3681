// A worker: the surrogate of one processing core (paper Section II).
//
// Each worker owns a Chase-Lev deque and, when idle, (1) pops local work,
// (2) visits the loop participation board, (3) steals from a random victim.
#pragma once

#include <pthread.h>

#include <cstdint>
#include <ctime>

#include <atomic>

#include "runtime/deque.h"
#include "runtime/parking.h"
#include "runtime/range_slot.h"
#include "telemetry/registry.h"
#include "util/cacheline.h"
#include "util/rng.h"

namespace hls::faultsim {
enum class hook : unsigned;
}

namespace hls::rt {

class runtime;
class task;

// Snapshot of a worker's scheduler event counters (monotonic over the
// runtime's life). The field list is generated from the telemetry x-macro
// (telemetry/counters.h), so every counter automatically participates in
// snapshots, sums, and deltas. The live counters are relaxed atomics
// updated only by the owning worker; snapshots read from any thread may
// lag but are well-defined.
using worker_stats = telemetry::counter_set;

class worker {
 public:
  worker(runtime& rt, std::uint32_t id, std::uint64_t seed,
         telemetry::worker_state& tel);

  worker(const worker&) = delete;
  worker& operator=(const worker&) = delete;

  std::uint32_t id() const noexcept { return id_; }
  runtime& rt() noexcept { return rt_; }
  ws_deque& deque() noexcept { return deque_; }

  // ---- splittable-range slots (lazy loop splitting) -----------------
  // A small fixed stack of slots (runtime/range_slot.h). The owner opens
  // the next free slot for each loop span it runs, nested ones included,
  // and closes the innermost when the span ends. Spans on one worker open
  // and close in call-stack order, so the open slots always form a prefix
  // of the stack: thieves probe slots from 0 upward and stop at the first
  // closed one, and slot 0 alone tells whether any span is open.
  static constexpr std::uint32_t kSpanSlots = 4;

  range_slot& range(std::uint32_t i) noexcept { return ranges_[i]; }

  // Owner only. Publishes [lo, hi) in the next free slot and returns it,
  // or nullptr when every slot is already open.
  range_slot* open_span(void* ctx, range_slot::span_runner run,
                        std::int64_t lo, std::int64_t hi,
                        std::int64_t grain) noexcept;

  // Owner only. Closes the innermost open slot (range_slot::close) and
  // returns whether a thief split its span.
  bool close_span() noexcept;

  // This worker's telemetry state: counters, histograms, event ring.
  telemetry::worker_state& tel() noexcept { return tel_; }
  const telemetry::worker_state& tel() const noexcept { return tel_; }

  // Draws the chaos fault at hook h on this worker's stream
  // (faultsim/faultsim.h) and returns whether it fired; a delay-class
  // hook has slept by then. body_throw tests the chunk [lo, hi). Every
  // fault site in the runtime and the policies calls this; with no
  // injector installed it is one pointer load. Defined in runtime.h.
  bool fault(faultsim::hook h, std::int64_t lo = 0,
             std::int64_t hi = 0) noexcept;

  // Pushes a task onto this worker's own deque (owner thread only) and
  // wakes one sleeping thief.
  void push(task* t);

  // Pops from the local deque (owner thread only).
  task* pop_local();

  // Executes t and deletes it.
  void run(task* t);

  // One scheduling step: local pop, board visit, or one round of steal
  // attempts. Returns true if progress was made, or if `done` (the
  // caller's work_until predicate) came to hold during the steal round. A
  // round that ends early because a loop was posted goes straight back to
  // the board visit instead of returning.
  bool try_progress(park_predicate done = {});

  worker_stats stats() const noexcept { return tel_.counters.snapshot(); }

  // ---- heartbeat (consumed by runtime/health.h) ---------------------
  // A cacheline-padded epoch word the owning worker bumps at chunk and
  // park boundaries; the watchdog classifies a worker whose heartbeat
  // goes silent past the progress budget as stalled. Owner-only store
  // (plain load+store, no RMW — same discipline as the counters).
  void beat() noexcept {
    hb_beats_.store(hb_beats_.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  }
  std::uint64_t beats() const noexcept {
    return hb_beats_.load(std::memory_order_relaxed);
  }
  // True while the worker is blocked in a park: the watchdog classifies a
  // parked worker as healthy-idle rather than stalled (it holds no work
  // and wakes on demand).
  bool parked_hint() const noexcept {
    return hb_parked_.load(std::memory_order_relaxed) != 0;
  }
  // CPU time this worker's thread has consumed, in ns, or -1 when its
  // clock is unknown or unreadable. The watchdog reads it to tell a long
  // chunk (silent but on-CPU) from a stall (silent and off-CPU).
  std::int64_t cpu_time_ns() const noexcept;

  // Runs scheduling steps until pred() holds, backing off when idle. The
  // predicate is threaded into the park path so the check-then-park
  // re-check covers completion broadcasts that fired before the waiter was
  // announced (the predicate flipped, but there was nobody to unpark).
  template <typename Pred>
  void work_until(Pred&& pred) {
    const park_predicate done(pred);
    int idle = 0;
    while (!pred()) {
      if (try_progress(done)) {
        idle = 0;
        continue;
      }
      pause(++idle, done);
    }
  }

 private:
  friend class runtime;

  // Progressive backoff: relax -> yield -> the park rung. There, while
  // work is visible anywhere (runtime::work_visible) the worker takes an
  // on-CPU backoff_nap; only when none is does it park on its slot of the
  // parking lot (runtime::idle_park). `done` is the caller's work_until
  // predicate (empty from the top-level worker loop); it ends a nap, joins
  // the pre-park re-check and refines spurious-wake accounting.
  void pause(int idle_count, park_predicate done = {});

  // Steal backoff: work is visible but this worker cannot get any
  // (another owner's static block, a drained queue, a span too small to
  // split). It waits on its own CPU, in a yield loop, for a bounded
  // exponential jittered time, and stops early at a new board post,
  // `done`, or shutdown. A park would make its arrival at the next loop
  // wait for a futex wake.
  void backoff_nap(park_predicate done);
  static constexpr int kMaxBackoffLevel = 7;  // 2us << 7 = 256us cap input

  // How a steal round ended: work was stolen and run, every probe missed,
  // or it stopped before a probe because a loop was posted since the
  // caller's board visit (`posted`) or the caller's wait is over (`done`).
  enum class round_end : std::uint8_t { hit, miss, posted, done };

  // One round of steal attempts: a probe of the worker a hinted wake named
  // (wake_hint_), if any, then up to P probes of uniformly random victims
  // (PAPER.md §1, steps 3-4). Each probe tries the victim's range slots,
  // then one deque steal. `posts_seen` is the board's post count read
  // before the caller's visit; it and `done` are checked before every
  // probe.
  round_end try_steal_round(std::uint64_t posts_seen, park_predicate done);

  // Records the CPU-time clock of the thread that runs this worker. The
  // runtime constructor calls it before the watchdog starts.
  void bind_cpu_clock(pthread_t thread) noexcept;

  runtime& rt_;
  std::uint32_t id_;
  ws_deque deque_;
  range_slot ranges_[kSpanSlots];
  std::uint32_t open_spans_ = 0;  // owner only: ranges_[0, open_spans_)
  xoshiro256ss rng_;
  telemetry::worker_state& tel_;

  // Heartbeat words, padded so the watchdog's cross-thread reads never
  // false-share with the worker's hot state.
  alignas(kCacheLine) std::atomic<std::uint64_t> hb_beats_{0};
  std::atomic<std::uint8_t> hb_parked_{0};
  // The thread's CPU-time clock: set before the watchdog starts, then
  // only read (cpu_time_ns).
  clockid_t cpu_clock_{};
  bool has_cpu_clock_ = false;

  // Steal-backoff state (owner thread only): the current exponent of the
  // nap length.
  int backoff_level_ = 0;
  // Owner only: the span owner a hinted wake named (runtime::notify_work),
  // kept from the park until the next steal round probes it first.
  std::uint32_t wake_hint_ = parking_lot::kNoHint;
};

}  // namespace hls::rt
