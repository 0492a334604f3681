// Per-worker parking: targeted sleep/wake for idle workers — the protocol
// core, as a header template.
//
// Replaces the runtime's old global sleep mutex + condvar (where every
// notify_work() took the lock and notify_all()'d every sleeper, and
// sleepers polled on a 200us timed wait) with one parking slot per worker.
// A wakeup is now one epoch bump + one notify_one on a single slot, so a
// task posted to an all-idle runtime wakes exactly one worker instead of a
// thundering herd, a loop the whole team can use wakes exactly the k
// workers it needs (unpark_n), and a parked worker is woken in wake-latency
// time instead of at the next poll tick.
//
// The park protocol is split in two phases so callers can close the
// classic lost-wakeup race (check-then-park):
//
//   ticket = lot.prepare_park(w);        // 1. announce: waiter visible
//   if (work became visible) {           // 2. re-check AFTER announcing
//     lot.cancel_park(w);                //    never blocks
//   } else {
//     lot.park(w, ticket, backstop);     // 3. block until unpark/stop
//   }
//
// Correctness of the handshake: prepare_park publishes the waiter with
// seq_cst ordering (store + fence) before the caller's work re-check, and
// an unparker orders its work publication before the waiter scan with the
// matching seq_cst fence. For any notify racing with the idle transition,
// either the notifier observes the waiter (and bumps its epoch, making a
// subsequent park() return without blocking), or the waiter's re-check
// observes the notifier's work (Dekker via the two fences). The epoch is
// read as a ticket in prepare_park and re-validated under the slot lock in
// park(), so a wake delivered between the two phases is consumed, never
// lost.
//
// The backstop timeout passed to park() is a safety net, not a poll: every
// work-publication path wakes parked workers explicitly, and the timeout
// only fires on paths with no tracked edge. Timeouts are reported
// distinctly so callers can count them.
//
// The template is parameterized over the synchronization traits
// (verify/sync.h): std::atomic / annotated_mutex / condition_variable in
// shipping builds, the instrumented verify shim under the model-checking
// harness — where the condvar wait is untimed, so a worker that parks with
// no tracked wake edge surfaces as a deadlock ("lost wakeup") instead of
// being silently rescued by the backstop.
//
// The Policy parameter holds protocol-variant knobs. Shipping code always
// uses parking_policy_default; the broken variant exists only so the
// verification suite can prove the harness catches the bug it reintroduces
// (tests/verify_test.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>

#include "util/cacheline.h"
#include "util/thread_safety.h"

namespace hls::rt {

// skip_pending: unpark_n passes over a slot whose previous wake is still
// unconsumed. Disabling it lets one fan-out re-bump such a slot and count
// it as a delivered wake: two wakes merge into one signal, the count
// reports a wake no waiter receives, and a waiter the budget should have
// reached sleeps on (caught by the parking-fanout model).
struct parking_policy_default {
  static constexpr bool skip_pending = true;
};

struct parking_policy_merge_pending {
  static constexpr bool skip_pending = false;
};

template <typename Traits, typename Policy = parking_policy_default>
class parking_lot_core {
  template <typename U>
  using atomic_t = typename Traits::template atomic<U>;
  using mutex_t = typename Traits::mutex;
  using condvar_t = typename Traits::condvar;

 public:
  enum class wake_reason : std::uint8_t {
    notified,  // an unpark targeted this slot
    timeout,   // the backstop elapsed with no wake
    stop,      // request_stop() was observed
  };

  // What an unpark_n caller may attach to the wakes it delivers: the id of
  // the worker whose new span the woken waiter should probe first. The
  // value is the caller's; the lot only carries it.
  static constexpr std::uint32_t kNoHint = ~std::uint32_t{0};

  struct park_result {
    wake_reason reason = wake_reason::notified;
    // True only when park() actually blocked. An immediate return (wake
    // already consumed, or stopping) must not be accounted as a sleep.
    bool waited = false;
    // The hint of the wake this park consumed, or kNoHint.
    std::uint32_t hint = kNoHint;
  };

  explicit parking_lot_core(std::uint32_t num_slots)
      : n_(num_slots == 0 ? 1 : num_slots), slots_(new slot[n_]) {}

  parking_lot_core(const parking_lot_core&) = delete;
  parking_lot_core& operator=(const parking_lot_core&) = delete;

  // Phase 1: announce intent to park. Publishes slot w as a waiter
  // (seq_cst) and returns the epoch ticket to pass to park(). The caller
  // must follow with exactly one cancel_park(w) or park(w, ...).
  std::uint32_t prepare_park(std::uint32_t w) noexcept {
    slot& s = slots_[w];
    const std::uint32_t ticket = s.epoch.load(std::memory_order_relaxed);
    s.state.store(kPending, std::memory_order_relaxed);
    waiters_.fetch_add(1, std::memory_order_relaxed);
    // Dekker, waiter side: the waiter announcement above must be ordered
    // before the caller's work re-check. Pairs with the seq_cst fence in
    // unpark_n (work publication before the waiter scan).
    Traits::fence(std::memory_order_seq_cst);
    return ticket;
  }

  // Aborts between prepare_park and park (the re-check found work).
  // Returns true when it consumed a wake that had already landed on the
  // slot (the verify models use it to account for every delivered wake);
  // that wake's hint, or kNoHint, goes to *hint when hint is non-null.
  bool cancel_park(std::uint32_t w, std::uint32_t* hint = nullptr) noexcept {
    slot& s = slots_[w];
    bool consumed = false;
    {
      // Under the slot mutex: an unpark_n racing with this cancel may
      // have just targeted the slot (epoch bumped, wake_pending set).
      // Consuming the flag here — with the state transition in the same
      // critical section — keeps the invariant that wake_pending tracks
      // exactly one undelivered wake, and closes the race where the
      // notifier reads a half-cancelled slot.
      hls::scoped_lock<mutex_t> lg(s.mu);
      s.state.store(kActive, std::memory_order_relaxed);
      consumed = s.wake_pending;
      s.wake_pending = false;
      if (hint != nullptr) *hint = s.hint;
      s.hint = kNoHint;
    }
    waiters_.fetch_sub(1, std::memory_order_release);
    return consumed;
  }

  // Phase 2: blocks until the slot's epoch moves past `ticket` (an unpark
  // arrived), request_stop() is observed, or `backstop` elapses. Returns
  // immediately (waited == false) when a wake already landed between
  // prepare_park and this call, or when stopping.
  park_result park(std::uint32_t w, std::uint32_t ticket,
                   std::chrono::nanoseconds backstop)
      HLS_NO_THREAD_SAFETY_ANALYSIS {  // cv wait releases/reacquires s.mu
    slot& s = slots_[w];
    park_result res;
    std::unique_lock<mutex_t> lk(s.mu);
    if (stop_.load(std::memory_order_acquire)) {
      res.reason = wake_reason::stop;
    } else if (s.epoch.load(std::memory_order_relaxed) != ticket) {
      // A wake landed between prepare_park and here; consume it without
      // blocking. The caller re-checks for work either way.
      res.reason = wake_reason::notified;
    } else {
      s.state.store(kParked, std::memory_order_relaxed);
      s.cv.wait_for(lk, backstop, [&] {
        return s.epoch.load(std::memory_order_relaxed) != ticket ||
               stop_.load(std::memory_order_relaxed);
      });
      res.waited = true;
      // ordlint: relaxed-guard-ok post-wait classification under s.mu; publishers bump epoch/stop and notify under the same mutex
      if (stop_.load(std::memory_order_relaxed)) {
        res.reason = wake_reason::stop;
        // ordlint: relaxed-guard-ok same mutex-held classification as the stop_ read above
      } else if (s.epoch.load(std::memory_order_relaxed) != ticket) {
        res.reason = wake_reason::notified;
      } else {
        res.reason = wake_reason::timeout;
      }
    }
    s.state.store(kActive, std::memory_order_relaxed);
    // Any wake aimed at this park cycle is consumed by the return below
    // (notified) or can no longer be delivered (timeout/stop with the
    // state now active), so the slot is again eligible for fresh wakes.
    s.wake_pending = false;
    res.hint = s.hint;
    s.hint = kNoHint;
    lk.unlock();
    waiters_.fetch_sub(1, std::memory_order_release);
    return res;
  }

  // Wakes up to k distinct announced waiters (round-robin over slots) and
  // returns how many wakes it delivered. One seq_cst fence covers the
  // whole fan-out: it orders the caller's work publication before every
  // slot read of the single scan below, exactly as one unpark would, so
  // waking a team costs one fence and one pass instead of k of each. Fast
  // path with no waiters is one fence + one load, no lock. A slot that
  // already holds an unconsumed wake is skipped and does not use up the
  // budget: two unparks never merge into one delivered signal, so the
  // return value counts waiters that will really wake. Each signalled slot
  // keeps `hint` until its waiter consumes the wake (park or cancel_park),
  // so a hint reaches exactly the waiters this call woke, once each.
  std::uint32_t unpark_n(std::uint32_t k,
                         std::uint32_t hint = kNoHint) noexcept {
    if (k == 0) return 0;
    // Dekker, notifier side: the caller's work publication (deque bottom_
    // store, board ptr store — possibly relaxed) must be ordered before
    // the waiter scan below. Pairs with the fence in prepare_park.
    Traits::fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) == 0) return 0;
    // Round-robin start so repeated single wakes fan out over workers
    // instead of hammering slot 0.
    const std::uint32_t start = rotor_.fetch_add(1, std::memory_order_relaxed);
    std::uint32_t delivered = 0;
    for (std::uint32_t i = 0; i < n_ && delivered < k; ++i) {
      slot& s = slots_[(start + i) % n_];
      // Relaxed scan: purely a heuristic skip — the authoritative re-check
      // happens under the slot mutex below, so no release store pairs with
      // this load (the verify harness's ordering lint flags an acquire
      // here as a one-sided edge).
      if (s.state.load(std::memory_order_relaxed) == kActive) continue;
      bool signalled = false;
      {
        hls::scoped_lock<mutex_t> lg(s.mu);
        // Re-check under the lock: the worker may have cancelled or
        // finished parking since the scan (bumping an active slot would
        // waste the wake), and a slot whose previous wake is still
        // unconsumed is skipped too — bumping it again would merge two
        // wakes into one delivered signal, spending the budget on a
        // waiter that wakes anyway while another sleeps to the backstop,
        // and overcounting wakes_sent. Keep scanning for a waiter that can
        // still consume a fresh wake.
        if (s.state.load(std::memory_order_relaxed) != kActive &&
            (!Policy::skip_pending || !s.wake_pending)) {
          s.epoch.fetch_add(1, std::memory_order_relaxed);
          s.wake_pending = true;
          s.hint = hint;
          signalled = true;
        }
      }
      if (signalled) {
        s.cv.notify_one();
        ++delivered;
      }
    }
    return delivered;
  }

  // Wakes exactly one announced waiter; true when one was signalled.
  bool unpark_one() noexcept { return unpark_n(1) != 0; }

  // Wakes every announced waiter (loop completion, join edges): a budget
  // of every slot. A waiter whose wake is still pending wakes anyway, and
  // keeps that wake's hint.
  void unpark_all() noexcept { unpark_n(n_); }

  // Latches stop and wakes everyone; park() calls return wake_reason::stop
  // from then on.
  void request_stop() noexcept {
    stop_.store(true, std::memory_order_seq_cst);
    for (std::uint32_t w = 0; w < n_; ++w) {
      slot& s = slots_[w];
      // Lock/unlock closes the race with a waiter between its predicate
      // check and the wait; notify outside the lock avoids a pointless
      // wake-then-block on the mutex.
      { hls::scoped_lock<mutex_t> lg(s.mu); }
      s.cv.notify_all();
    }
  }

  // Racy count of announced waiters (pending + parked); for telemetry and
  // notify fast paths only.
  std::uint32_t waiters() const noexcept {
    return waiters_.load(std::memory_order_relaxed);
  }

 private:
  enum : std::uint8_t { kActive = 0, kPending = 1, kParked = 2 };

  // One slot per worker, padded so parking traffic on one worker never
  // false-shares with its neighbours.
  struct alignas(kCacheLine) slot {
    atomic_t<std::uint32_t> epoch{0};
    atomic_t<std::uint8_t> state{kActive};
    mutex_t mu;
    condvar_t cv;
    // True while an unpark has bumped the epoch but the owning worker has
    // not yet consumed the wake (in park or cancel_park). unpark_n skips
    // such slots so a burst of wakes fans out to distinct waiters instead
    // of collapsing onto one.
    bool wake_pending HLS_GUARDED_BY(mu) = false;
    // The pending wake's unpark_n hint; kNoHint when none is pending or
    // the pending wake carried none.
    std::uint32_t hint HLS_GUARDED_BY(mu) = kNoHint;
  };

  std::uint32_t n_;
  std::unique_ptr<slot[]> slots_;
  alignas(kCacheLine) atomic_t<std::uint32_t> waiters_{0};
  alignas(kCacheLine) atomic_t<std::uint32_t> rotor_{0};
  atomic_t<bool> stop_{false};
};

}  // namespace hls::rt
