// Per-worker work-handoff mailbox: the payload half of a push-based wake —
// the protocol core, as a header template.
//
// A wake from `parking_lot_core::unpark_at` tells a parked worker *that*
// work exists; the handoff slot tells it *what* the work is. A donor that
// has just opened a wide span deposits a pre-split range into the target's
// slot and only then issues the targeted wake, so the woken worker starts
// executing with zero steal probes.
//
// One slot per worker, single item, multi-producer (any loaded worker may
// deposit into any idle peer) and multi-consumer (the owner consumes on
// wake; thieves may poach a stranded deposit during their steal rounds;
// the donor itself reclaims when the wake fails). The four-step state
// cycle arbitrates all of them with one word:
//
//   kEmpty --claim (CAS, donor)-->  kClaimed   donor owns payload fields
//   kClaimed --publish (release)->  kFull      payload visible
//   kFull  --take (CAS, anyone)-->  kClaimed   taker owns payload fields
//   kClaimed --(taker, release)-->  kEmpty     slot reusable
//
// Exactly-once is the kFull -> kClaimed CAS: of all racing takers
// (owner's consume, a thief's poach, the donor's reclaim) exactly one
// wins, and payload fields are only ever touched by the thread currently
// holding kClaimed — so the fields need no atomicity of their own and the
// verify harness race-checks them as `Traits::var`s.
//
// Ordering: publish's release store of kFull pairs with take's acquire
// CAS (payload write happens-before payload read); take's release store
// of kEmpty pairs with the next claim's acquire CAS (payload read
// happens-before the next donor's write). The *visibility* guarantee —
// a parked worker never misses a deposit — is not this class's job: the
// donor deposits before `unpark_at`'s seq_cst fence, and the idle path's
// `work_visible` re-check reads `full()` after `prepare_park`'s fence
// (the same Dekker pairing the parking protocol already documents).
#pragma once

#include <atomic>
#include <cstdint>

namespace hls::rt {

template <typename Payload, typename Traits>
class handoff_slot_core {
  template <typename U>
  using atomic_t = typename Traits::template atomic<U>;
  template <typename U>
  using var_t = typename Traits::template var<U>;

 public:
  handoff_slot_core() = default;
  handoff_slot_core(const handoff_slot_core&) = delete;
  handoff_slot_core& operator=(const handoff_slot_core&) = delete;

  // Donor side, step 1: claim an empty slot for writing. On success the
  // caller owns the payload fields and must follow with exactly one
  // publish() or abort_claim().
  bool try_claim() noexcept {
    std::uint8_t expect = kEmpty;
    return state_.compare_exchange_strong(expect, kClaimed,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  // Donor side, step 2: write the payload and make it visible.
  void publish(const Payload& p) noexcept {
    // Plain (Traits::var) store: the kFull release store below publishes
    // it to the taker's acquire CAS; kClaimed excludes concurrent access.
    payload_.store(p);
    state_.store(kFull, std::memory_order_release);
  }

  // Donor side, abort: release a claimed-but-unfilled slot (the pre-split
  // failed, e.g. the donor's span turned out too narrow to halve).
  void abort_claim() noexcept {
    state_.store(kEmpty, std::memory_order_release);
  }

  // Taker side: consume a published payload. Exactly one of all racing
  // takers returns true; the payload fields are read only while this
  // thread holds the kClaimed state, so the read cannot race the next
  // donor's write.
  bool try_take(Payload& out) noexcept {
    std::uint8_t expect = kFull;
    if (!state_.compare_exchange_strong(expect, kClaimed,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      return false;
    }
    // Plain (Traits::var) load under kClaimed ownership: the acquire CAS
    // above synchronizes with publish()'s kFull release store.
    out = payload_.load();
    state_.store(kEmpty, std::memory_order_release);
    return true;
  }

  // True while a published payload is waiting. Racy by nature — used by
  // the idle path's work-visibility re-check and the steal round's poach
  // probe, both of which follow up with the authoritative try_take.
  bool full() const noexcept {
    return state_.load(std::memory_order_acquire) == kFull;
  }

 private:
  enum : std::uint8_t { kEmpty = 0, kClaimed = 1, kFull = 2 };

  atomic_t<std::uint8_t> state_{kEmpty};
  var_t<Payload> payload_{};
};

}  // namespace hls::rt
