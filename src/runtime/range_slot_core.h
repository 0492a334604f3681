// Splittable-range slot: lazy steal-driven loop splitting — the protocol
// core, as a header template.
//
// A worker executing a loop span publishes it here instead of eagerly
// heap-allocating ~lg(n/grain) divide-and-conquer subtasks (each worker
// holds a small stack of slots, one per nested open span). The slot packs
// the stealable region into one 64-bit word — {split:32 | hi:32}, counted
// in units of 2^shift iterations from an owner-written base — so the owner
// reserves work for itself and a thief steals the upper half [mid, hi)
// with a single CAS each. shift is 0 for every span shorter than
// 2^32 - 1 iterations, so a unit is one iteration there; a wider span (up
// to kMaxSpan) splits on 2^shift boundaries, its last unit partial, and
// still opens directly. Nothing is allocated unless a steal actually
// happens; a stolen range seeds the thief's own slot, so splitting stays
// recursive and the divide-and-conquer span bound (Corollary 6) is
// preserved.
//
// Protocol (full ordering table in docs/runtime.md):
//
//   owner   open():    plain field writes, then word.store(open, release)
//           reserve(): CAS {split, hi} -> {split', hi} claiming
//                      [split, split') for itself (amortized: one CAS per
//                      ~1/8 of the remaining range, not per chunk)
//           close():   word.exchange(kClosed, seq_cst), then spin until
//                      readers == 0 (drain)
//   thief   try_steal(): readers.fetch_add(seq_cst); load word (seq_cst);
//                      CAS {split, hi} -> {split, mid};
//                      readers.fetch_sub(release)
//
// Exactly-once follows from the word's atomicity: every claim is a CAS
// from the value its claimant read, split only rises (the owner) and hi
// only falls (thieves), so [split, hi) is always exactly what nobody has
// claimed. Neither CAS needs ordering: the owner and a thief exchange no
// data through the word, and a thief's field reads are ordered by its
// word load, which reads from open()'s release store or from a CAS in
// that store's release sequence.
//
// Lifetime safety mirrors the board's reader-count drain: a thief touches
// the plain fields (ctx/runner/base/span/shift) only between the reader
// announce and retreat while the word was observed open; close() waits
// out every such reader before the owner may rewrite the fields for the
// next span. ABA is structurally impossible: within one open the word is
// strictly monotone, and a reopened slot cannot be reached by a stale CAS
// because the drain waited for every thief holding a pre-close value.
//
// The split floor (`grain`) is the one field the owner may change while
// the span is open (set_grain: the sched layer lowers it when a grain
// measures slow). It is a relaxed atomic with no ordering role: it only
// sizes the owner's reservations and the thief's two-floor threshold, and
// any value >= 1 unit keeps both halves of a steal non-empty.
//
// Template parameters:
//   Traits — synchronization traits (verify/sync.h); the plain fields use
//            Traits::var so the model-checking harness race-checks every
//            access the drain protocol is supposed to order.
//   Runner — the type stored in the runner field; opaque to the protocol
//            (the shipping wrapper uses its worker-thunk function pointer,
//            the verification models use their own callables).
//   Policy — protocol-variant knobs; shipping code always uses
//            range_slot_policy_default (see verify_test.cpp for why the
//            broken variants exist).
#pragma once

#include <algorithm>
#include <atomic>  // std::memory_order (the traits' atomics share its enum)
#include <cassert>
#include <cstdint>

#include "util/cacheline.h"

namespace hls::rt {

// close_drain: close() unpublishes with a seq_cst exchange and waits out
// in-flight readers. Disabling it downgrades close() to a plain relaxed
// store with no drain — reintroducing the use-after-reopen race the drain
// exists to prevent; the verification suite proves the harness flags it
// (a vector-clock data race on the span fields).
//
// reserve_cas: the owner claims its batch with a CAS on the word.
// Disabling it makes reserve() a load-then-store that can write back a hi
// a thief lowered in between — the lost update the CAS exists to prevent
// (a double-executed iteration, caught by the
// range_word-broken-blindreserve model).
struct range_slot_policy_default {
  static constexpr bool close_drain = true;
  static constexpr bool reserve_cas = true;
};

struct range_slot_policy_no_drain {
  static constexpr bool close_drain = false;
  static constexpr bool reserve_cas = true;
};

struct range_slot_policy_blind_reserve {
  static constexpr bool close_drain = true;
  static constexpr bool reserve_cas = false;
};

template <typename Traits, typename Runner,
          typename Policy = range_slot_policy_default>
class range_slot_core {
  template <typename U>
  using atomic_t = typename Traits::template atomic<U>;
  template <typename U>
  using var_t = typename Traits::template var<U>;

 public:
  using runner_type = Runner;

  // Result of a successful steal; evaluates to false on a failed probe.
  struct stolen {
    Runner run{};
    void* ctx = nullptr;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    explicit operator bool() const noexcept { return run != Runner{}; }
  };

  // Largest publishable span. 2^62 iterations is beyond any addressable
  // problem size, so no caller path needs a bisection fallback; it packs
  // as 2^31 units of 2^31 iterations.
  static constexpr std::int64_t kMaxSpan = std::int64_t{1} << 62;

  range_slot_core() = default;
  range_slot_core(const range_slot_core&) = delete;
  range_slot_core& operator=(const range_slot_core&) = delete;

  // -- owner side (the worker that owns this slot) ----------------------

  // Publishes [lo, hi) as a splittable span. Returns false when the slot
  // is already open or the span is empty/out of range — validated in
  // release builds too, so a caller bypassing parallel_for cannot corrupt
  // the protocol word silently. (A worker never reopens an open slot: a
  // nested span takes the next slot of its stack, rt::worker::open_span.)
  bool open(void* ctx, Runner runner, std::int64_t lo, std::int64_t hi,
            std::int64_t grain) noexcept {
    if (owner_open_.load()) return false;
    if (hi <= lo) return false;
    // Unsigned subtraction is exact for any lo < hi, even when the signed
    // difference would overflow (lo < 0 <= hi near the int64 extremes).
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    if (span > static_cast<std::uint64_t>(kMaxSpan)) return false;
    unsigned shift = 0;
    while (unit_count(span, shift) > kMaxUnits) ++shift;
    const std::uint64_t n = unit_count(span, shift);
    ctx_.store(ctx);
    runner_.store(runner);
    base_.store(lo);
    span_.store(span);
    shift_.store(shift);
    units_.store(n);
    set_grain(grain);
    owner_open_.store(true);
    // The release store publishes the fields above to any thief whose
    // (seq_cst) word load observes the open value or a later CAS of it.
    word_.store(pack(0, n), std::memory_order_release);
    return true;
  }

  // Owner only, while the span is open (or in open()): sets the split
  // floor — the reserve minimum and half the steal threshold — in whole
  // units, rounding up. Values below 1 read as 1.
  void set_grain(std::int64_t grain) noexcept {
    const auto g =
        static_cast<std::uint64_t>(std::max<std::int64_t>(grain, 1));
    grain_.store(unit_count(g, shift_.load()), std::memory_order_relaxed);
  }

  // Reserves the owner's next batch: claims [cur, result) where `cur` is
  // the owner's current position (== the published split). Returns `cur`
  // itself when thieves have consumed everything above it. The batch is
  // max(grain, remaining/8), so the owner pays one CAS per refill, not per
  // chunk, while keeping 7/8 of the remainder stealable.
  std::int64_t reserve(std::int64_t cur) noexcept {
    std::uint64_t w = word_.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t split = w >> 32;
      const std::uint64_t hi = w & kUnitMask;
      if (split >= hi) return cur;  // thieves consumed the rest
      const std::uint64_t remaining = hi - split;
      const std::uint64_t g = grain_.load(std::memory_order_relaxed);
      const std::uint64_t next =
          split + (remaining <= g ? remaining : std::max(g, remaining >> 3));
      if constexpr (Policy::reserve_cas) {
        if (!word_.compare_exchange_weak(w, pack(next, hi),
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
          continue;  // a thief lowered hi since the load: decide again
        }
      } else {
        // Release, like open()'s store: a plain store starts a new release
        // sequence, and this variant is meant to break only the claim.
        word_.store(pack(next, hi), std::memory_order_release);
      }
      const std::int64_t b = base_.load();
      const std::uint64_t span = span_.load();
      const unsigned shift = shift_.load();
      // Only the owner raises split, so the published split is the owner's
      // own position; thieves may only have lowered hi.
      assert(b + static_cast<std::int64_t>(offset(split, span, shift)) == cur);
      return b + static_cast<std::int64_t>(offset(next, span, shift));
    }
  }

  // Unpublishes the span and waits out in-flight thief probes so the
  // fields may be safely rewritten by the next open(). Returns true when
  // at least one steal shrank the span (i.e. the span was split).
  bool close() noexcept {
    std::uint64_t last;
    if constexpr (Policy::close_drain) {
      // The seq_cst exchange is one side of a Dekker handshake with
      // try_steal(): a thief either announced itself before this store
      // (the drain below waits it out) or its word load sees kClosed and
      // bails.
      last = word_.exchange(kClosed, std::memory_order_seq_cst);
    } else {
      last = word_.load(std::memory_order_relaxed);
      word_.store(kClosed, std::memory_order_relaxed);
    }
    owner_open_.store(false);
    if constexpr (Policy::close_drain) {
      // Drain: after this loop no thief can still be reading the span
      // fields (its release fetch_sub happens-before our
      // acquire-or-stronger load), so the next open() may rewrite them
      // without a race. A stale pre-close word value also cannot be CASed
      // over a reopened slot, because every thief holding one retreated
      // here first.
      while (readers_.load(std::memory_order_seq_cst) != 0) Traits::pause();
    }
    return (last & kUnitMask) != units_.load();
  }

  // Owner-thread-only: is this slot currently publishing a span?
  bool owner_open() const noexcept { return owner_open_.load(); }

  // -- thief side -------------------------------------------------------

  // Cheap pre-check (one relaxed load, no RMW) for the steal path's
  // common miss case.
  bool looks_open() const noexcept {
    return word_.load(std::memory_order_relaxed) != kClosed;
  }

  // One steal attempt: claims the upper half of the stealable region when
  // it holds at least two floors (both halves stay >= the floor, read at
  // the probe: the owner may lower it while the span is open). Like
  // ws_deque::steal, a lost CAS race reports failure rather than
  // retrying.
  stolen try_steal() noexcept {
    stolen out;
    // Announce before reading the word (the other side of close()'s
    // Dekker handshake); the plain field reads below are only legal
    // between this increment and the decrement while the word was
    // observed open.
    readers_.fetch_add(1, std::memory_order_seq_cst);
    std::uint64_t w = word_.load(std::memory_order_seq_cst);
    if (w != kClosed) {
      const std::uint64_t split = w >> 32;
      const std::uint64_t hi = w & kUnitMask;
      // Steal only when both halves stay >= the floor; smaller remainders
      // are the owner's tail and not worth a migration.
      // ordlint: relaxed-guard-ok the floor only sizes the steal; the CAS below decides the claim
      if (hi - split >= 2 * grain_.load(std::memory_order_relaxed)) {
        const std::uint64_t mid = split + (hi - split) / 2;
        if (word_.compare_exchange_strong(w, pack(split, mid),
                                          std::memory_order_relaxed,
                                          std::memory_order_relaxed)) {
          // Still inside the reader window, so close() cannot have
          // returned and these fields still describe the span just split.
          const std::int64_t b = base_.load();
          const std::uint64_t span = span_.load();
          const unsigned shift = shift_.load();
          out.run = runner_.load();
          out.ctx = ctx_.load();
          out.lo = b + static_cast<std::int64_t>(offset(mid, span, shift));
          out.hi = b + static_cast<std::int64_t>(offset(hi, span, shift));
        }
      }
    }
    readers_.fetch_sub(1, std::memory_order_release);
    return out;
  }

 private:
  static constexpr std::uint64_t kUnitMask = 0xffffffffull;
  // Largest unit count: split == hi == 2^32 - 1 can then never be an open
  // state, so all-ones doubles as the closed sentinel.
  static constexpr std::uint64_t kMaxUnits = kUnitMask - 1;
  static constexpr std::uint64_t kClosed = ~0ull;

  static constexpr std::uint64_t pack(std::uint64_t split,
                                      std::uint64_t hi) noexcept {
    return (split << 32) | hi;
  }

  // Number of 2^shift-iteration units covering n >= 1 iterations.
  static constexpr std::uint64_t unit_count(std::uint64_t n,
                                            unsigned shift) noexcept {
    return ((n - 1) >> shift) + 1;
  }

  // Iteration offset from base of unit boundary u; the last unit of a
  // shifted span is partial, so its end clamps to the span.
  static constexpr std::uint64_t offset(std::uint64_t u, std::uint64_t span,
                                        unsigned shift) noexcept {
    return std::min(u << shift, span);
  }

  // Owner-written span fields. Thieves read them only inside the reader
  // announce/retreat window after observing the word open; the close()
  // drain orders those reads before any rewrite (see header comment).
  // Routed through Traits::var so the harness race-checks exactly the
  // accesses the drain protocol is supposed to order.
  var_t<void*> ctx_{};
  var_t<Runner> runner_{};
  var_t<std::int64_t> base_{};
  var_t<std::uint64_t> span_{};   // iterations
  var_t<unsigned> shift_{};       // log2 of the unit
  var_t<std::uint64_t> units_{};  // owner-only: split detect at close
  var_t<bool> owner_open_{};      // owner-only: reopen guard

  // The split floor in units: written by the owner only (open,
  // set_grain), read by the owner's reserve and by thieves inside the
  // reader window. Relaxed throughout; see the header comment.
  atomic_t<std::uint64_t> grain_{1};

  // The packed {split:32 | hi:32} word (units from base_), CASed by the
  // owner (reserve) and thieves (steal); kClosed when no span is open.
  alignas(kCacheLine) atomic_t<std::uint64_t> word_{kClosed};

  // In-flight thief probes (the board-style drain counter).
  alignas(kCacheLine) atomic_t<std::uint32_t> readers_{0};
};

}  // namespace hls::rt
