// Splittable-range slot: lazy steal-driven loop splitting — the protocol
// core, as a header template.
//
// A worker executing a loop span publishes it here instead of eagerly
// heap-allocating ~lg(n/grain) divide-and-conquer subtasks (each worker
// holds a small stack of slots, one per nested open span). The stealable
// region [split, hi) lives in two 64-bit words — both offsets from an
// owner-written base — so full 64-bit spans stay on the zero-alloc path:
// `split` is raised only by the owner (reserve) and `hi` is lowered only
// by thieves (steal upper half). Nothing is allocated unless a steal
// actually happens; a stolen range
// seeds the thief's own slot, so splitting stays recursive and the
// divide-and-conquer span bound (Corollary 6) is preserved.
//
// Protocol (full ordering table in docs/runtime.md):
//
//   owner   open():    plain field writes, split.store(0, release), then
//                      hi.store(span, release) publishing the span
//           reserve(): announce split' = split + take (seq_cst store),
//                      then re-read hi waiting out any BUSY steal
//                      transaction; if the committed hi dropped below
//                      split', retreat split to it and keep only
//                      [split, hi). Amortized one announce per ~1/8 of
//                      the remaining range, not per chunk.
//           close():   CAS the clean hi -> kClosed (seq_cst), then spin
//                      until readers == 0 (drain)
//   thief   try_steal(): readers.fetch_add(seq_cst); load hi (seq_cst,
//                      fail if BUSY or closed); load split; CAS
//                      hi -> mid|BUSY (tentative claim of [mid, hi));
//                      re-read split (Dekker): commit with
//                      hi.store(mid) iff split <= mid, else abort with
//                      hi.store(old); readers.fetch_sub(release)
//
// Why the BUSY bit: with two words the owner's announce/re-read and the
// thief's claim/re-read can each observe the other mid-flight. The top
// bit of `hi` turns the steal into a two-phase transaction — the CAS is
// tentative, and the thief's post-CAS split re-read alone decides
// commit/abort. The owner never acts on a BUSY value (it waits it out),
// so every hi value the owner sees is a *committed* frontier: monotone
// decreasing, and any committed mid satisfies mid >= the split the thief
// re-read. Together with split never exceeding the owner's announced
// claim, that gives exactly-once: a committed steal [mid, hi) never
// overlaps the owner's kept region [.., split'], and an owner that loses
// the race retreats to exactly the committed frontier, leaving no hole.
//
// Lifetime safety mirrors the board's reader-count drain: a thief touches
// the plain fields (ctx/runner/base) only between the reader announce and
// retreat while hi was observed open; close() waits out every such reader
// before the owner may rewrite the fields for the next span. ABA is
// structurally impossible: within one open, split only rises except for
// loss-retreats that never pass a committed hi, clean hi only falls, and a
// reopened slot cannot be reached by a stale CAS because the drain waited
// for every thief holding a pre-close hi value.
//
// The split floor (`grain`) is the one field the owner may change while
// the span is open (set_grain: the sched layer lowers it when a grain
// measures slow). It is a relaxed atomic with no ordering role: it only
// sizes the owner's reservations and the thief's two-grain threshold, and
// any value >= 1 keeps both halves of a steal non-empty. Exactly-once
// never depends on it — the BUSY-CAS and the split re-read alone decide
// commit or abort.
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

// close_drain: close() unpublishes with a seq_cst CAS and waits out
// in-flight readers. Disabling it downgrades close() to a plain relaxed
// store with no drain — reintroducing the use-after-reopen race the drain
// exists to prevent; the verification suite proves the harness flags it
// (a vector-clock data race on the span fields).
//
// steal_recheck: the thief re-reads split after its tentative hi CAS and
// aborts when the owner's announce already covered [mid, ..). Disabling
// it commits unconditionally — reintroducing the owner/thief overlap the
// Dekker re-read exists to prevent (a double-executed iteration, caught
// by the range_word-broken-norecheck model).
struct range_slot_policy_default {
  static constexpr bool close_drain = true;
  static constexpr bool steal_recheck = true;
};

struct range_slot_policy_no_drain {
  static constexpr bool close_drain = false;
  static constexpr bool steal_recheck = true;
};

struct range_slot_policy_no_recheck {
  static constexpr bool close_drain = true;
  static constexpr bool steal_recheck = false;
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

  // Largest publishable span: offsets must stay clear of the BUSY bit
  // (and distinguishable from kClosed). 2^62 iterations is beyond any
  // addressable problem size, so no caller path needs a bisection
  // fallback any more.
  static constexpr std::int64_t kMaxSpan = std::int64_t{1} << 62;

  range_slot_core() = default;
  range_slot_core(const range_slot_core&) = delete;
  range_slot_core& operator=(const range_slot_core&) = delete;

  // -- owner side (the worker that owns this slot) ----------------------

  // Publishes [lo, hi) as a splittable span. Returns false when the slot
  // is already open or the span is empty/out of range — validated in
  // release builds too, so a caller bypassing parallel_for cannot corrupt
  // the protocol words silently. (A worker never reopens an open slot: a
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
    ctx_.store(ctx);
    runner_.store(runner);
    base_.store(lo);
    set_grain(grain);
    init_hi_off_.store(span);
    owner_open_.store(true);
    split_.store(0, std::memory_order_release);
    // The release store publishes the fields (and the split reset) above
    // to any thief whose (seq_cst) hi load observes the open value.
    hi_.store(span, std::memory_order_release);
    return true;
  }

  // Owner only, while the span is open (or in open()): sets the split
  // floor — the reserve minimum and half the steal threshold. Values below
  // 1 read as 1.
  void set_grain(std::int64_t grain) noexcept {
    grain_.store(std::max<std::int64_t>(grain, 1), std::memory_order_relaxed);
  }

  // Reserves the owner's next batch: claims [cur, result) where `cur` is
  // the owner's current position (== the published split). Returns `cur`
  // itself when thieves have consumed everything above it. The batch is
  // max(grain, remaining/8), so the owner pays one announce per refill,
  // not per chunk, while keeping 7/8 of the remainder stealable.
  std::int64_t reserve(std::int64_t cur) noexcept {
    const std::int64_t b = base_.load();
    const std::uint64_t off =
        static_cast<std::uint64_t>(cur) - static_cast<std::uint64_t>(b);
    // Only the owner raises split (and loss-retreats never pass the
    // owner's position), so the published split equals `off` on entry.
    assert(split_.load(std::memory_order_relaxed) == off);
    const std::uint64_t h = wait_clean_hi();
    if (off >= h) return cur;  // thieves consumed the rest
    const std::uint64_t remaining = h - off;
    const auto g =
        static_cast<std::uint64_t>(grain_.load(std::memory_order_relaxed));
    const std::uint64_t take =
        remaining <= g ? remaining : std::max(g, remaining >> 3);
    const std::uint64_t target = off + take;
    // Announce the claim, then re-read the committed hi (the owner half
    // of the Dekker handshake with try_steal's CAS + split re-read).
    split_.store(target, std::memory_order_seq_cst);
    const std::uint64_t h2 = wait_clean_hi();
    if (h2 >= target) return b + static_cast<std::int64_t>(target);
    // A steal committed below target (its thief re-read split before the
    // announce landed): retreat to the committed frontier — [off, h2) is
    // exactly what remains ours, and no later steal can undercut it
    // because any thief that observes the announced split computes a mid
    // at or above it.
    const std::uint64_t kept = h2 > off ? h2 : off;
    split_.store(kept, std::memory_order_seq_cst);
    return b + static_cast<std::int64_t>(kept);
  }

  // Unpublishes the span and waits out in-flight thief probes so the
  // fields may be safely rewritten by the next open(). Returns true when
  // at least one steal shrank the span (i.e. the span was split).
  bool close() noexcept {
    std::uint64_t last;
    if constexpr (Policy::close_drain) {
      // CAS only a clean (committed) value to kClosed so an in-flight
      // steal transaction's commit/abort store cannot clobber the closed
      // sentinel. The seq_cst CAS is one side of a Dekker handshake with
      // try_steal(): a thief either announced itself before this store
      // (the drain below waits it out) or its hi load sees kClosed (which
      // reads as BUSY) and bails.
      last = hi_.load(std::memory_order_seq_cst);
      for (;;) {
        while ((last & kBusyBit) != 0) {
          Traits::pause();
          last = hi_.load(std::memory_order_seq_cst);
        }
        if (hi_.compare_exchange_weak(last, kClosed,
                                      std::memory_order_seq_cst,
                                      std::memory_order_seq_cst)) {
          break;
        }
      }
    } else {
      last = hi_.load(std::memory_order_relaxed);
      hi_.store(kClosed, std::memory_order_relaxed);
    }
    owner_open_.store(false);
    if constexpr (Policy::close_drain) {
      // Drain: after this loop no thief can still be reading the span
      // fields (its release fetch_sub happens-before our
      // acquire-or-stronger load), so the next open() may rewrite them
      // without a race. A stale pre-close hi value also cannot be CASed
      // over a reopened slot, because every thief holding one retreated
      // here first.
      while (readers_.load(std::memory_order_seq_cst) != 0) Traits::pause();
    }
    return last != init_hi_off_.load();
  }

  // Owner-thread-only: is this slot currently publishing a span?
  bool owner_open() const noexcept { return owner_open_.load(); }

  // Owner-side reclaim of a range the owner itself just carved off with
  // try_steal() (the push-handoff donor pre-split, docs/runtime.md): when
  // the targeted wake fails and the donor takes its deposit back, this
  // restores [lo, hi) — absolute bounds, exactly the `stolen` result — to
  // the open span by raising hi from the committed post-steal frontier
  // back to the pre-steal one. Succeeds only when hi still equals `lo`'s
  // offset *clean*: any in-flight steal transaction (BUSY), a further
  // committed steal, or a close makes the CAS miss and the caller must run
  // the range itself. Raising hi here is not the reopen-ABA the close
  // drain guards against: the slot is still inside the same open(), so a
  // thief acting on the restored value steals a region that genuinely is
  // stealable again. Precondition: called by the owner, before it has
  // reserved past `lo` (the donor reclaims immediately, before its
  // owner_loop starts).
  bool try_unsteal(std::int64_t lo, std::int64_t hi) noexcept {
    const std::int64_t b = base_.load();
    std::uint64_t lo_off =
        static_cast<std::uint64_t>(lo) - static_cast<std::uint64_t>(b);
    const std::uint64_t hi_off =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(b);
    return hi_.compare_exchange_strong(lo_off, hi_off,
                                       std::memory_order_seq_cst,
                                       std::memory_order_relaxed);
  }

  // -- thief side -------------------------------------------------------

  // Cheap pre-check (one relaxed load, no RMW) for the steal path's
  // common miss case.
  bool looks_open() const noexcept {
    return hi_.load(std::memory_order_relaxed) != kClosed;
  }

  // One steal attempt: claims the upper half of the stealable region when
  // it holds at least two grains (both halves stay >= grain, read at the
  // probe: the owner may lower it while the span is open). Like
  // ws_deque::steal, a lost CAS race — or a slot mid-transaction — reports
  // failure rather than retrying.
  stolen try_steal() noexcept {
    stolen out;
    // Announce before reading hi (the other side of close()'s Dekker
    // handshake); the plain field reads below are only legal between this
    // increment and the decrement while hi was observed open.
    readers_.fetch_add(1, std::memory_order_seq_cst);
    std::uint64_t h = hi_.load(std::memory_order_seq_cst);
    if ((h & kBusyBit) == 0) {  // clean, and kClosed reads as busy
      const std::uint64_t s = split_.load(std::memory_order_seq_cst);
      const auto g =
          static_cast<std::uint64_t>(grain_.load(std::memory_order_relaxed));
      // Steal only when both halves stay >= grain; smaller remainders are
      // the owner's tail and not worth a migration. (h <= s is possible
      // when the owner announced past a committed steal and has not yet
      // retreated.)
      if (h > s && h - s >= 2 * g) {
        const std::uint64_t mid = s + (h - s) / 2;
        // Snapshot the span before the claim. These are the plain reads
        // the close() drain orders against the next open()'s rewrite: the
        // CAS below can only hit this span's hi, because close() cannot
        // return while this reader is announced.
        const Runner run = runner_.load();
        void* const ctx = ctx_.load();
        const std::int64_t b = base_.load();
        // Tentative claim of [mid, h): BUSY makes the owner (reserve's
        // re-read, close) wait until this transaction resolves, so clean
        // hi values are exactly the committed steal frontier.
        if (hi_.compare_exchange_strong(h, mid | kBusyBit,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
          bool commit = true;
          if constexpr (Policy::steal_recheck) {
            // Dekker re-read: abort when the owner's announce already
            // claimed into [mid, h) — the owner saw a clean hi >= its
            // target and committed, so stealing would double-execute.
            commit = split_.load(std::memory_order_seq_cst) <= mid;
          }
          if (commit) {
            out.run = run;
            out.ctx = ctx;
            out.lo = b + static_cast<std::int64_t>(mid);
            out.hi = b + static_cast<std::int64_t>(h);
            hi_.store(mid, std::memory_order_seq_cst);
          } else {
            hi_.store(h, std::memory_order_seq_cst);  // abort: hand it back
          }
        }
      }
    }
    readers_.fetch_sub(1, std::memory_order_release);
    return out;
  }

 private:
  // Top bit of hi_: set while a thief's steal transaction is in flight.
  // kClosed has it set too, so one branch rejects both in try_steal.
  static constexpr std::uint64_t kBusyBit = 1ull << 63;
  static constexpr std::uint64_t kClosed = ~0ull;

  // Owner/close-side spin: waits out an in-flight steal transaction and
  // returns the committed hi offset. Thieves never hold BUSY across a
  // blocking operation (CAS, one load, one store), so the wait is a few
  // instructions long; under the harness pause() blocks until the thief's
  // resolving store.
  std::uint64_t wait_clean_hi() noexcept {
    std::uint64_t h = hi_.load(std::memory_order_seq_cst);
    while ((h & kBusyBit) != 0) {
      Traits::pause();
      h = hi_.load(std::memory_order_seq_cst);
    }
    return h;
  }

  // Owner-written span fields. Thieves read them only inside the reader
  // announce/retreat window after observing hi open; the close() drain
  // orders those reads before any rewrite (see header comment). Routed
  // through Traits::var so the harness race-checks exactly the accesses
  // the drain protocol is supposed to order.
  var_t<void*> ctx_{};
  var_t<Runner> runner_{};
  var_t<std::int64_t> base_{};
  var_t<std::uint64_t> init_hi_off_{};  // owner-only: split detect at close
  var_t<bool> owner_open_{};            // owner-only: reopen guard

  // The split floor: written by the owner only (open, set_grain), read by
  // the owner's reserve and by thieves inside the reader window. Relaxed
  // throughout; see the header comment.
  atomic_t<std::int64_t> grain_{1};

  // The owner's claim frontier (offset from base_): raised by reserve's
  // announce, lowered only by the owner's own loss-retreat.
  alignas(kCacheLine) atomic_t<std::uint64_t> split_{0};

  // Upper bound of the stealable region (offset from base_): lowered by
  // committed steals, BUSY-tagged during a steal transaction; kClosed
  // when no span is open.
  alignas(kCacheLine) atomic_t<std::uint64_t> hi_{kClosed};

  // In-flight thief probes (the board-style drain counter).
  alignas(kCacheLine) atomic_t<std::uint32_t> readers_{0};
};

}  // namespace hls::rt
