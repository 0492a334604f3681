// Chase-Lev work-stealing deque (dynamic circular array variant) — the
// protocol core, as a header template.
//
// The owning worker pushes and pops at the bottom; thieves steal from the
// top. Lock-free; the only synchronizing CAS is between a thief and either
// another thief or the owner taking the last element. Memory orders follow
// Le, Pop, Cohen, Zappa Nardelli, "Correct and Efficient Work-Stealing for
// Weak Memory Models" (PPoPP'13).
//
// The class is parameterized over:
//   T      — the element type (a pointer; task* in the shipping runtime)
//   Traits — the synchronization traits (verify/sync.h): std::atomic and
//            friends in shipping builds, the instrumented verify shim under
//            the model-checking harness. The SAME template the runtime
//            executes is what hls_verify model-checks.
//   Policy — protocol-variant knobs. Shipping code always uses
//            deque_policy_default; the deliberately broken variants exist
//            only so the verification suite can prove the harness catches
//            the bugs they reintroduce (tests/verify_test.cpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/bits.h"
#include "util/cacheline.h"

// ThreadSanitizer does not model std::atomic_thread_fence, so the
// fence-based Chase-Lev publication (slot store relaxed; release fence;
// bottom store relaxed) is reported as a race even though it is correct
// under the C++ memory model (Le et al., PPoPP'13). Under TSAN we upgrade
// the per-operation orderings so the tool can see the happens-before edges;
// performance under a sanitizer is irrelevant.
//
// Ordering table (release/acquire pairs that hold in both builds):
//   grow(): ring_.store(release)   <->  steal()/steal_batch():
//                                       ring_.load(acquire)
//     a thief that observes a bottom_ past the old capacity also observes
//     the ring that holds those slots (acquire, not the deprecated
//     memory_order_consume: consume promotion is compiler-dependent).
//   push(): release fence + bottom_ <->  steal(): seq_cst fence + bottom_
//     publication of the slot contents to thieves.
//   top_ CAS (seq_cst)             <->  top_ CAS (seq_cst)
//     the single synchronizing race: thief vs thief vs owner for elements
//     near the top (see pop()'s near-empty path and steal_batch()).
#if defined(__SANITIZE_THREAD__)
#define HLS_DEQUE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HLS_DEQUE_TSAN 1
#endif
#endif

namespace hls::rt {

// Protocol-variant knobs. locked_pop_gen_bump: every locked-pop unlock
// bumps the generation field of top_. Disabling it reintroduces the ABA
// documented at the packed-word encoding below; the verification suite
// proves the harness detects that bug (double-executed and stranded
// tasks), so the knob must never be disabled outside tests/verify.
struct deque_policy_default {
  static constexpr bool locked_pop_gen_bump = true;
};

struct deque_policy_no_gen_bump {
  static constexpr bool locked_pop_gen_bump = false;
};

// Test-only steal_batch gate (shared across instantiations; see
// set_batch_claim_gate below). The ctx is published before the fn
// (release/acquire), so a concurrent thief that observes the fn also
// observes its ctx. Deliberately plain std::atomic even under the verify
// harness: the gate is a test seam, not part of the modeled protocol.
struct ws_deque_gate {
  using fn_type = void (*)(void* ctx);
  inline static std::atomic<void*> ctx{nullptr};
  inline static std::atomic<fn_type> fn{nullptr};
};

template <typename T, typename Traits, typename Policy = deque_policy_default>
class ws_deque_core {
  static_assert(std::is_pointer_v<T>,
                "ws_deque elements are pointers (empty == nullptr)");

  template <typename U>
  using atomic_t = typename Traits::template atomic<U>;

#ifdef HLS_DEQUE_TSAN
  static constexpr std::memory_order kSlotStore = std::memory_order_release;
  static constexpr std::memory_order kSlotLoad = std::memory_order_acquire;
  static constexpr std::memory_order kBottomPublish = std::memory_order_seq_cst;
#else
  static constexpr std::memory_order kSlotStore = std::memory_order_relaxed;
  static constexpr std::memory_order kSlotLoad = std::memory_order_relaxed;
  static constexpr std::memory_order kBottomPublish = std::memory_order_relaxed;
#endif

  // top_ is a packed word, not a bare index:
  //
  //   bit 63      owner lock — while set (pop()'s near-empty path) every
  //               steal/steal_batch probe reports empty, and every thief
  //               CAS fails anyway because its expected value is unlocked.
  //   bits 40–62  generation — bumped by every locked-pop unlock, so the
  //               raw value never returns to what a thief may have read
  //               before the lock. Without it there is an ABA: a thief
  //               reads top_ = t and slots [t, t+want), the owner
  //               lock/unlock-pops bottom slots inside that range
  //               (consuming them and restoring top_ = t), and the thief's
  //               CAS t -> t+want still succeeds — re-issuing tasks the
  //               owner already executed and stranding top_ above bottom_
  //               (later pushes below top_ are never popped or stolen;
  //               joins hang).
  //   bits 0–39   index — the Chase-Lev top pointer; monotonic. Thief
  //               CASes add directly to the raw word (index +1 or +want),
  //               leaving the generation untouched.
  //
  // Bounds: 2^40 lifetime pushes per deque (~10^12); a generation
  // collision needs a thief stalled between its top_ read and its CAS
  // across an exact multiple of 2^23 locked pops at an unmoved index
  // (north of half a second of continuous near-empty push/pop churn) —
  // both far outside operating range.
  static constexpr std::uint64_t kTopLockBit = std::uint64_t{1} << 63;
  static constexpr unsigned kTopGenShift = 40;
  static constexpr std::uint64_t kTopGenInc = std::uint64_t{1} << kTopGenShift;
  static constexpr std::uint64_t kTopIdxMask = kTopGenInc - 1;

  static std::int64_t top_index(std::uint64_t raw) noexcept {
    return static_cast<std::int64_t>(raw & kTopIdxMask);
  }

  // Unlock value after a locked pop: the index advances by `advance` (1
  // when the last element was taken, else 0) and the generation is always
  // bumped. A generation wrap carries into bit 63; the mask clears it.
  static std::uint64_t unlock_after_pop(std::uint64_t raw,
                                        std::uint64_t advance) noexcept {
    const std::uint64_t gen_inc = Policy::locked_pop_gen_bump ? kTopGenInc : 0;
    return (raw + advance + gen_inc) & ~kTopLockBit;
  }

 public:
  // Upper bound on tasks transferred by one steal_batch. Also the width of
  // the owner's "contended" window: pop() takes the bottom slot without a
  // CAS only while more than kStealBatchMax elements remain, since a batch
  // thief can claim at most kStealBatchMax slots from the top in one CAS
  // (see pop()/steal_batch() for the disjointness argument).
  static constexpr std::int64_t kStealBatchMax = 8;

  explicit ws_deque_core(std::size_t initial_capacity = 1u << 10)
      : ring_(new ring(next_pow2(initial_capacity < 2 ? 2
                                                      : initial_capacity))) {}

  ~ws_deque_core() { delete ring_.load(std::memory_order_relaxed); }

  ws_deque_core(const ws_deque_core&) = delete;
  ws_deque_core& operator=(const ws_deque_core&) = delete;

  // Owner only. Grows the array when full.
  void push(T t) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t tp = top_index(top_.load(std::memory_order_acquire));
    ring* r = ring_.load(std::memory_order_relaxed);
    if (b - tp > static_cast<std::int64_t>(r->capacity) - 1) {
      r = grow(r, b, tp);
    }
    r->put(b, t, kSlotStore);
    Traits::fence(std::memory_order_release);
    bottom_.store(b + 1, kBottomPublish);
  }

  // Owner only. Returns nullptr when empty.
  T pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    ring* r = ring_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    Traits::fence(std::memory_order_seq_cst);
    // Only the owner ever sets the lock bit, so the raw value read here is
    // always unlocked.
    std::uint64_t tr = top_.load(std::memory_order_relaxed);
    std::int64_t tp = top_index(tr);

    if (tp > b) {
      // Deque was empty; restore the invariant.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }

    if (b - tp >= kStealBatchMax) {
      // Deep deque: a batch thief claims at most kStealBatchMax slots
      // starting at a top it read at or after tp, so its claim end can
      // never reach slot b — the bottom take is uncontended, exactly like
      // the classic Chase-Lev non-last-element pop.
      return r->get(b, kSlotLoad);
    }

    // Near-empty: a batch claim could cover slot b, so the classic
    // "CAS only for the last element" rule is not enough. Briefly lock the
    // top instead: while the lock bit is set no thief can start or
    // complete a claim, the owner takes the bottom slot (preserving LIFO
    // order), then unlocks with a bumped generation — restoring the
    // pre-lock raw value verbatim would let a batch claim prepared before
    // the lock still commit afterwards (the ABA described in the encoding
    // block above). Lock-free for the system: the loop only retries when a
    // thief's CAS advanced top_, which is global progress.
    while (true) {
      if (top_.compare_exchange_strong(tr, tr | kTopLockBit,
                                       std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
        T t = r->get(b, kSlotLoad);
        if (tp == b) {
          // Took the last element; leave the deque empty and unlocked.
          top_.store(unlock_after_pop(tr, 1), std::memory_order_release);
          bottom_.store(b + 1, std::memory_order_relaxed);
        } else {
          top_.store(unlock_after_pop(tr, 0), std::memory_order_release);
        }
        return t;
      }
      // CAS failure reloaded tr: thieves advanced the top.
      tp = top_index(tr);
      if (tp > b) {
        bottom_.store(b + 1, std::memory_order_relaxed);
        return nullptr;
      }
    }
  }

  // Any thread. Returns nullptr when empty or when the steal races and
  // loses (the caller treats both as a failed steal attempt).
  T steal() {
    std::uint64_t tr = top_.load(std::memory_order_acquire);
    Traits::fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    // A set lock bit means the owner is mid locked-pop: report empty (the
    // CAS below could only fail anyway — its expected value is unlocked).
    if ((tr & kTopLockBit) != 0) return nullptr;
    const std::int64_t tp = top_index(tr);
    if (tp >= b) return nullptr;

    // Acquire pairs with the release store in grow(): a thief that
    // observes the new bottom_ must also observe the ring holding those
    // slots. (This was memory_order_consume, deprecated since C++17 and
    // promoted to acquire inconsistently across compilers — the pairing is
    // now explicit; see the ordering table at the top of this file.)
    ring* r = ring_.load(std::memory_order_acquire);
    T t = r->get(tp, kSlotLoad);
    if (!top_.compare_exchange_strong(tr, tr + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;  // lost the race
    }
    return t;
  }

  // Thief only; `into` must be the calling thread's OWN deque (extra tasks
  // are pushed onto it under the owner contract). Claims up to half of the
  // visible tasks — capped at kStealBatchMax — with a single top_ CAS;
  // returns the oldest claimed task for immediate execution and deposits
  // the remaining `*transferred - 1` into `into` in victim (FIFO) order.
  // Returns nullptr (with *transferred == 0) when empty or the CAS loses.
  T steal_batch(ws_deque_core& into, std::uint32_t* transferred) {
    *transferred = 0;
    std::uint64_t tr = top_.load(std::memory_order_acquire);
    Traits::fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    // Owner mid locked-pop: report empty rather than prepare a claim whose
    // CAS is guaranteed to fail.
    if ((tr & kTopLockBit) != 0) return nullptr;
    const std::int64_t tp = top_index(tr);
    if (tp >= b) return nullptr;

    // Up to half the visible tasks, capped at kStealBatchMax. The claim
    // range [tp, tp + want) stays strictly below the bottom_ we read, and
    // the owner's uncontended pops only touch slots at least kStealBatchMax
    // above the top_ it read — with the CAS below as the ordering point,
    // the two can never overlap (see pop()).
    const std::int64_t avail = b - tp;
    const std::int64_t want =
        std::min<std::int64_t>(kStealBatchMax, (avail + 1) / 2);
    ring* r = ring_.load(std::memory_order_acquire);
    T buf[kStealBatchMax];
    // Read before claiming: a successful CAS proves top_'s raw value was
    // untouched, and because every locked pop permanently bumps the
    // generation, an untouched raw value proves no claim AND no locked pop
    // happened in between — so these slots were still live when read
    // (grow() copies but never mutates the old ring, and the owner cannot
    // wrap within one capacity). A failed CAS discards them.
    for (std::int64_t i = 0; i < want; ++i) {
      buf[i] = r->get(tp + i, kSlotLoad);
    }
    if (auto gate = ws_deque_gate::fn.load(std::memory_order_acquire)) {
      gate(ws_deque_gate::ctx.load(std::memory_order_relaxed));
    }
    if (!top_.compare_exchange_strong(tr, tr + static_cast<std::uint64_t>(want),
                                      std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;  // lost the race (thief, batch thief, or owner lock)
    }
    // Oldest task goes to the caller; the surplus seeds the thief's own
    // deque in victim order, so its subsequent pops run them newest-first —
    // the same order a chain of single steals would have left behind.
    for (std::int64_t i = 1; i < want; ++i) into.push(buf[i]);
    *transferred = static_cast<std::uint32_t>(want);
    return buf[0];
  }

  // Racy size estimate; used only by advisory checks (the idle re-check
  // and the deep-push donation trigger).
  std::int64_t size_estimate() const noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    // The mask also strips a transient lock bit, yielding the pre-lock
    // index.
    const std::int64_t tp = top_index(top_.load(std::memory_order_relaxed));
    return b > tp ? b - tp : 0;
  }

  // Test-only seam: when set, invoked inside steal_batch between the slot
  // reads and the claim CAS, letting interleaving tests hold a prepared
  // claim in flight while the owner runs (see the locked-pop ABA
  // regression test). Costs one relaxed load + predicted-not-taken branch
  // per batch probe; never set outside tests. Pass nullptr to clear.
  using batch_claim_gate_fn = ws_deque_gate::fn_type;
  static void set_batch_claim_gate(batch_claim_gate_fn fn,
                                   void* ctx) noexcept {
    ws_deque_gate::ctx.store(ctx, std::memory_order_relaxed);
    ws_deque_gate::fn.store(fn, std::memory_order_release);
  }

 private:
  struct ring {
    explicit ring(std::size_t cap)
        : capacity(cap), mask(cap - 1), slots(new atomic_t<T>[cap]) {}
    std::size_t capacity;
    std::size_t mask;
    std::unique_ptr<atomic_t<T>[]> slots;

    T get(std::int64_t i, std::memory_order mo) const noexcept {
      return slots[static_cast<std::size_t>(i) & mask].load(mo);
    }
    void put(std::int64_t i, T t, std::memory_order mo) noexcept {
      slots[static_cast<std::size_t>(i) & mask].store(t, mo);
    }
  };

  ring* grow(ring* old, std::int64_t bottom, std::int64_t top) {
    auto* bigger = new ring(old->capacity * 2);
    for (std::int64_t i = top; i < bottom; ++i) {
      bigger->put(i, old->get(i, kSlotLoad), kSlotStore);
    }
    // Old ring stays alive until the deque is destroyed: a concurrent
    // thief may still be reading from it.
    retired_.emplace_back(old);
    ring_.store(bigger, std::memory_order_release);
    return bigger;
  }

  alignas(kCacheLine) atomic_t<std::uint64_t> top_{0};
  alignas(kCacheLine) atomic_t<std::int64_t> bottom_{0};
  alignas(kCacheLine) atomic_t<ring*> ring_;
  std::vector<std::unique_ptr<ring>> retired_;  // owner-only; freed at dtor
};

}  // namespace hls::rt
