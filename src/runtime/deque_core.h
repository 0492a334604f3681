// Chase-Lev work-stealing deque (dynamic circular array variant) — the
// protocol core, as a header template.
//
// The owning worker pushes and pops at the bottom; thieves steal one
// element at a time from the top. Lock-free; the only synchronizing CAS is
// on top_, between a thief and either another thief or the owner taking
// the last element. Memory orders follow Le, Pop, Cohen, Zappa Nardelli,
// "Correct and Efficient Work-Stealing for Weak Memory Models" (PPoPP'13).
//
// The class is parameterized over:
//   T      — the element type (a pointer; task* in the shipping runtime)
//   Traits — the synchronization traits (verify/sync.h): std::atomic and
//            friends in shipping builds, the instrumented verify shim under
//            the model-checking harness. The SAME template the runtime
//            executes is what hls_verify model-checks.
//   Policy — protocol-variant knobs. Shipping code always uses
//            deque_policy_default; the deliberately broken variant exists
//            only so the verification suite can prove the harness catches
//            the bug it reintroduces (tests/verify_test.cpp).
#pragma once

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
//   grow(): ring_.store(release)   <->  steal(): ring_.load(acquire)
//     a thief that observes a bottom_ past the old capacity also observes
//     the ring that holds those slots (acquire, not the deprecated
//     memory_order_consume: consume promotion is compiler-dependent).
//   push(): release fence + bottom_ <->  steal(): seq_cst fence + bottom_
//     publication of the slot contents to thieves.
//   top_ CAS (seq_cst)             <->  top_ CAS (seq_cst)
//     the single synchronizing race: thief vs thief vs owner for the last
//     element (see pop()).
#if defined(__SANITIZE_THREAD__)
#define HLS_DEQUE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HLS_DEQUE_TSAN 1
#endif
#endif

namespace hls::rt {

// Protocol-variant knobs. last_pop_cas: the owner takes the last element
// through the top_ CAS, racing any thief that read the same top. Without
// it the owner claims the element with a plain store, so a thief whose CAS
// lands first and the owner both take it; the verification suite proves
// the harness detects that double execution, so the knob must never be
// disabled outside tests/verify.
struct deque_policy_default {
  static constexpr bool last_pop_cas = true;
};

struct deque_policy_no_last_cas {
  static constexpr bool last_pop_cas = false;
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

 public:
  explicit ws_deque_core(std::size_t initial_capacity = 1u << 10)
      : ring_(new ring(next_pow2(initial_capacity < 2 ? 2
                                                      : initial_capacity))) {}

  ~ws_deque_core() { delete ring_.load(std::memory_order_relaxed); }

  ws_deque_core(const ws_deque_core&) = delete;
  ws_deque_core& operator=(const ws_deque_core&) = delete;

  // Owner only. Grows the array when full.
  void push(T t) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t tp = top_.load(std::memory_order_acquire);
    ring* r = ring_.load(std::memory_order_relaxed);
    if (b - tp > static_cast<std::int64_t>(r->capacity) - 1) {
      r = grow(r, b, tp);
    }
    r->put(b, t, kSlotStore);
    Traits::fence(std::memory_order_release);
    bottom_.store(b + 1, kBottomPublish);
  }

  // Owner only. Returns nullptr when empty, or when a thief won the race
  // for the last element.
  T pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    ring* r = ring_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    Traits::fence(std::memory_order_seq_cst);
    std::int64_t tp = top_.load(std::memory_order_relaxed);

    if (tp > b) {
      // Deque was empty; restore the invariant.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }

    // A thief reaches slot b only after the slots below it are taken, and
    // the seq_cst fences make such a thief read the retracted bottom_; so
    // with more than one element left the bottom slot needs no CAS.
    T t = r->get(b, kSlotLoad);
    if (tp == b) {
      // Single element: race thieves for it through top_.
      if constexpr (Policy::last_pop_cas) {
        if (!top_.compare_exchange_strong(tp, tp + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          t = nullptr;  // a thief won
        }
      } else {
        top_.store(tp + 1, std::memory_order_relaxed);
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return t;
  }

  // Any thread. Takes the oldest element. Returns nullptr when empty or
  // when the steal races and loses (the caller treats both as a failed
  // steal attempt).
  T steal() {
    std::int64_t tp = top_.load(std::memory_order_acquire);
    Traits::fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (tp >= b) return nullptr;

    // Acquire pairs with the release store in grow(): a thief that
    // observes the new bottom_ must also observe the ring holding those
    // slots (see the ordering table at the top of this file).
    ring* r = ring_.load(std::memory_order_acquire);
    T t = r->get(tp, kSlotLoad);
    if (!top_.compare_exchange_strong(tp, tp + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;  // lost the race
    }
    return t;
  }

  // Racy size estimate; used only by advisory checks (the idle re-check).
  std::int64_t size_estimate() const noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t tp = top_.load(std::memory_order_relaxed);
    return b > tp ? b - tp : 0;
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

  alignas(kCacheLine) atomic_t<std::int64_t> top_{0};
  alignas(kCacheLine) atomic_t<std::int64_t> bottom_{0};
  alignas(kCacheLine) atomic_t<ring*> ring_;
  std::vector<std::unique_ptr<ring>> retired_;  // owner-only; freed at dtor
};

}  // namespace hls::rt
