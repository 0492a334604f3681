// Synchronization traits: the seam between the shipping runtime and the
// model-checking harness.
//
// The lock-free protocol cores (runtime/deque_core.h, runtime/
// parking_core.h, runtime/range_slot_core.h, core/claim_bitmap_core.h,
// core/chunk_queue_core.h) are header templates parameterized over a
// Traits type that supplies every synchronization primitive they touch:
//
//   Traits::atomic<T>   — std::atomic<T> in shipping builds,
//                         verify::atomic<T> under the harness
//   Traits::mutex       — annotated_mutex / verify::mutex
//   Traits::condvar     — annotated_condvar / verify::cond_slot
//   Traits::var<T>      — plain (non-atomic) shared field; a bare T in
//                         shipping builds, a race-checked cell under the
//                         harness (this is what lets the vector-clock
//                         checker catch a missing release/acquire edge as
//                         a data race on the field the edge protects)
//   Traits::fence(mo)   — std::atomic_thread_fence / instrumented fence
//   Traits::pause()     — spin-wait hint; under the harness a scheduler
//                         yield that blocks the spinner until another
//                         thread mutates shared state (making bounded
//                         exploration of spin loops terminate)
//
// real_traits below is the shipping instantiation: every member is a bare
// alias or an always-inline forwarder, so the instantiated cores compile
// to exactly the code the hand-written versions produced (checked by the
// BM_SpanOverhead / BM_DequePushSteal benchmarks). The harness instantiation
// lives in verify/shim.h.
#pragma once

#include <atomic>

#include "util/thread_safety.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#else
#include <thread>
#endif

namespace hls::sync {

// Plain shared field wrapper for shipping builds: loads and stores compile
// to direct member accesses. The explicit load()/store() spelling exists
// so the harness build can interpose a race check on every access.
template <typename T>
class plain_var {
 public:
  constexpr plain_var() = default;
  constexpr explicit plain_var(T v) : v_(v) {}

  T load() const noexcept { return v_; }
  void store(T v) noexcept { v_ = v; }

  // Checker-bypassing access; identical to load() in shipping builds.
  T raw() const noexcept { return v_; }

 private:
  T v_{};
};

struct real_traits {
  template <typename T>
  using atomic = std::atomic<T>;

  using mutex = hls::annotated_mutex;
  using condvar = hls::annotated_condvar;

  template <typename T>
  using var = plain_var<T>;

  static void fence(std::memory_order mo) noexcept {
    std::atomic_thread_fence(mo);
  }

  static void pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#else
    std::this_thread::yield();
#endif
  }
};

}  // namespace hls::sync
