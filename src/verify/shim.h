// Instrumented synchronization shim: the harness-side instantiation of the
// traits seam (verify/sync.h).
//
// verify::atomic<T>, verify::mutex, verify::cond_slot and verify::var<T>
// store their values as ordinary fields; what makes them instrumented is
// that every operation first parks the calling fiber at a scheduler op
// point (verify/sched.h) and then feeds the vector-clock checker
// (verify/vclock.h). Plugging verify_traits into a shipping protocol core
// template therefore model-checks the exact code the runtime executes —
// same template, different traits.
//
// Fidelity notes:
//   * compare_exchange_weak never fails spuriously here. A spurious
//     failure is indistinguishable from losing the CAS race, and the
//     contended-failure path IS explored, so no interleavings are lost —
//     the weak/strong distinction only matters for hardware, not for the
//     state space.
//   * cond_slot waits are untimed regardless of the timeout passed to
//     wait_for: a protocol that only terminates because a backstop fires
//     deadlocks under the harness, which is exactly the lost-wakeup signal
//     the parking model relies on.
//   * notify_one wakes every waiter. That is a sound superset of real
//     condvar behavior (POSIX permits spurious wakeups and gives no
//     fairness guarantee), and the predicate re-check loops the shipping
//     code already needs make the extra wakes invisible.
//   * Outside an active exploration all hooks are no-ops and the types
//     degrade to their plain equivalents, so verify-instrumented objects
//     can be constructed, inspected, and destroyed freely between
//     executions.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <type_traits>

#include "verify/sched.h"

namespace hls::verify {

namespace detail {
template <typename T>
std::uint64_t to_u64(T v) noexcept {
  if constexpr (std::is_pointer_v<T>) {
    return reinterpret_cast<std::uint64_t>(v);
  } else if constexpr (std::is_enum_v<T>) {
    return static_cast<std::uint64_t>(
        static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_integral_v<T> || std::is_same_v<T, bool>) {
    return static_cast<std::uint64_t>(v);
  } else {
    return 0;  // non-scalar payloads carry no trace value
  }
}
}  // namespace detail

template <typename T>
class atomic {
 public:
  using value_type = T;

  atomic() noexcept : atomic(T{}) {}
  explicit atomic(T v) noexcept : v_(v), id_(detail::reg_atomic()) {}

  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order mo = std::memory_order_seq_cst) const noexcept {
    detail::op_load(id_, mo);
    T v = v_;
    detail::note_value(detail::to_u64(v));
    return v;
  }

  void store(T v, std::memory_order mo = std::memory_order_seq_cst) noexcept {
    detail::op_store(id_, mo);
    v_ = v;
    detail::note_value(detail::to_u64(v));
  }

  T exchange(T v, std::memory_order mo = std::memory_order_seq_cst) noexcept {
    detail::op_rmw(id_, mo);
    T old = v_;
    v_ = v;
    detail::note_value(detail::to_u64(old));
    return old;
  }

  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order ok = std::memory_order_seq_cst) noexcept {
    return compare_exchange_strong(expected, desired, ok, cas_fail_order(ok));
  }

  bool compare_exchange_strong(T& expected, T desired, std::memory_order ok,
                               std::memory_order fail) noexcept {
    detail::op_cas_point(id_);
    const bool success = (v_ == expected);
    if (success) {
      v_ = desired;
    } else {
      expected = v_;
    }
    detail::op_cas_resolve(id_, success, ok, fail);
    detail::note_value(detail::to_u64(v_));
    return success;
  }

  // See the fidelity note above: weak == strong under the harness.
  bool compare_exchange_weak(
      T& expected, T desired,
      std::memory_order ok = std::memory_order_seq_cst) noexcept {
    return compare_exchange_strong(expected, desired, ok, cas_fail_order(ok));
  }
  bool compare_exchange_weak(T& expected, T desired, std::memory_order ok,
                             std::memory_order fail) noexcept {
    return compare_exchange_strong(expected, desired, ok, fail);
  }

  template <typename U = T>
  T fetch_add(U d, std::memory_order mo = std::memory_order_seq_cst) noexcept {
    detail::op_rmw(id_, mo);
    T old = v_;
    v_ = static_cast<T>(v_ + d);
    detail::note_value(detail::to_u64(old));
    return old;
  }
  template <typename U = T>
  T fetch_sub(U d, std::memory_order mo = std::memory_order_seq_cst) noexcept {
    detail::op_rmw(id_, mo);
    T old = v_;
    v_ = static_cast<T>(v_ - d);
    detail::note_value(detail::to_u64(old));
    return old;
  }
  template <typename U = T>
  T fetch_or(U d, std::memory_order mo = std::memory_order_seq_cst) noexcept {
    detail::op_rmw(id_, mo);
    T old = v_;
    v_ = static_cast<T>(v_ | d);
    detail::note_value(detail::to_u64(old));
    return old;
  }
  template <typename U = T>
  T fetch_and(U d, std::memory_order mo = std::memory_order_seq_cst) noexcept {
    detail::op_rmw(id_, mo);
    T old = v_;
    v_ = static_cast<T>(v_ & d);
    detail::note_value(detail::to_u64(old));
    return old;
  }

  // Checker- and scheduler-bypassing access, for model fingerprints and
  // final-state assertions only.
  T raw() const noexcept { return v_; }

 private:
  static constexpr std::memory_order cas_fail_order(
      std::memory_order ok) noexcept {
    switch (ok) {
      case std::memory_order_acq_rel:
      case std::memory_order_acquire:
        return std::memory_order_acquire;
      case std::memory_order_seq_cst:
        return std::memory_order_seq_cst;
      default:
        return std::memory_order_relaxed;
    }
  }

  T v_;
  std::uint64_t id_;
};

// Race-checked plain shared field (the harness side of sync::plain_var).
template <typename T>
class var {
 public:
  var() noexcept : var(T{}) {}
  explicit var(T v) noexcept : v_(v), id_(detail::reg_var()) {}

  var(const var&) = delete;
  var& operator=(const var&) = delete;

  T load() const noexcept {
    detail::op_var_read(id_);
    T v = v_;
    detail::note_value(detail::to_u64(v));
    return v;
  }
  void store(T v) noexcept {
    detail::op_var_write(id_);
    v_ = v;
    detail::note_value(detail::to_u64(v));
  }
  T raw() const noexcept { return v_; }

 private:
  T v_;
  std::uint64_t id_;
};

// Satisfies the BasicLockable/Lockable requirements so std::lock_guard and
// std::unique_lock work unchanged.
class mutex {
 public:
  mutex() noexcept : id_(detail::reg_mutex()) {}
  mutex(const mutex&) = delete;
  mutex& operator=(const mutex&) = delete;

  void lock() noexcept { detail::mutex_lock(id_); }
  bool try_lock() noexcept { return detail::mutex_try_lock(id_); }
  void unlock() noexcept { detail::mutex_unlock(id_); }

  std::uint64_t id() const noexcept { return id_; }

 private:
  std::uint64_t id_;
};

// Condition variable over verify::mutex, interface-compatible with the
// annotated_condvar subset the cores use (wait_for with predicate,
// notify_one, notify_all). Untimed under the harness — see the fidelity
// notes in the header comment.
class cond_slot {
 public:
  cond_slot() noexcept : id_(detail::reg_cond()) {}
  cond_slot(const cond_slot&) = delete;
  cond_slot& operator=(const cond_slot&) = delete;

  template <typename Pred>
  bool wait_for(std::unique_lock<mutex>& lk,
                std::chrono::nanoseconds /*timeout*/, Pred pred) {
    while (!pred()) {
      detail::cond_wait(id_, lk.mutex()->id());
    }
    return true;
  }

  void notify_one() noexcept { detail::cond_notify(id_, /*all=*/false); }
  void notify_all() noexcept { detail::cond_notify(id_, /*all=*/true); }

 private:
  std::uint64_t id_;
};

struct verify_traits {
  template <typename T>
  using atomic = hls::verify::atomic<T>;

  using mutex = hls::verify::mutex;
  using condvar = hls::verify::cond_slot;

  template <typename T>
  using var = hls::verify::var<T>;

  static void fence(std::memory_order mo) noexcept { detail::op_fence(mo); }

  // Under the harness a spin-wait hint blocks the spinner until another
  // thread mutates shared state — a spin loop whose exit condition nobody
  // can still change becomes a detected deadlock instead of a livelock.
  static void pause() noexcept { detail::op_pause(); }
};

}  // namespace hls::verify
