// Reader gate: the existence half of a publish/retract protocol — the
// protocol core the loop board and the range slot share, as a header
// template.
//
// A publisher makes an object reachable through one atomic it owns (the
// board's record pointer, the range slot's span word). A reader reads
// that atomic through enter() and may use what it names until leave().
// retract() swaps in a closed value and waits out every reader that may
// still hold the old one, so once it returns the publisher may free or
// rewrite what the old value named.
//
// enter is an announce (readers_++) then a read of the atomic; retract is
// an exchange then a drain (spin until readers_ == 0). The four are
// seq_cst, a store→load Dekker pair: in the single total order either the
// read follows the exchange (the reader sees the closed value) or the
// drain follows the announce (it waits for the reader). The drain may not
// be acquire: an acquire load is outside that order, so the model lets it
// read zero while a reader whose read still saw the object goes on using
// it (x86 forbids the outcome, AArch64 and POWER allow it). leave is a
// release, so what a reader did happens-before retract() returns.
//
// Template parameters:
//   Traits — synchronization traits (verify/sync.h): sync::real_traits in
//            the board and the shipping range slot, verify_traits in the
//            range_slot models.
//   Reread — true in all shipping code. false reads the atomic before the
//            announce, the seeded-broken range_slot-broken-noreread
//            variant (see verify_test.cpp).
#pragma once

#include <atomic>  // std::memory_order (the traits' atomics share its enum)
#include <cstdint>

#include "util/cacheline.h"

namespace hls::rt {

template <typename Traits, bool Reread = true>
class reader_gate_core {
  template <typename U>
  using atomic_t = typename Traits::template atomic<U>;

 public:
  reader_gate_core() = default;
  reader_gate_core(const reader_gate_core&) = delete;
  reader_gate_core& operator=(const reader_gate_core&) = delete;

  // Announces the caller, then reads `published`. Every enter() needs one
  // leave(), whatever it read.
  template <typename Atomic>
  typename Atomic::value_type enter(const Atomic& published) noexcept {
    if constexpr (Reread) {
      readers_.fetch_add(1, std::memory_order_seq_cst);
      return published.load(std::memory_order_seq_cst);
    } else {
      const auto v = published.load(std::memory_order_acquire);
      readers_.fetch_add(1, std::memory_order_seq_cst);
      return v;
    }
  }

  void leave() noexcept { readers_.fetch_sub(1, std::memory_order_release); }

  // Publisher only: stores `closed`, waits until no reader that may hold
  // the previous value is inside the gate, and returns that value.
  template <typename Atomic>
  typename Atomic::value_type retract(
      Atomic& published, typename Atomic::value_type closed) noexcept {
    const auto last = published.exchange(closed, std::memory_order_seq_cst);
    while (readers_.load(std::memory_order_seq_cst) != 0) Traits::pause();
    return last;
  }

 private:
  // On its own line, so announces do not bounce the published atomic's.
  alignas(kCacheLine) atomic_t<std::uint32_t> readers_{0};
};

}  // namespace hls::rt
