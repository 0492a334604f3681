// The loop participation board.
//
// Emulates the paper's "steal into a parallel loop" behaviour without
// compiler-supported continuation stealing: a running loop is published
// here, and idle workers consult the board before random stealing. Each
// policy decides in participate() what an arriving worker does — take its
// earmarked static block, grab chunks from the shared queue, or run the
// hybrid DoHybridLoop protocol under its own worker ID.
//
// Lifetime protocol: post/clear are rare (once per loop) and serialize on a
// mutex; the hot visit path is lock-free. Each slot pairs a raw published
// pointer with a visitor reader count: clear() unpublishes the pointer and
// then waits for in-flight visitors of that slot before dropping the
// keeper reference, and visitors re-check the pointer after announcing
// themselves, so either the visitor sees the unpublish or clear waits.
// (std::atomic<std::shared_ptr> would also work but its libstdc++
// implementation takes an internal spinlock per access and is not
// TSAN-clean.)
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "util/cacheline.h"

namespace hls::rt {

class worker;

class loop_record {
 public:
  virtual ~loop_record() = default;

  // An idle worker offers to participate in this loop. Returns true if the
  // worker performed any work. Implementations must be safe to call
  // concurrently from all workers and must return (not block) once the loop
  // has no work left to hand out.
  virtual bool participate(worker& w) = 0;

  // True once every iteration of the loop has executed.
  virtual bool finished() const noexcept = 0;

  // Health-watchdog escalation: the owner of an unfinished earmarked
  // partition (or open range span) appears stalled, so any outstanding
  // ownership reservations should be released for immediate rescue by
  // whoever arrives next. Default: no-op (most policies have no
  // reservations to release). Implementations must be safe to call from a
  // non-worker thread concurrently with participate(), must not block,
  // and must preserve exactly-once (the hybrid record arms its rescue
  // sweep, which claims through the ordinary claim flags — Theorem 3
  // holds whether the claimant is the designated owner or a rescuer).
  virtual void request_rescue() noexcept {}
};

class board {
 public:
  static constexpr int kSlots = 16;  // concurrently open (nested) loops

  board() = default;
  board(const board&) = delete;
  board& operator=(const board&) = delete;

  // "No poster" value for poster_hint().
  static constexpr std::uint32_t kNoPoster = 0xffffffffu;

  // Publishes a loop; returns the slot to pass to clear(), or -1 when all
  // slots are occupied (deep help-first nesting). An unposted loop is still
  // correct: the posting worker completes it single-handedly and thieves
  // can still split its open spans through ordinary steals; only
  // board-mediated arrival is lost. `poster` (a worker id)
  // records who posted, feeding the thieves' victim-affinity heuristic.
  int post(std::shared_ptr<loop_record> rec, std::uint32_t poster = kNoPoster);

  // Unpublishes the slot and blocks until in-flight visitors leave it.
  // Must only be called after the loop has finished (visitors of a
  // finished record return promptly).
  void clear(int slot);

  // Lets worker w participate in open loops, innermost (most recently
  // posted) first. Returns true if any participation did work.
  bool visit(worker& w);

  bool any_open() const noexcept;

  // Forwards a watchdog rescue request to every open, unfinished loop
  // (see loop_record::request_rescue). Callable from any thread; uses the
  // same readers/re-read lifetime protocol as visit(), so it never races
  // with clear().
  void request_rescue() noexcept;

  // The worker id of the most recent post, or kNoPoster once the board
  // drains. A thief probes this worker right after its last successful
  // victim: the poster runs its share of the loop as a span published in
  // its range slot (lazy splitting, runtime/range_slot.h), and the probe
  // tries that slot before the deque, so the hint points the thief at the
  // open span a split can take half of. Racy and advisory — a stale hint
  // costs one extra probe, nothing more.
  std::uint32_t poster_hint() const noexcept {
    return poster_.load(std::memory_order_relaxed);
  }

 private:
  struct slot {
    // Dekker pair between visit's (readers++; re-read ptr) and clear's
    // (ptr = null; drain readers): the announce fetch_add and the
    // unpublish store are seq_cst so the two sides cannot both miss each
    // other; the retire fetch_sub (release) pairs with the drain load
    // (acquire) to order record use before keeper.reset(). Full table:
    // docs/runtime.md#board-ordering, contract: board.contract.toml.
    std::atomic<loop_record*> ptr{nullptr};
    alignas(kCacheLine) std::atomic<int> readers{0};
    std::shared_ptr<loop_record> keeper;  // guarded by mu_
  };

  std::mutex mu_;  // post/clear bookkeeping only
  slot slots_[kSlots];
  std::atomic<std::uint32_t> poster_{kNoPoster};
};

}  // namespace hls::rt
