// The loop participation board.
//
// Emulates the paper's "steal into a parallel loop" behaviour without
// compiler-supported continuation stealing: a running loop is published
// here, and idle workers consult the board before random stealing. Each
// policy decides in participate() what an arriving worker does — take its
// earmarked static block, grab chunks from the shared queue, or run the
// hybrid DoHybridLoop protocol under its own worker ID.
//
// Lifetime protocol: the board owns nothing. A record lives in its
// poster's frame (sched/parallel_for.cpp), which must not return before
// clear() does. post/clear are rare (once per loop) and serialize on a
// mutex; the hot visit path is lock-free. Each slot pairs a raw published
// pointer with a reader gate (runtime/reader_gate_core.h, the same gate
// the range slot closes through): a visitor reads the pointer through the
// gate, and clear() retracts it through the gate, which waits out every
// visitor that may still hold the record before the slot is freed (and
// the poster frees the record).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "runtime/reader_gate_core.h"
#include "verify/sync.h"

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

  // Publishes a loop; returns the slot to pass to clear(), or -1 when all
  // slots are occupied (deep help-first nesting). An unposted loop is still
  // correct: the poster runs it as a range span, whatever its policy, and
  // idle peers split that span through ordinary steals; only
  // board-mediated arrival is lost. The record is not owned: it must
  // outlive the matching clear().
  int post(loop_record* rec);

  // Unpublishes the slot and spins until in-flight visitors leave it;
  // once it returns no visitor touches the record again. Must only be
  // called after the loop has finished (visitors of a finished record
  // return promptly).
  void clear(int slot);

  // Lets worker w participate in open loops, innermost (most recently
  // posted) first. Returns true if any participation did work.
  bool visit(worker& w);

  bool any_open() const noexcept;

  // Forwards a watchdog rescue request to every open, unfinished loop
  // (see loop_record::request_rescue). Callable from any thread; walks the
  // slots as visit() does (for_each_open), so it never races with clear().
  void request_rescue() noexcept;

  // Number of posts so far. A steal round compares it with the value it
  // read before its board visit and ends early when it moved: a new loop
  // is better work than another random probe. Racy and advisory — a stale
  // read costs one probe, or one visit that finds nothing.
  std::uint64_t posts() const noexcept {
    return posts_.load(std::memory_order_relaxed);
  }

 private:
  struct slot {
    // Published by post (release), read by visitors through the gate and
    // retracted by clear through it. Contracts: board.contract.toml and
    // reader_gate_core.contract.toml (docs/runtime.md#board-contract).
    std::atomic<loop_record*> ptr{nullptr};
    // Taken by post, freed by clear after the drain: a slot whose record
    // is unpublished but still has visitors is not reused.
    bool occupied = false;  // guarded by mu_
    reader_gate_core<sync::real_traits> gate;  // its own cache line
  };

  // Calls fn(rec) for each published, unfinished record, innermost first,
  // inside the slot's reader gate, the visitor half of clear()'s retract.
  // visit() and request_rescue() are its two callers (board.cpp).
  template <typename Fn>
  void for_each_open(Fn&& fn);

  std::mutex mu_;  // post/clear bookkeeping only
  slot slots_[kSlots];
  std::atomic<std::uint64_t> posts_{0};
};

}  // namespace hls::rt
