// Factories for the verification models: small closed scenarios that
// exercise the shipping protocol cores (the exact templates the runtime
// instantiates) under the model-checking harness.
//
// Each factory returns a verify::model for explore(). The `broken_*`
// parameters select a deliberately-miscompiled protocol variant (a Policy
// with one safeguard removed, or a model-side omission of a required
// protocol step); the verification suite proves the harness catches each
// one with a replayable trace, which is the evidence that the passing
// results on the real protocol mean something.
//
// Invariants checked, and where they come from:
//
//   claim      — every partition executed exactly once (Theorem 3) and
//                per-worker max consecutive claim failures <= lg R
//                (Lemma 4), over the real run_claim_loop + fetch_or flags.
//   deque      — work conservation: every pushed task is executed exactly
//                once, no double-execution and no stranded task, over
//                ws_deque_core's push/pop/steal (including the owner's
//                last-element CAS and a ring that grows mid-steal).
//   range_slot — every iteration of every published span executed exactly
//                once across owner reserve and thief steals, including a
//                close-then-reopen of the same slot; the close() drain is
//                what makes the reopen safe, and the vector-clock checker
//                is what catches its absence. The range_word variants add
//                the split/hi handshake itself, and a split floor the
//                owner lowers while the thief steals.
//   parking    — no lost wakeup: a consumer using the prepare/re-check/
//                park protocol always terminates; skipping the re-check
//                deadlocks (detected, with the interleaving that lost the
//                wake). The fan-out case adds that one unpark_n(k) reaches
//                k distinct waiters and that every wake it counts is
//                received; merging a wake into a pending slot is caught
//                as a wake no waiter received. The join case adds that a
//                work_until joiner parked with no visible work is woken
//                by the retire broadcast alone; without it, caught as a
//                deadlock.
#pragma once

#include <cstdint>
#include <memory>

#include "verify/sched.h"

namespace hls::verify {

// Claim protocol of Algorithms 2/3 with `workers` model threads over
// `partitions` flags (power of two, workers <= partitions, workers <= 8).
std::unique_ptr<model> make_claim_model(std::uint32_t workers,
                                        std::uint64_t partitions);

// Owner (push x3 into a capacity-2 ring, pop-all) vs a one-task-per-steal
// thief on one ws_deque_core. broken_no_last_cas selects
// deque_policy_no_last_cas, where the owner takes the last element with a
// plain top_ store (caught as a double-executed task).
std::unique_ptr<model> make_deque_model(bool broken_no_last_cas);

// Owner publishing, consuming, closing and REOPENING one range_slot_core
// span vs a thief probing try_steal. broken_no_drain selects
// range_slot_policy_no_drain, reintroducing the use-after-reopen race the
// close() drain prevents (caught as a vector-clock data race).
std::unique_ptr<model> make_range_slot_model(bool broken_no_drain);

// The range_slot's one-word claims: an owner consuming one fine-grained
// span with reserve CASes on {split | hi} vs a thief's steal CAS on the
// same word. broken_blind_reserve selects range_slot_policy_blind_reserve,
// a load-then-store reserve that can write back a hi the thief just
// lowered (caught as a double-executed iteration).
std::unique_ptr<model> make_range_word_model(bool broken_blind_reserve);

// The same claims with a moving split floor: the span opens at grain 3
// and the owner lowers it to 1 (set_grain) between its first two reserves
// while the thief steals. Exactly-once and no hole must still hold.
std::unique_ptr<model> make_range_floor_model();

// Batched claim-flag bitmap: run_claim_loop over bit-packed fetch_or
// flags (one word, mirroring partition_set's R >= threshold storage) with
// one permanently-lying partition, then the word-at-a-time leftover sweep
// that restores coverage. broken_nonatomic replaces the sweep's fetch_or
// with a load-then-store RMW (caught as a double-executed partition).
std::unique_ptr<model> make_claim_bitmap_model(bool broken_nonatomic);

// Producer/consumer over parking_lot_core. broken_skip_recheck makes the
// consumer park without the post-prepare_park re-check, reintroducing the
// classic lost-wakeup (caught as a deadlock).
std::unique_ptr<model> make_parking_model(bool broken_skip_recheck);

// Fan-out case of the parking model: a poster posts two one-chunk loops
// (unpark_n(1) each), joins, then posts one block per team member with a
// single unpark_n(2) — both parked members must wake from that one call.
// broken_merge_pending selects parking_policy_merge_pending, letting
// unpark_n re-bump a slot whose wake is still pending and count it as
// delivered (two wakes merged into one; caught as a lost wakeup: a wake
// reported sent that no waiter received).
std::unique_ptr<model> make_parking_fanout_model(bool broken_merge_pending);

// The join edge of work_until over parking_lot_core: a team member
// publishes the loop's last range and races the joiner for it, and
// whoever runs it retires with unpark_all; the joiner parks through
// idle_park's `work visible || done` re-check. broken_no_broadcast omits
// the broadcast, leaving a joiner parked with no visible work to lean on
// the (harness-disabled) backstop timeout — caught as a deadlock.
std::unique_ptr<model> make_join_model(bool broken_no_broadcast);

// Push-based work handoff: donor deposit/publish + targeted unpark_at vs
// the owner's consume, a thief's poach, and the donor's failed-wake
// reclaim, over handoff_slot_core + parking_lot_core. Lost work is
// modeled as a deadlock (the donor cannot retire the loop until the
// payload executes). broken_dropped drops the deposit on a failed wake
// with every rescue layer removed (no reclaim, no mailbox term in the
// idle re-check, no poach) — caught as a deadlock with the stranding
// interleaving.
std::unique_ptr<model> make_handoff_model(bool broken_dropped);

}  // namespace hls::verify
