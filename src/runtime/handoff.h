// Shipping instantiation of the per-worker work-handoff mailbox (one per
// worker, owned by the runtime).
//
// The claim/publish/take protocol lives in runtime/handoff_core.h as a
// template over the synchronization traits (verify/sync.h), so the EXACT
// code the runtime executes is also what the hls_verify handoff model
// explores. This header pins the template to the real std::atomic-backed
// traits and the scheduler-layer payload.
#pragma once

#include <cstdint>

#include "runtime/handoff_core.h"
#include "runtime/range_slot.h"  // range_span_runner
#include "util/cacheline.h"
#include "verify/sync.h"

namespace hls::rt {

// What a wake carries: a pre-split loop range, executed through the same
// runner thunk a range-slot steal uses, so the receiver opens its own slot
// and keeps splitting recursively.
struct handoff_item {
  range_span_runner run = nullptr;
  void* ctx = nullptr;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

// Padded so one worker's mailbox traffic never false-shares with its
// neighbours' (the array is indexed by worker id, like the parking slots).
struct alignas(kCacheLine) handoff_slot
    : handoff_slot_core<handoff_item, sync::real_traits> {};

}  // namespace hls::rt
