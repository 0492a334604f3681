// Shipping instantiation of the splittable-range slot (a small stack of
// them per worker, rt::worker::kSpanSlots).
//
// The open/reserve/try_steal/close-drain protocol lives in
// runtime/range_slot_core.h as a template over the synchronization traits
// (verify/sync.h), so the EXACT code the runtime executes is also what the
// hls_verify model-checking harness explores. This header pins the
// template to the real std::atomic-backed traits and the scheduler-layer
// runner signature.
#pragma once

#include <cstdint>

#include "runtime/range_slot_core.h"
#include "verify/sync.h"

namespace hls::rt {

class worker;

// Invoked on the thief to execute a stolen range. The ctx is the opaque
// pointer passed to open(); the scheduler layer supplies a thunk that
// downcasts it (runtime/ cannot depend on sched/).
using range_span_runner = void (*)(worker& thief, void* ctx, std::int64_t lo,
                                   std::int64_t hi);

class range_slot
    : public range_slot_core<sync::real_traits, range_span_runner> {
 public:
  using span_runner = range_span_runner;
  using range_slot_core<sync::real_traits, range_span_runner>::range_slot_core;
};

}  // namespace hls::rt
