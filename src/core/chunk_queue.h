// The central queue of dynamic_shared and guided: chunk_queue_core (the
// protocol, core/chunk_queue_core.h) on the shipping atomics. The
// threaded runtime's queue_record and the simulator's queue both take
// their chunks from it; the chunk-queue model in hls_verify runs the same
// template on the harness's atomics.
#pragma once

#include "core/chunk_queue_core.h"
#include "verify/sync.h"

namespace hls::core {

using chunk_queue = chunk_queue_core<sync::real_traits>;

}  // namespace hls::core
