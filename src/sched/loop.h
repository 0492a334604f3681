// Public parallel-loop API.
//
// A single entry point, parallel_for, schedules a loop under one of the
// policies the paper evaluates:
//
//   serial         - no parallelism (the Ts baseline)
//   static_part    - P earmarked blocks, strict ownership (omp static)
//   dynamic_shared - fixed-size chunks off a central queue (omp dynamic)
//   guided         - decreasing chunks off a central queue (omp guided)
//   dynamic_ws     - divide-and-conquer + randomized work stealing
//                    (vanilla Cilk's cilk_for)
//   hybrid         - the paper's contribution: static partitions + the XOR
//                    claiming heuristic + work stealing inside partitions
//
// The body receives half-open chunks [begin, end); use for_each for a
// per-index body.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>

#include "runtime/runtime.h"
#include "sched/cancel.h"
#include "sched/policy.h"
#include "util/function_ref.h"

namespace hls::trace {
class loop_trace;
}

namespace hls::telemetry {
struct loop_site;
}

namespace hls {

struct loop_options {
  // Sequential grain of divide-and-conquer loops (dynamic_ws and inside
  // hybrid partitions): a span's starting chunk, which is also its largest.
  // Spans split below it when a grain measures slower than the split
  // target (sched::kSplitTargetNs, a few microseconds): the loop's first
  // such measurement lowers its split floor to the iterations that fit
  // the target. 0 selects Cilk's default min(2048, ceil(N / 8P)).
  std::int64_t grain = 0;

  // Fixed chunk size for dynamic_shared. 0 selects the same formula as
  // grain (the paper adjusts all platforms to one chunk size).
  std::int64_t chunk = 0;

  // Smallest chunk guided partitioning hands out.
  std::int64_t min_chunk = 1;

  // Hybrid partition count before rounding to a power of two. 0 selects the
  // worker count P (the paper's common case, Corollary 6).
  std::uint32_t partitions = 0;

  // Optional execution trace (affinity / memsim experiments).
  trace::loop_trace* trace = nullptr;

  // Optional loop-site identity (telemetry/profiler.h), usually captured
  // with HLS_LOOP_SITE("name"). When a loop_profiler is installed on the
  // runtime's registry, each invocation records under the site's
  // file:line key; when event tracing is enabled
  // (runtime::tel().enable_events()), the posting worker records a loop
  // span under the site's name in the Chrome trace export. Without a site
  // (or a site name) both fall back to the policy name. Must outlive the
  // call.
  const telemetry::loop_site* site = nullptr;

  // Optional per-iteration work annotation (paper Section VI extension):
  // when set, the hybrid policy's earmarked partitions equalize weight sums
  // instead of iteration counts. Ignored by the other policies.
  std::function<double(std::int64_t)> iteration_weight;

  // Cooperative cancellation (sched/cancel.h): every policy polls the
  // token at chunk granularity; once cancelled, chunks that have not yet
  // started skip their bodies (the loop still joins) and parallel_for
  // returns loop_status::cancelled. A running body is never interrupted.
  cancel_token cancel;

  // Optional wall-clock budget measured from loop entry; zero disables.
  // An expired loop skips its remaining chunks and returns
  // loop_status::deadline_expired. Cooperative like cancellation: a chunk
  // body that outlives the deadline still runs to completion.
  std::chrono::nanoseconds deadline{0};
};

// Hard cap on loop_options::partitions. The claim flags take one bit per
// partition, packed 64 to a padded cache line, so 2^20 flags take 1 MiB.
// Larger requests throw std::invalid_argument.
inline constexpr std::uint32_t kMaxLoopPartitions = 1u << 20;

// Why a loop stopped handing out work.
enum class loop_status : std::uint8_t {
  completed,         // every iteration executed
  cancelled,         // loop_options::cancel observed before the last chunk
  deadline_expired,  // loop_options::deadline observed before the last chunk
};

constexpr const char* loop_status_name(loop_status s) noexcept {
  switch (s) {
    case loop_status::completed: return "completed";
    case loop_status::cancelled: return "cancelled";
    case loop_status::deadline_expired: return "deadline_expired";
  }
  return "?";
}

// Outcome of one parallel loop. A loop that stops early still joins: every
// worker has left the loop and no chunk is running when parallel_for
// returns. Body exceptions are rethrown instead (and take precedence over
// any status).
struct loop_result {
  loop_status status = loop_status::completed;
  // Iterations whose bodies were skipped by cancellation, deadline expiry,
  // or exception drain. Zero when status == completed.
  std::int64_t skipped = 0;

  bool ok() const noexcept { return status == loop_status::completed; }
  explicit operator bool() const noexcept { return ok(); }
};

using chunk_body = function_ref<void(std::int64_t, std::int64_t)>;

// Runs body over [begin, end) under the given policy and blocks until the
// loop joins. Normally called from a thread bound to rt (the constructing
// thread or, for nested loops, a worker executing a task); a call from a
// foreign thread degrades to serial execution on that thread with a
// one-time stderr warning. Throws std::invalid_argument on negative
// grain/chunk/min_chunk or an out-of-range partition count; rethrows the
// first exception thrown by a body chunk after the loop joins (remaining
// chunks drain without running their bodies). Returns the loop's status —
// completed, or stopped early by loop_options::cancel / deadline.
loop_result parallel_for(rt::runtime& rt, std::int64_t begin,
                         std::int64_t end, policy pol, chunk_body body,
                         const loop_options& opt = {});

// Per-index convenience wrapper.
template <typename F>
loop_result for_each(rt::runtime& rt, std::int64_t begin, std::int64_t end,
                     policy pol, F&& f, const loop_options& opt = {}) {
  auto chunk = [&f](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) f(i);
  };
  return parallel_for(rt, begin, end, pol, chunk, opt);
}

}  // namespace hls
