// Per-worker timestamped scheduler event rings.
//
// Each worker owns one fixed-capacity overwriting ring written only by
// that worker (single producer). An event is five uint64 words stored as
// relaxed atomics: the writer never takes a lock or issues an RMW, so an
// emit is a handful of plain stores. Readers (the trace exporter) copy
// entries racily and then discard any entry the writer may have
// overwritten during the copy, so a drained snapshot contains only whole,
// untorn events — without ever stalling the workers.
//
// Compile-time kill switch: building with -DHLS_TELEMETRY_NO_EVENTS turns
// every emit site into dead code (the runtime toggle in registry.h is
// constant-false), for a guaranteed-zero-overhead build.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace hls::telemetry {

enum class event_kind : std::uint8_t {
  task_span,       // one rt::task execution           a=0        b=0
  chunk_span,      // one loop body chunk              a=lo       b=hi
  partition_span,  // one claimed hybrid partition     a=r        b=0
  loop_span,       // one parallel_for on the poster   a=code     b=iters
  idle_span,       // one timed idle sleep             a=reason   b=0
                   //   a: 1 = woken by a targeted notify, 0 = timeout/stop
                   //   (lets the trace exporter stitch wake_to_first_chunk)
  claim_ok,        // successful hybrid claim          a=r        b=index
  claim_fail,      // failed hybrid claim              a=r        b=index
  steal,           // successful deque steal           a=victim   b=probes
  range_steal,     // successful range-slot steal      a=victim   b=iters
  stall_span,      // one watchdog-observed stall      a=worker   b=0
                   //   dur_ns=0: instant mark at detection time;
                   //   dur_ns>0: the completed stall, emitted when the
                   //   worker's heartbeat resumes (watchdog lane)
  handoff,         // push-based work handoff sent     a=target   b=iters
                   //   emitted by the donor at the targeted wake;
                   //   rendered on the wake track
};

struct event {
  std::uint64_t ts_ns = 0;   // since the registry epoch
  std::uint64_t dur_ns = 0;  // 0 for instant events
  std::int64_t a = 0;        // kind-specific (see event_kind)
  std::int64_t b = 0;
  event_kind kind = event_kind::task_span;
};

class event_ring {
 public:
  static constexpr std::size_t kWordsPerEvent = 5;

  // capacity is rounded up to a power of two (entries, not bytes).
  explicit event_ring(std::size_t capacity);

  std::size_t capacity() const noexcept { return mask_ + 1; }

  // Number of events ever emitted (not clipped to capacity).
  std::uint64_t emitted() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  // Owner thread only.
  void emit(const event& e) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    std::atomic<std::uint64_t>* w = words_.get() + (h & mask_) * kWordsPerEvent;
    w[0].store(e.ts_ns, std::memory_order_relaxed);
    w[1].store(e.dur_ns, std::memory_order_relaxed);
    w[2].store(static_cast<std::uint64_t>(e.a), std::memory_order_relaxed);
    w[3].store(static_cast<std::uint64_t>(e.b), std::memory_order_relaxed);
    w[4].store(static_cast<std::uint64_t>(e.kind), std::memory_order_relaxed);
    head_.store(h + 1, std::memory_order_release);
  }

  // Copies the retained events (oldest first). Safe against a concurrently
  // emitting owner: entries overwritten while copying are detected via the
  // head counter and dropped, so every returned event is whole.
  std::vector<event> snapshot() const;

  // Forgets retained events (any thread; racing emits may survive).
  void clear() noexcept {
    tail_floor_.store(head_.load(std::memory_order_acquire),
                      std::memory_order_release);
  }

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
  std::uint64_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};        // next sequence to write
  std::atomic<std::uint64_t> tail_floor_{0};  // clear() high-water mark
};

}  // namespace hls::telemetry
