// Deterministic fault injection for the scheduler (the chaos layer).
//
// A seeded injector is hooked at the scheduler's decision points — the
// hybrid claim fetch_or, the designated-partition peek, steal probes, the
// range-slot steal CAS, local deque pops, board posts, and chunk bodies —
// and can force each of
// them to fail, delay a worker, or throw an injected exception out of a
// chosen chunk. Every fault is *safe by construction*: a forced claim
// failure leaves the partition unclaimed (the hybrid record's rescue sweep
// restores coverage), a skipped pop leaves the task queued for the next
// pop or a thief, a failed range steal leaves the span whole for its
// owner, and a forced post failure degrades to the board-overflow
// path that is already correct. Faults therefore perturb schedules without
// ever being able to lose or duplicate an iteration — which is exactly
// what the chaos tests assert.
//
// Determinism model: each (worker, hook) pair owns an independent
// xoshiro256** stream derived from the config seed, so a worker's decision
// sequence at a given hook depends only on the seed and on how many times
// that worker reached that hook — not on cross-thread interleaving or on
// other hooks. `throw_at` sites fire on (worker, iteration) coordinates and
// are fully deterministic. Replaying a seed reproduces the same per-worker
// fault pattern; with a single worker the entire schedule replays exactly.
//
// The runtime installs an injector from the HLS_CHAOS environment variable
// at construction (see config::from_env) or programmatically via
// runtime::set_chaos. Every hook site draws through rt::worker::fault,
// which costs one pointer load while no injector is installed.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/cacheline.h"
#include "util/rng.h"

namespace hls::faultsim {

// Scheduler decision points where a fault can be injected.
enum class hook : unsigned {
  claim_peek,    // designated-partition is_claimed peek lies "claimed"
  claim_fail,    // claim fetch_or reports failure without claiming
  steal_probe,   // one victim probe forced to come back empty
  deque_pop,     // local pop skipped (task stays queued)
  board_post,    // board post forced to the overflow (-1) path
  body_throw,    // chunk body replaced by an injected_fault throw
  delay,         // worker sleeps cfg.delay_us before a steal round (legacy
                 // "delay" spec key; the steal-hook member of the delay
                 // fault class)
  range_steal,   // range-slot steal CAS forced to fail (span stays whole)
  delay_chunk,   // worker sleeps cfg.delay_us inside a chunk boundary —
                 // the straggler model: a body-blocked worker holding
                 // claimed work while its heartbeat goes silent
  delay_park,    // worker sleeps cfg.delay_us on the park path (a
                 // preempted-idle-worker model)
  thread_spawn,  // runtime construction: one worker thread's spawn fails,
                 // shrinking the team (graceful-degradation path)
  count_,
};
inline constexpr unsigned kNumHooks = static_cast<unsigned>(hook::count_);

// True for the three members of the `delay` fault class (seeded
// per-(worker,hook) stalls of cfg.delay_us at steal/chunk/park hooks).
constexpr bool is_delay_hook(hook h) noexcept {
  return h == hook::delay || h == hook::delay_chunk || h == hook::delay_park;
}

const char* hook_name(hook h) noexcept;

// The exception thrown out of chunk bodies by body_throw / throw_at.
class injected_fault : public std::runtime_error {
 public:
  injected_fault(std::uint32_t worker, std::int64_t lo, std::int64_t hi);
  std::uint32_t worker() const noexcept { return worker_; }
  std::int64_t chunk_begin() const noexcept { return lo_; }
  std::int64_t chunk_end() const noexcept { return hi_; }

 private:
  std::uint32_t worker_;
  std::int64_t lo_;
  std::int64_t hi_;
};

struct config {
  // Matches any worker in a throw_at site.
  static constexpr std::uint32_t kAnyWorker =
      std::numeric_limits<std::uint32_t>::max();

  std::uint64_t seed = 1;

  // Per-hook firing probability in [0, 1]. Scheduler-liveness hooks
  // (everything except body_throw and thread_spawn) are clamped to
  // kMaxSchedulerRate by normalize(): a rate of 1.0 would starve the
  // scheduler forever, while re-rolled sub-1 rates keep progress certain.
  // thread_spawn is exempt because it gates a one-shot fallback path that
  // stays live at rate 1.0 (the team shrinks), and the deterministic
  // degrade test needs exactly that.
  std::array<double, kNumHooks> rate{};

  // Sleep applied when a delay-class hook (delay/delay_chunk/delay_park)
  // fires.
  std::uint32_t delay_us = 20;

  // Deterministic body-exception sites: the chunk containing `iteration`
  // throws when executed by `worker` (or by anyone, for kAnyWorker).
  struct site {
    std::uint32_t worker = kAnyWorker;
    std::int64_t iteration = 0;
  };
  std::vector<site> throw_at;

  static constexpr double kMaxSchedulerRate = 0.95;

  double& of(hook h) noexcept { return rate[static_cast<unsigned>(h)]; }
  double of(hook h) const noexcept { return rate[static_cast<unsigned>(h)]; }

  // True when any fault can ever fire.
  bool any() const noexcept;
  // True when claim-path faults are active (the hybrid record arms its
  // rescue sweep off this).
  bool claims_active() const noexcept {
    return of(hook::claim_peek) > 0 || of(hook::claim_fail) > 0;
  }

  // Clamps rates into their safe ranges (see kMaxSchedulerRate).
  void normalize() noexcept;

  // Parses a chaos spec:
  //   "seed=7,claim_fail=0.3,steal_fail=0.2,pop_skip=0.1,post_fail=0.05,
  //    claim_peek=0.2,body_throw=0.01,delay=0.1,delay_us=50,
  //    throw_at=1@100;2@7,throw_at=*@42"
  // A bare integer ("HLS_CHAOS=42") selects default_mix(42). Returns
  // nullopt on a malformed spec.
  static std::optional<config> parse(std::string_view spec);

  // A moderate all-hooks mix used by bare-seed specs and CI chaos runs.
  static config default_mix(std::uint64_t seed);

  // Reads HLS_CHAOS; nullopt when unset or empty. A malformed value is
  // reported on stderr and ignored (an env typo must not crash startup).
  static std::optional<config> from_env();
};

class injector {
 public:
  injector(const config& cfg, std::uint32_t num_workers);

  injector(const injector&) = delete;
  injector& operator=(const injector&) = delete;

  const config& cfg() const noexcept { return cfg_; }
  std::uint32_t num_workers() const noexcept { return num_workers_; }

  // True when the fault at hook h fires for worker w; advances only the
  // (w, h) stream. Callable concurrently from different workers; each
  // worker must only pass its own id.
  bool fire(hook h, std::uint32_t w) noexcept;

  // True when chunk [lo, hi) executed by worker w must throw: a throw_at
  // site inside the chunk matches, or the body_throw rate fires.
  bool should_throw(std::uint32_t w, std::int64_t lo, std::int64_t hi) noexcept;

  // Sleeps cfg.delay_us when delay-class hook h (delay, delay_chunk,
  // delay_park) fires for worker w, drawing only when delay_us > 0.
  // Returns true when the delay fired.
  bool maybe_delay(hook h, std::uint32_t w) noexcept;

  // The scheduler's one entry (rt::worker::fault): maybe_delay for the
  // delay class, should_throw on the chunk [lo, hi) for body_throw, fire
  // for every other hook.
  bool draw(hook h, std::uint32_t w, std::int64_t lo,
            std::int64_t hi) noexcept;

  // Total faults fired at hook h / across all hooks: the one tally of
  // injected faults (tests and reports read it).
  std::uint64_t fired(hook h) const noexcept {
    return fired_[static_cast<unsigned>(h)].load(std::memory_order_relaxed);
  }
  std::uint64_t fired_total() const noexcept;

 private:
  struct alignas(kCacheLine) lane {
    xoshiro256ss rng{0};
  };

  config cfg_;
  std::uint32_t num_workers_;
  std::vector<lane> lanes_;  // num_workers x kNumHooks, worker-major
  std::array<std::atomic<std::uint64_t>, kNumHooks> fired_{};
};

// Builds an injector from a chaos spec string (the --chaos CLI flag);
// throws std::invalid_argument with the offending spec on parse failure.
std::shared_ptr<injector> make_injector(const std::string& spec,
                                        std::uint32_t num_workers);

}  // namespace hls::faultsim
