// The hybrid loop claiming heuristic (paper Algorithms 2 and 3).
//
// A hybrid loop divides the iteration space into R = 2^k partitions.
// A worker w entering the loop walks a worker-specific *claim sequence*:
// index i starts at 0 and maps to partition r = i XOR w. A claim succeeds
// iff the worker is the first to set the partition's flag (fetch_or).
//
//   * successful claim   -> execute partition r, then i <- i + 1
//   * failed claim, i==0 -> leave the loop immediately (Alg. 3 line 14)
//   * failed claim, i>0  -> i <- i + (i & -i)   (skip the claimed subtree)
//
// The walk is one resumable cursor (claim_cursor). run_claim_loop drives it
// over an abstract flag set, so the same code runs in the threaded runtime
// (atomic flags), the model checker and the exhaustive correctness tests
// (scripted adversarial flag states); the discrete-event simulator steps
// the cursor itself, one claim at a time, over a partition_set. This file
// is the paper's core contribution.
#pragma once

#include <concepts>
#include <cstdint>

#include "util/bits.h"

namespace hls::core {

// Flag-set abstraction: test_and_set(r) atomically sets partition r's
// claimed flag and returns its previous value (true = already claimed).
template <typename F>
concept claim_flags = requires(F f, std::uint64_t r) {
  { f.test_and_set(r) } -> std::convertible_to<bool>;
};

// Outcome of one worker's pass through the claim loop.
struct claim_stats {
  std::uint64_t successes = 0;        // partitions claimed by this worker
  std::uint64_t failures = 0;         // total unsuccessful claims
  std::uint64_t max_consec_failures = 0;  // Lemma 4 bounds this by lg R
  bool exited_on_first = false;       // designated partition was taken
};

// Maps claim-sequence index i of worker w to the partition it targets
// (Algorithm 2 line 4). XOR is its own inverse, so this is a bijection
// between indices and partitions for every fixed w.
constexpr std::uint64_t claim_target(std::uint64_t i, std::uint32_t w) noexcept {
  return i ^ static_cast<std::uint64_t>(w);
}

// Advances the claim index after a failed claim (Algorithm 3 line 20).
constexpr std::uint64_t advance_on_failure(std::uint64_t i) noexcept {
  return i + lsb(i);
}

// Worker w's walk of its claim sequence, one claim at a time: the caller
// claims target() and reports the outcome with won() or lost(). w wraps
// modulo R, so with fewer partitions than workers several workers share a
// designated partition. R must be a power of two.
class claim_cursor {
 public:
  claim_cursor() = default;
  claim_cursor(std::uint32_t w, std::uint64_t R) noexcept
      : w_(static_cast<std::uint32_t>(w & (R - 1))), r_(R) {}

  bool done() const noexcept { return i_ >= r_; }
  std::uint64_t index() const noexcept { return i_; }
  // The partition to claim next; at index 0 the designated partition.
  std::uint64_t target() const noexcept { return claim_target(i_, w_); }

  // The claim on target() succeeded.
  void won() noexcept { i_ += 1; }

  // The claim on target() failed: skip the claimed subtree. Returns false,
  // and ends the walk, when it was the designated partition (Alg. 3
  // line 14: the worker reverts to ordinary work stealing).
  bool lost() noexcept {
    if (i_ == 0) {
      i_ = r_;
      return false;
    }
    i_ = advance_on_failure(i_);
    return true;
  }

 private:
  std::uint32_t w_ = 0;
  std::uint64_t r_ = 0;
  std::uint64_t i_ = 0;
};

// Observes individual claim attempts: observe(partition, index, success)
// is invoked for every test_and_set, successful or not. The default
// observer is an empty callable that compiles away; the threaded runtime
// passes a telemetry recorder through here (its only claim-path hook).
struct null_claim_observer {
  constexpr void operator()(std::uint64_t /*partition*/,
                            std::uint64_t /*index*/,
                            bool /*success*/) const noexcept {}
};

// Runs the claim loop of DoHybridLoop (Algorithm 3) for worker w over R
// partitions: walks claim_cursor(w, R) to its end. For every successful
// claim, invokes on_claim(partition, index); the callback runs the
// partition's iterations before the next claim is attempted, exactly as the
// paper's continuation-stealing execution does.
template <claim_flags Flags, typename OnClaim,
          typename Observer = null_claim_observer>
claim_stats run_claim_loop(std::uint32_t w, std::uint64_t R, Flags& flags,
                           OnClaim&& on_claim, Observer&& observe = {}) {
  claim_stats st;
  std::uint64_t consec = 0;
  for (claim_cursor c(w, R); !c.done();) {
    const std::uint64_t r = c.target();
    const std::uint64_t i = c.index();
    if (!flags.test_and_set(r)) {
      observe(r, i, true);
      ++st.successes;
      consec = 0;
      on_claim(r, i);
      c.won();
    } else {
      observe(r, i, false);
      ++st.failures;
      if (++consec > st.max_consec_failures) st.max_consec_failures = consec;
      st.exited_on_first = !c.lost();
    }
  }
  return st;
}

// Enumerates the full claim sequence of worker w for a given pattern of
// claim outcomes without executing anything. Used by the tests that verify
// Lemma 4 and by the ablation benches. `outcome(i)` returns whether the
// claim at index i would succeed.
template <typename Outcome>
std::uint64_t enumerate_claim_sequence(std::uint32_t w, std::uint64_t R,
                                       Outcome&& outcome,
                                       claim_stats* stats = nullptr) {
  claim_stats local;
  struct scripted_flags {
    Outcome& oc;
    std::uint32_t w;
    bool test_and_set(std::uint64_t r) { return !oc(r ^ w); }
  } flags{outcome, w};
  local = run_claim_loop(w, R, flags, [](std::uint64_t, std::uint64_t) {});
  if (stats != nullptr) *stats = local;
  return local.successes;
}

}  // namespace hls::core
