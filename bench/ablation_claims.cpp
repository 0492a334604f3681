// Ablation A1: how much does the XOR claiming heuristic itself matter?
//
// Compares, on the unbalanced microbenchmark in the DES:
//   hybrid        - the paper's scheme (XOR claim sequence);
//   static        - earmarked blocks, no reclaiming at all;
//   dynamic_ws    - no earmarking at all;
// and validates Lemma 4 empirically: the maximum number of consecutive
// failed claims observed in adversarial single-runtime claim sweeps never
// exceeds lg R, while a naive linear probe scan suffers O(R) failures.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/claim.h"
#include "sim/engine.h"
#include "util/rng.h"
#include "workloads/micro.h"

namespace {

using namespace hls;

// Linear-scan alternative to the claim heuristic: probe r = w+1, w+2, ...
// (mod R). Same exactly-once guarantee, but no failed-claim bound and no
// subtree-skipping: counts its failures for comparison.
std::uint64_t linear_scan_failures(std::uint64_t r_count,
                                   xoshiro256ss& rng) {
  std::vector<char> claimed(r_count, 0);
  for (std::uint64_t r = 0; r < r_count; ++r) {
    claimed[r] = rng.next_below(2) != 0;
  }
  const auto w = static_cast<std::uint64_t>(rng.next_below(r_count));
  std::uint64_t failures = 0, max_consec = 0, consec = 0;
  for (std::uint64_t k = 0; k < r_count; ++k) {
    const std::uint64_t r = (w + k) % r_count;
    if (claimed[r]) {
      ++failures;
      ++consec;
      if (consec > max_consec) max_consec = consec;
    } else {
      claimed[r] = 1;
      consec = 0;
    }
  }
  return max_consec;
}

}  // namespace

int main(int argc, char** argv) {
  const cli c(argc, argv);
  bench::init_output(c);

  // Part 1: end-to-end makespans, unbalanced micro, 32 simulated cores.
  {
    workloads::micro_params mp;
    mp.iterations = c.get_int("iterations", 2048);
    mp.total_bytes = workloads::kWsUnderL3;
    mp.balanced = false;
    mp.outer_iterations = 6;
    const auto w = workloads::micro_spec(mp);
    const auto m = bench::paper_machine().with_workers(32);

    bench::print_header("A1 claiming-heuristic ablation (unbalanced micro)");
    table t({"scheme", "makespan(ms)", "affinity", "steals", "failed claims",
             "steal us", "claim us"});
    for (const auto& [label, pol] :
         std::vector<std::pair<std::string, policy>>{
             {"hybrid (claim heuristic)", policy::hybrid},
             {"static (no reclaiming)", policy::static_part},
             {"dynamic_ws (no earmarking)", policy::dynamic_ws}}) {
      const auto r = sim::simulate(m, w, pol);
      t.add_row({label, table::fmt(r.makespan_ns / 1e6, 3),
                 table::fmt_pct(r.affinity, 1), std::to_string(r.steals),
                 std::to_string(r.failed_claims),
                 table::fmt(r.steal_ns / 1e3, 1),
                 table::fmt(r.claim_ns / 1e3, 1)});
    }
    hls::bench::emit(t);
  }

  // Part 2: Lemma 4 in practice — worst consecutive failures of the XOR
  // heuristic vs. a linear probe scan, over adversarial random claim states.
  {
    bench::print_header(
        "A1 Lemma 4: max consecutive failed claims (1000 adversarial trials)");
    table t({"R", "lg R", "xor heuristic", "linear scan"});
    xoshiro256ss rng(7);
    for (std::uint64_t r_count : {8ull, 32ull, 128ull, 1024ull, 8192ull}) {
      std::uint64_t worst_xor = 0, worst_lin = 0;
      for (int trial = 0; trial < 1000; ++trial) {
        std::vector<char> claimed(r_count, 0);
        for (auto& cl : claimed) cl = rng.next_below(2) != 0;
        const auto w = static_cast<std::uint32_t>(rng.next_below(r_count));
        // The XOR walk never tries a partition twice, so the scripted
        // outcomes need not record the walk's own wins.
        core::claim_stats st;
        core::enumerate_claim_sequence(
            w, r_count,
            [&](std::uint64_t i) { return claimed[i ^ w] == 0; }, &st);
        worst_xor = std::max(worst_xor, st.max_consec_failures);
        worst_lin = std::max(worst_lin, linear_scan_failures(r_count, rng));
      }
      t.add_row({std::to_string(r_count),
                 std::to_string(ceil_log2(r_count)),
                 std::to_string(worst_xor), std::to_string(worst_lin)});
    }
    hls::bench::emit(t);
    hls::bench::note("xor heuristic column must never exceed lg R (Lemma 4).\n");
  }
  return 0;
}
