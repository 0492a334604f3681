// Quickstart: the hybrid parallel loop in five lines.
//
//   build/examples/quickstart [--workers=N] [--n=1000000]
//                             [--telemetry] [--trace-out=trace.json]
//                             [--metrics-out=metrics.jsonl] [--chaos=SPEC]
//                             [--park-backstop-us=200]
//                             [--progress-budget-us=US] [--watchdog=0|1]
//
// Creates a work-stealing runtime, runs a parallel loop under the paper's
// hybrid scheduling scheme, and shows that switching the policy is a
// one-argument change. Every runtime knob — team size, park backstop,
// watchdog progress budget, chaos spec — comes through
// runtime_options::from_cli, so the flags here are the same ones every
// driver accepts. --telemetry prints the scheduler counter report at
// exit; --trace-out writes a Chrome trace (open in Perfetto) of every
// chunk, claim, and steal. --chaos installs the fault injector (same spec
// format as HLS_CHAOS; see docs/robustness.md), e.g. --chaos=42 for the
// default fault mix under seed 42.
#include <cstdio>
#include <iostream>
#include <mutex>
#include <numeric>
#include <vector>

#include "sched/loop.h"
#include "telemetry/report.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  const hls::cli cli(argc, argv);
  const std::int64_t n = cli.get_int("n", 1'000'000);
  // All runtime knobs from the command line (the calling thread acts as
  // worker 0; a --chaos spec is installed by the constructor).
  hls::rt::runtime rt(hls::rt::runtime_options::from_cli(cli));
  hls::telemetry::run_session tel(rt.tel(),
                                  hls::telemetry::run_options::from_cli(cli));

  std::vector<double> data(static_cast<std::size_t>(n));

  // The paper's hybrid scheme: static partitions + XOR claim heuristic +
  // work stealing inside partitions. The site handle names this loop in
  // --metrics-out profiles.
  hls::loop_options lopt;
  lopt.site = HLS_LOOP_SITE("fill");
  hls::for_each(
      rt, 0, n, hls::policy::hybrid,
      [&](std::int64_t i) { data[static_cast<std::size_t>(i)] = 1.0 / (1.0 + i); },
      lopt);

  const double sum = std::accumulate(data.begin(), data.end(), 0.0);
  std::printf("hybrid:      harmonic-ish sum = %.6f\n", sum);

  // Any other policy is a drop-in replacement; chunk bodies also work.
  for (hls::policy pol : hls::kAllParallelPolicies) {
    double check = 0.0;
    std::mutex mu;
    hls::parallel_for(rt, 0, n, pol, [&](std::int64_t lo, std::int64_t hi) {
      double local = 0.0;
      for (std::int64_t i = lo; i < hi; ++i) {
        local += data[static_cast<std::size_t>(i)];
      }
      std::lock_guard<std::mutex> lk(mu);
      check += local;
    });
    std::printf("%-12s chunked re-sum  = %.6f\n", hls::policy_name(pol),
                check);
  }
  return tel.finish(std::cout) ? 0 : 1;
}
