// Telemetry overhead bench on the real runtime (not the simulator):
// times hybrid and vanilla work-stealing loops with event tracing off
// (counters only — the default) and on (per-worker event rings), and
// reports ns/iteration plus the relative overhead. The numbers quoted in
// docs/observability.md come from this binary.
//
//   build/bench/rt_telemetry [--workers=4] [--n=262144] [--reps=6]
//                            [--csv|--json] [--telemetry] [--trace-out=F]
//                            [--metrics-out=F]
//
// With --trace-out the Chrome trace written at exit covers the events-on
// measurement phase (rings accumulate until drained at export).
#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "sched/loop.h"
#include "telemetry/report.h"

namespace {

using clk = std::chrono::steady_clock;

double time_loops(hls::rt::runtime& rt, hls::policy pol, std::int64_t n,
                  int reps, std::vector<double>& data) {
  hls::loop_options opt;
  opt.site = HLS_LOOP_SITE("bench_loop");
  const auto t0 = clk::now();
  for (int r = 0; r < reps; ++r) {
    hls::parallel_for(
        rt, 0, n, pol,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            const auto idx = static_cast<std::size_t>(i);
            data[idx] = data[idx] * 0.5 + 1.0 / (1.0 + static_cast<double>(i));
          }
        },
        opt);
  }
  const std::chrono::duration<double, std::nano> dt = clk::now() - t0;
  return dt.count() / (static_cast<double>(n) * reps);
}

}  // namespace

int main(int argc, char** argv) {
  const hls::cli c(argc, argv);
  hls::bench::init_output(c);
  auto tel_opt = hls::telemetry::run_options::from_cli(c);

  const auto workers = static_cast<std::uint32_t>(c.get_int_in("workers", 4, 1, hls::rt::runtime::kMaxWorkers));
  const std::int64_t n = c.get_int("n", 262'144);
  const int reps = static_cast<int>(c.get_int("reps", 6));

  hls::rt::runtime rt(workers);
  hls::telemetry::run_session tel(rt.tel(), tel_opt);
  std::vector<double> data(static_cast<std::size_t>(n), 0.0);

  const hls::policy pols[] = {hls::policy::hybrid, hls::policy::dynamic_ws};

  hls::bench::print_header("runtime telemetry overhead (ns/iteration)");
  hls::table t({"policy", "events_off", "events_on", "overhead_pct"});
  for (hls::policy pol : pols) {
    // Warm-up rep outside both timed phases (faults pages, spins up workers).
    time_loops(rt, pol, n, 1, data);

    rt.tel().disable_events();
    const double off_ns = time_loops(rt, pol, n, reps, data);

    rt.tel().enable_events(tel_opt.ring_capacity);
    const double on_ns = time_loops(rt, pol, n, reps, data);

    t.add_row({hls::policy_name(pol), hls::table::fmt(off_ns, 3),
               hls::table::fmt(on_ns, 3),
               hls::table::fmt(100.0 * (on_ns - off_ns) / off_ns, 2)});
  }
  hls::bench::emit(t);
  hls::bench::note(
      "counters and claim/steal histograms are always on; 'events_on' adds\n"
      "per-chunk timing and ring writes (--trace-out path).\n");

  // Leave events in the state the flags asked for before exporting.
  if (!tel_opt.tracing()) rt.tel().disable_events();
  hls::telemetry::apply(rt.tel(), tel_opt);
  if (!tel.finish(std::cout)) {
    std::cerr << "failed to write telemetry output\n";
    return 1;
  }
  return 0;
}
