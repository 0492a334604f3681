// Iterative application example: 1-D heat diffusion with a parallel stencil
// loop per time step — exactly the loop-affinity scenario the paper's
// hybrid scheme targets. Each step reads u and writes u_next over the same
// index space, so keeping iteration i on the same worker across steps keeps
// its slice of both arrays hot in that core's cache.
//
//   build/examples/heat_stencil [--workers=4] [--cells=200000] [--steps=50]
//                               [--telemetry] [--trace-out=trace.json]
//                               [--metrics-out=metrics.jsonl]
//
// Prints the evolution of the total heat (conserved up to boundary loss)
// and the measured iteration->worker affinity per policy. With --trace-out
// the scheduler event trace and the chunk-placement loop_trace of the final
// hybrid time step land in the same Chrome trace file, on separate tracks.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "sched/loop.h"
#include "telemetry/report.h"
#include "trace/affinity.h"
#include "trace/loop_trace.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

// export_tr, when non-null, records the final time step's chunk placement
// (loop_trace holds an atomic, so it is passed in rather than returned).
double run_policy(hls::rt::runtime& rt, hls::policy pol, std::int64_t cells,
                  int steps, double* final_heat,
                  hls::trace::loop_trace* export_tr = nullptr) {
  std::vector<double> u(static_cast<std::size_t>(cells), 0.0);
  std::vector<double> un(u.size());
  // A hot spot in the middle.
  for (std::int64_t i = cells / 2 - 50; i < cells / 2 + 50; ++i) {
    u[static_cast<std::size_t>(i)] = 100.0;
  }

  hls::trace::affinity_meter meter;
  constexpr double kAlpha = 0.23;
  for (int s = 0; s < steps; ++s) {
    hls::trace::loop_trace step_tr(rt.num_workers());
    const bool last = s == steps - 1;
    hls::trace::loop_trace& tr =
        (last && export_tr != nullptr) ? *export_tr : step_tr;
    hls::loop_options opt;
    opt.trace = &tr;
    opt.site = HLS_LOOP_SITE("heat_step");
    hls::parallel_for(
        rt, 1, cells - 1, pol,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            const auto idx = static_cast<std::size_t>(i);
            un[idx] = u[idx] + kAlpha * (u[idx - 1] - 2 * u[idx] + u[idx + 1]);
          }
        },
        opt);
    u.swap(un);
    meter.observe(tr.iteration_owners(1, cells - 1));
  }

  double heat = 0.0;
  for (double x : u) heat += x;
  *final_heat = heat;
  return meter.average();
}

}  // namespace

int main(int argc, char** argv) {
  const hls::cli cli(argc, argv);
  const auto workers = static_cast<std::uint32_t>(cli.get_int_in("workers", 4, 1, hls::rt::runtime::kMaxWorkers));
  const std::int64_t cells = cli.get_int("cells", 200'000);
  const int steps = static_cast<int>(cli.get_int("steps", 50));

  hls::rt::runtime rt(workers);
  hls::telemetry::run_session tel(rt.tel(),
                                  hls::telemetry::run_options::from_cli(cli));

  // Chunk placement of the final hybrid step, exported alongside the
  // scheduler event trace when --trace-out is given.
  hls::trace::loop_trace last_hybrid_step(rt.num_workers());

  hls::table t({"policy", "final heat", "affinity (same worker, consecutive steps)"});
  for (hls::policy pol : hls::kAllParallelPolicies) {
    double heat = 0.0;
    const double affinity = run_policy(
        rt, pol, cells, steps, &heat,
        pol == hls::policy::hybrid ? &last_hybrid_step : nullptr);
    t.add_row({hls::policy_name(pol), hls::table::fmt(heat, 3),
               hls::table::fmt_pct(affinity, 2)});
  }
  std::printf("1-D heat diffusion, %lld cells, %d steps, %u workers\n",
              static_cast<long long>(cells), steps, workers);
  t.print(std::cout);
  std::printf(
      "\nHeat is identical across policies (the schedule never changes the\n"
      "math); affinity shows which schedulers keep iterations pinned.\n");
  return tel.finish(std::cout, &last_hybrid_step) ? 0 : 1;
}
