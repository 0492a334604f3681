// Discrete-event virtual-time simulator of the scheduling policies.
//
// Hands out static blocks, queue chunks and hybrid claims through the same
// core/ code as the threaded runtime (balanced_range, chunk_queue,
// partition_set and claim_cursor) over P simulated workers under the
// machine cost model. Spans, victim choice and arrival are still its own
// (docs/simulator.md). Produces the quantities the paper's figures
// plot: makespans (Fig. 1/3 scalability), iteration -> core schedules
// (Fig. 2 affinity), region-level memory hierarchy counts, and the chunk
// schedule the line-level memsim replays (Fig. 4).
//
// Determinism: a seeded RNG drives victim selection and arrival jitter; two
// runs with identical inputs produce identical results.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/policy.h"
#include "sim/locality_model.h"
#include "sim/machine.h"
#include "sim/workload.h"

namespace hls::sim {

struct sim_options {
  std::uint64_t seed = 12345;
  bool record_owners = false;    // keep per-loop iteration->core maps
  bool record_schedule = false;  // keep the chunk schedule for memsim

  // Multiprogramming model (paper Section I: "different cores can arrive
  // at the parallel loop at different times" when the platform schedules
  // multiple parallel regions): per loop instance, each non-posting worker
  // independently straggles with this probability, arriving late by a
  // uniform fraction of straggler_delay_ns. Strict static partitioning
  // cannot finish before its last block owner arrives; the dynamic and
  // hybrid schemes redistribute the straggler's share.
  double straggler_fraction = 0.0;
  double straggler_delay_ns = 0.0;
};

// One executed chunk, for memsim replay (global virtual-time order).
struct chunk_event {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::uint32_t core = 0;
  std::uint32_t loop_in_sequence = 0;  // flat index across outer iterations
  double start_ns = 0;
};

struct sim_result {
  double makespan_ns = 0;  // virtual time from first post to last retire
  double work_ns = 0;      // sum of chunk execution times (no scheduling)
  access_counts mem;       // region-level hierarchy counts

  // Scheduling-overhead decomposition (the paper Section I's
  // "synchronization / parallel overhead" axis), summed over workers.
  double steal_ns = 0;       // probes + migrations
  double claim_ns = 0;       // fetch_or traffic of the hybrid heuristic
  double queue_ns = 0;       // central-queue waits + critical sections
  double dispatch_ns = 0;    // local chunk dispatch

  // Scheduler event tallies.
  std::uint64_t chunks = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_probes = 0;
  std::uint64_t successful_claims = 0;
  std::uint64_t failed_claims = 0;
  std::uint64_t queue_accesses = 0;

  // Fig. 2 metric: average same-owner fraction between consecutive outer
  // iterations of each loop (only meaningful when outer_iterations > 1).
  double affinity = 0;

  // Mean worker utilization: busy time (chunk execution + scheduling
  // overhead charged to workers) over P * makespan. Load imbalance and
  // arrival gaps show up here directly.
  double utilization = 0;
  std::vector<double> busy_ns_per_worker;

  std::vector<std::vector<std::uint32_t>> owners_per_loop;  // if recorded
  std::vector<chunk_event> schedule;                        // if recorded
};

// Simulates the full loop sequence of `w` under `pol` on machine `m`
// (m.workers workers participate).
sim_result simulate(const machine_desc& m, const workload_spec& w, policy pol,
                    const sim_options& opt = {});

// The Ts baseline: serial elision on core 0, no scheduling costs.
double simulate_serial(const machine_desc& m, const workload_spec& w);

}  // namespace hls::sim
