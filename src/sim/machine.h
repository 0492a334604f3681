// Simulated machine description and scheduling cost model.
//
// Defaults model the paper's evaluation platform: a 4-socket, 32-core Intel
// Xeon E5-4620 with 256 KB private L2, a 16 MB shared L3 per socket, and
// NUMA DRAM. Latencies are the paper's Fig. 5 measurements (ns per cache
// line); the middle of the reported range is used where the paper gives a
// range, as the paper itself does. Scheduling costs are calibrated so their
// ratios are realistic (a steal is a few cache misses; a claim is one
// fetch_or on a shared line; central-queue access is a contended CAS).
#pragma once

#include <cstdint>

namespace hls::sim {

struct machine_desc {
  std::uint32_t workers = 32;
  std::uint32_t sockets = 4;

  // Scheduling cost model, ns.
  double steal_attempt = 120.0;    // probe a victim's deque
  double steal_success = 400.0;    // migrate a task between cores
  double claim_cost = 60.0;        // one fetch_or on the partition flags
  double chunk_dispatch = 30.0;    // pick a chunk off the local deque
  double queue_cs = 100.0;         // central-queue critical section
  double loop_post = 200.0;        // publishing the loop
  double discovery = 250.0;        // idle worker notices the open loop
  double seq_section_ns = 5000.0;  // serial section between loop instances

  // Memory hierarchy, Fig. 5 of the paper (ns per line, middle of range).
  double lat_l1 = 4.1;
  double lat_l2 = 12.2;
  double lat_l3 = 41.4;
  double lat_dram_local = 246.7;
  double lat_remote_l3 = 515.15;   // (381.5 + 648.8) / 2
  double lat_dram_remote = 647.05; // (643.2 + 650.9) / 2

  // Memory-level parallelism: an out-of-order core overlaps several
  // outstanding long-latency misses, so the *throughput* cost per line of
  // DRAM / remote-L3 traffic is the unloaded latency divided by this
  // factor. Short-latency hits (L1/L2/L3) are already pipelined and are not
  // scaled. Fig. 4's inferred-latency metric uses the raw latencies, as the
  // paper does.
  double mlp_long = 4.0;

  std::uint64_t l1_bytes = 32ull << 10;
  std::uint64_t l2_bytes = 256ull << 10;
  std::uint64_t l3_bytes = 16ull << 20;  // per socket
  std::uint32_t line_bytes = 64;

  // Physical topology: 8 cores per socket on the paper machine, fixed
  // regardless of how many workers a run uses.
  std::uint32_t total_cores = 32;

  std::uint32_t cores_per_socket() const noexcept {
    return total_cores < sockets ? 1 : total_cores / sockets;
  }
  // Threads are pinned compactly (paper Section V): worker w runs on core
  // w, filling socket 0 first, so runs with P <= 8 stay on one socket.
  std::uint32_t socket_of(std::uint32_t core) const noexcept {
    const std::uint32_t s = core / cores_per_socket();
    return s >= sockets ? sockets - 1 : s;
  }
  // Number of sockets actually occupied when p workers are used.
  std::uint32_t sockets_used(std::uint32_t p) const noexcept {
    const std::uint32_t s = (p + cores_per_socket() - 1) / cores_per_socket();
    return s > sockets ? sockets : (s == 0 ? 1 : s);
  }

  machine_desc with_workers(std::uint32_t p) const noexcept {
    machine_desc m = *this;
    m.workers = p == 0 ? 1 : p;
    return m;
  }
};

}  // namespace hls::sim
