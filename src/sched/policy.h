// The loop-scheduling policies the paper evaluates. Shared by the threaded
// runtime front-end (sched/loop.h) and the discrete-event simulator, which
// hand out a policy's blocks, chunks and claims through the same core/
// code (balanced_range, chunk_queue, partition_set, claim_cursor).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string_view>

namespace hls {

enum class policy {
  serial,          // no parallelism (the Ts baseline)
  static_part,     // P earmarked blocks, strict ownership (omp static)
  dynamic_shared,  // fixed-size chunks off a central queue (omp dynamic)
  guided,          // decreasing chunks off a central queue (omp guided)
  dynamic_ws,      // divide-and-conquer + randomized work stealing (Cilk)
  hybrid,          // the paper's scheme
};

inline constexpr policy kAllParallelPolicies[] = {
    policy::static_part, policy::dynamic_shared, policy::guided,
    policy::dynamic_ws, policy::hybrid};

constexpr const char* policy_name(policy p) noexcept {
  switch (p) {
    case policy::serial: return "serial";
    case policy::static_part: return "static";
    case policy::dynamic_shared: return "dynamic_shared";
    case policy::guided: return "guided";
    case policy::dynamic_ws: return "dynamic_ws";
    case policy::hybrid: return "hybrid";
  }
  return "?";
}

constexpr std::optional<policy> policy_from_name(
    std::string_view name) noexcept {
  if (name == "serial") return policy::serial;
  if (name == "static" || name == "static_part" || name == "omp_static")
    return policy::static_part;
  if (name == "dynamic_shared" || name == "omp_dynamic")
    return policy::dynamic_shared;
  if (name == "guided" || name == "omp_guided") return policy::guided;
  if (name == "dynamic_ws" || name == "vanilla") return policy::dynamic_ws;
  if (name == "hybrid") return policy::hybrid;
  return std::nullopt;
}

// Cilk's cilk_for default chunk size: min(2048, ceil(n / (8 p))), >= 1.
// Shared by the threaded runtime and the simulator so both dispatch the
// same chunk structure.
inline std::int64_t default_grain(std::int64_t n, std::uint32_t p) noexcept {
  if (n <= 0) return 1;
  if (p == 0) p = 1;
  const std::int64_t denom = 8 * static_cast<std::int64_t>(p);
  const std::int64_t by_workers = (n + denom - 1) / denom;
  return std::max<std::int64_t>(1, std::min<std::int64_t>(2048, by_workers));
}

}  // namespace hls
