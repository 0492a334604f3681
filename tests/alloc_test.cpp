// Allocation regression test: a steady-state parallel_for keeps its loop
// state in the poster's frame, so the only heap traffic left per loop is a
// policy's own claim storage — static's ownership flags and hybrid's claim
// flags. Every plain and aligned operator new on every thread is counted
// (padded<> types go through the std::align_val_t overloads), so this test
// needs its own executable: it replaces the global allocation functions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "sched/loop.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Sanitizer runtimes replace operator new themselves; the test skips there
// and leaves the allocator alone.
#ifndef HLS_SANITIZE_BUILD

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}

namespace {

// Out of line: inlined into a delete expression, the free() would draw
// GCC's -Wmismatched-new-delete, which cannot see that new is malloc here.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

#endif  // HLS_SANITIZE_BUILD

namespace hls {
namespace {

struct alloc_case {
  policy pol;
  std::uint64_t max_per_loop;
};

void PrintTo(const alloc_case& c, std::ostream* os) {
  *os << policy_name(c.pol) << " (at most " << c.max_per_loop
      << " per loop)";
}

class AllocPerLoop : public ::testing::TestWithParam<alloc_case> {};

// 1000 loops of a 7000-element axpy on a 4-worker runtime (the cg_fine
// vector-update shape), after a warm-up that lets thread-local and pool
// state settle. The bound covers allocations on every thread, not only the
// poster's.
TEST_P(AllocPerLoop, SteadyStateLoopsStayWithinAllowance) {
#ifdef HLS_SANITIZE_BUILD
  GTEST_SKIP() << "sanitizer runtimes replace operator new";
#endif
  constexpr std::int64_t kN = 7000;
  constexpr std::uint64_t kLoops = 1000;
  const alloc_case c = GetParam();
  rt::runtime rt(4);
  std::vector<double> x(kN, 1.0);
  std::vector<double> y(kN, 0.0);
  const auto axpy = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      y[static_cast<std::size_t>(i)] += 0.5 * x[static_cast<std::size_t>(i)];
    }
  };
  for (int i = 0; i < 100; ++i) parallel_for(rt, 0, kN, c.pol, axpy);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < kLoops; ++i) {
    parallel_for(rt, 0, kN, c.pol, axpy);
  }
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_LE(allocs, c.max_per_loop * kLoops)
      << static_cast<double>(allocs) / kLoops << " allocations per loop";
  EXPECT_DOUBLE_EQ(y[0], 0.5 * (100 + kLoops));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, AllocPerLoop,
    ::testing::Values(alloc_case{policy::static_part, 1},
                      alloc_case{policy::dynamic_shared, 0},
                      alloc_case{policy::guided, 0},
                      alloc_case{policy::dynamic_ws, 0},
                      alloc_case{policy::hybrid, 1}),
    [](const ::testing::TestParamInfo<alloc_case>& info) {
      return std::string(policy_name(info.param.pol));
    });

}  // namespace
}  // namespace hls
