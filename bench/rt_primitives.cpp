// A3: microbenchmarks of the threaded runtime's primitives using
// google-benchmark: deque push/pop/steal, partition claims, the claim loop,
// and whole parallel_for dispatch under each policy. These are real
// wall-clock numbers on the host (1 iteration of loop body = 1 ns-scale op),
// quantifying the "synchronization / parallel overhead" axis the paper's
// Section I discusses.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/claim.h"
#include "core/partition_set.h"
#include "runtime/deque.h"
#include "runtime/task.h"
#include "sched/loop.h"
#include "sched/reduce.h"

namespace {

using namespace hls;

class nop_task final : public rt::task {
 public:
  void execute(rt::worker&) override {}
};

class flag_task final : public rt::task {
 public:
  explicit flag_task(std::atomic<bool>& f) : f_(f) {}
  void execute(rt::worker&) override {
    f_.store(true, std::memory_order_release);
  }

 private:
  std::atomic<bool>& f_;
};

void BM_DequePushPop(benchmark::State& state) {
  rt::ws_deque d;
  nop_task t;
  for (auto _ : state) {
    d.push(&t);
    benchmark::DoNotOptimize(d.pop());
  }
}
BENCHMARK(BM_DequePushPop);

void BM_DequePushSteal(benchmark::State& state) {
  rt::ws_deque d;
  nop_task t;
  for (auto _ : state) {
    d.push(&t);
    benchmark::DoNotOptimize(d.steal());
  }
}
BENCHMARK(BM_DequePushSteal);

// Idle-wakeup latency: the time from pushing a task into an all-idle
// 2-worker runtime until the (parked) second worker has stolen and run it.
// This is the number the targeted-parking rework moves: with the old
// 200 us polled sleep the pickup rode out the remainder of the poll tick;
// a targeted unpark makes it condvar-wake-latency instead. Manual timing,
// because the inter-trial settling sleep must not be counted.
void BM_WakeLatency(benchmark::State& state) {
  rt::runtime rtm(2);
  rt::worker& w0 = rtm.current_worker();
  for (auto _ : state) {
    // Let the second worker ride its backoff into a park.
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    std::atomic<bool> ran{false};
    const auto t0 = std::chrono::steady_clock::now();
    w0.push(new flag_task(ran));
    // Yield-spin: a hard spin on a single-CPU host would starve the woken
    // worker and measure a scheduler quantum, not the wake path.
    while (!ran.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    const auto dt = std::chrono::steady_clock::now() - t0;
    state.SetIterationTime(std::chrono::duration<double>(dt).count());
  }
}
BENCHMARK(BM_WakeLatency)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(64);

// Wake-to-first-iteration latency when the wake CARRIES the work: opening
// a wide span with a parked peer pre-splits the span's upper half into the
// sleeper's handoff mailbox before the targeted unpark, so the woken worker
// starts its first chunk with zero steal probes (docs/runtime.md,
// "Push-based handoff"). The timed quantity is the runtime's own exact
// wake-to-first-chunk sample for the woken worker (last_wake_gap_ns), which
// makes it directly comparable to BM_WakeLatency's push-then-probe pickup
// above: same wake edge, different path from wake to useful work. Retries
// the settle when an iteration's wake rode a backoff timeout instead of the
// notify (no donation recorded), so every timed sample is a handoff wake.
void BM_HandoffLatency(benchmark::State& state) {
  rt::runtime rtm(2);
  const auto& peer = rtm.tel().of(1);
  for (auto _ : state) {
    std::uint64_t gap = 0;
    for (int attempt = 0; attempt < 8; ++attempt) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      const std::uint64_t before = peer.last_wake_gap_ns();
      const std::uint64_t sent = rtm.stats_snapshot().handoffs_sent;
      for_each(rtm, 0, std::int64_t{1} << 14, policy::dynamic_ws,
               [](std::int64_t i) { benchmark::DoNotOptimize(i); });
      gap = peer.last_wake_gap_ns();
      if (gap != before && rtm.stats_snapshot().handoffs_sent > sent) break;
    }
    state.SetIterationTime(static_cast<double>(gap) * 1e-9);
  }
}
BENCHMARK(BM_HandoffLatency)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(64);

// Team arrival: a static loop of P = 4 one-iteration blocks posted to a
// runtime whose three background workers are all parked (same 500 us
// settle as BM_WakeLatency). A static block runs only on its owner, so the
// loop ends when the last owner has woken and run its block: the post's
// fan-out wake (unpark_n) is the whole cost. With a single wake per post
// the other two owners slept out the 200 us park backstop instead.
void BM_TeamArrival(benchmark::State& state) {
  rt::runtime rtm(4);
  for (auto _ : state) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    const auto t0 = std::chrono::steady_clock::now();
    for_each(rtm, 0, 4, policy::static_part,
             [](std::int64_t i) { benchmark::DoNotOptimize(i); });
    const auto dt = std::chrono::steady_clock::now() - t0;
    state.SetIterationTime(std::chrono::duration<double>(dt).count());
  }
}
BENCHMARK(BM_TeamArrival)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(64);

void BM_PartitionClaim(benchmark::State& state) {
  const auto parts = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    core::partition_set set(0, 1 << 20, parts);
    state.ResumeTiming();
    for (std::uint64_t r = 0; r < set.count(); ++r) {
      benchmark::DoNotOptimize(set.try_claim(r));
    }
  }
  state.SetItemsProcessed(state.iterations() * parts);
}
BENCHMARK(BM_PartitionClaim)->Arg(8)->Arg(32)->Arg(256);

void BM_ClaimLoopSolo(benchmark::State& state) {
  const auto parts = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    core::partition_set set(0, 1 << 20, static_cast<std::uint32_t>(parts));
    state.ResumeTiming();
    auto flags = set.flags();
    core::run_claim_loop(0, set.count(), flags,
                         [](std::uint64_t, std::uint64_t) {});
  }
}
BENCHMARK(BM_ClaimLoopSolo)->Arg(32)->Arg(1024);

template <policy Pol>
void BM_ParallelForDispatch(benchmark::State& state) {
  // Constructed per run (outside the timed loop): a thread-local binding
  // ties the runtime to this thread, so runtimes must not overlap.
  rt::runtime rt(static_cast<std::uint32_t>(state.range(0)));
  const std::int64_t n = state.range(1);
  std::atomic<std::int64_t> sink{0};
  for (auto _ : state) {
    for_each(rt, 0, n, Pol,
             [&](std::int64_t i) { benchmark::DoNotOptimize(i); });
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelForDispatch<policy::dynamic_ws>)
    ->Args({2, 1 << 12})
    ->Name("BM_ParallelFor/dynamic_ws");
BENCHMARK(BM_ParallelForDispatch<policy::hybrid>)
    ->Args({2, 1 << 12})
    ->Name("BM_ParallelFor/hybrid");
BENCHMARK(BM_ParallelForDispatch<policy::static_part>)
    ->Args({2, 1 << 12})
    ->Name("BM_ParallelFor/static");
BENCHMARK(BM_ParallelForDispatch<policy::dynamic_shared>)
    ->Args({2, 1 << 12})
    ->Name("BM_ParallelFor/dynamic_shared");
BENCHMARK(BM_ParallelForDispatch<policy::guided>)
    ->Args({2, 1 << 12})
    ->Name("BM_ParallelFor/guided");

// A short loop at P = 4: the cg_fine dot product (parallel_sum over two
// 7000-element vectors, a few microseconds of iterations), so the loop's
// fixed cost — entry, board post and wakes, retire and join — is a large
// share of each call.
template <policy Pol>
void BM_ParallelForDot(benchmark::State& state) {
  rt::runtime rt(static_cast<std::uint32_t>(state.range(0)));
  const std::int64_t n = state.range(1);
  const std::vector<double> a(static_cast<std::size_t>(n), 1.0);
  const std::vector<double> b(static_cast<std::size_t>(n), 0.5);
  for (auto _ : state) {
    const double d = parallel_sum<double>(rt, 0, n, Pol, [&](std::int64_t i) {
      return a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
    });
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelForDot<policy::hybrid>)
    ->Args({4, 7000})
    ->Name("BM_ParallelFor/hybrid");
BENCHMARK(BM_ParallelForDot<policy::static_part>)
    ->Args({4, 7000})
    ->Name("BM_ParallelFor/static");

// Per-iteration scheduling overhead of a fine-grained span (grain = 1, empty
// body) on the lazy range-slot path: an amortized fraction of one reserve
// CAS per chunk. p:1 isolates that per-chunk cost with no steal traffic;
// p:4 shows the contended picture.
void BM_SpanOverhead(benchmark::State& state) {
  rt::runtime rtm(static_cast<std::uint32_t>(state.range(0)));
  constexpr std::int64_t kN = 1 << 15;
  loop_options opt;
  opt.grain = 1;
  for (auto _ : state) {
    parallel_for(rtm, 0, kN, policy::dynamic_ws,
                 [](std::int64_t, std::int64_t) {}, opt);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_SpanOverhead)->ArgNames({"p"})->Arg(1)->Arg(4);

// The same fine-grained lazy span, A/B over the push-based handoff knob:
// handoff:1 is the default donate-on-open path (wide spans ride targeted
// wakes into a parked peer's mailbox), handoff:0 restores the pure pull
// path where every woken worker probes for its first chunk. Guards the
// donor-side cost of the pre-split + deposit against the probe savings on
// the same workload BM_SpanOverhead measures.
void BM_SpanOverheadHandoff(benchmark::State& state) {
  rt::runtime_options ropt;
  ropt.num_workers = 4;
  ropt.work_handoff = state.range(0) != 0;
  rt::runtime rtm(ropt);
  constexpr std::int64_t kN = 1 << 15;
  loop_options opt;
  opt.grain = 1;
  for (auto _ : state) {
    parallel_for(rtm, 0, kN, policy::dynamic_ws,
                 [](std::int64_t, std::int64_t) {}, opt);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_SpanOverheadHandoff)
    ->ArgNames({"handoff"})
    ->Arg(1)
    ->Arg(0)
    ->Name("BM_SpanOverhead/handoff");

// The same lazy span at huge N: 2^33 iterations published as ONE span
// (the slot's word counts it in units of four iterations) and consumed in
// 2^20-sized chunks. Guards the per-refill cost of the reserve CAS at
// widths a slot of one-iteration units could only reach by bisecting; the
// counter delta asserts the loop really stayed on the span path (a silent
// serial fallback would still "pass" on time alone at this grain).
void BM_SpanOverheadHuge(benchmark::State& state) {
  rt::runtime rtm(static_cast<std::uint32_t>(state.range(0)));
  constexpr std::int64_t kN = std::int64_t{1} << 33;
  loop_options opt;
  opt.grain = std::int64_t{1} << 20;
  const std::uint64_t fallbacks_before = rtm.tel().totals().alloc_fallbacks;
  for (auto _ : state) {
    parallel_for(rtm, 0, kN, policy::dynamic_ws,
                 [](std::int64_t, std::int64_t) {}, opt);
    benchmark::ClobberMemory();
  }
  if (rtm.tel().totals().alloc_fallbacks != fallbacks_before) {
    state.SkipWithError("huge span fell off the lazy span path");
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_SpanOverheadHuge)
    ->ArgNames({"p"})
    ->Args({1})
    ->Args({4})
    ->Name("BM_SpanOverhead/huge");

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the repo's bench convention is a
// `--json` flag (see scripts/ci.sh and the fig* benches), which
// google-benchmark would reject as unrecognized. Map it to
// --benchmark_format=json and pass everything else through.
int main(int argc, char** argv) {
  static const char kJsonFlag[] = "--benchmark_format=json";
  std::vector<char*> args(argv, argv + argc);
  for (auto& a : args) {
    if (std::strcmp(a, "--json") == 0) {
      a = const_cast<char*>(kJsonFlag);
    }
  }
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
