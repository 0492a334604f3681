#!/usr/bin/env bash
# Full verification pipeline: release build + tests + benches, a
# chaos-seeded stress run, then ThreadSanitizer and UBSan builds of the
# concurrency suites.
set -euo pipefail
cd "$(dirname "$0")/.."

# The main build treats warnings as errors, so a new one fails here
# rather than piling up; the sanitizer builds below keep the defaults.
cmake -B build -G Ninja -DHLS_WERROR=ON
cmake --build build

# Static analysis: clang-tidy over every TU in src/ against the exported
# compile_commands.json (config at .clang-tidy; every finding is an
# error). Gated on availability — hosts without clang-tidy skip with a
# notice rather than silently passing a broken config.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy"
  git ls-files '*.cpp' | grep '^src/' | xargs clang-tidy -p build --quiet
else
  echo "== clang-tidy: not installed, skipping static-analysis step"
fi

# Static memory-ordering contracts (docs/verification.md "Static ordering
# contracts"): every atomic site in src/runtime, src/core, src/sched is
# checked against the *.contract.toml sidecars. The tokenizer frontend is
# dependency-free and always runs; the libclang cross-check frontend
# self-gates with a notice on hosts without python3-clang (--frontend=auto
# falls back instead of silently passing). Prints the aggregated
# "ordlint: ... ordlint_sites_checked=N ordlint_contracts=N" summary line.
echo "== ordlint (memory-ordering contracts)"
python3 tools/ordlint/ordlint.py --frontend=auto \
  --compile-commands build/compile_commands.json

ctest --test-dir build --output-on-failure
# The same suite in parallel, three times over: idle workers that wait on
# the CPU take CPUs from concurrent test binaries, and a test whose timing
# depends on that must fail here rather than at random.
ctest --test-dir build -j"$(nproc)" --repeat until-fail:3 --output-on-failure

# Deterministic model checking (docs/verification.md): bounded-exhaustive
# sweeps of the shipping protocol cores, then the eight
# seeded-broken variants, whose DETECTION is the pass (hls_verify inverts
# the exit code for models marked expect-failure). The ctest pass above
# already ran verify_test/claim_interleaving_test; this sweep exercises
# the CLI path and archives the counters. HLS_VERIFY_DEEP=1 raises depths
# to the full-depth sweep (~100 s instead of ~4 s on a 4-vCPU guest; the
# handoff model alone takes ~40 s, the three range models ~27 s).
echo "== verify (deterministic model checking)"
if [ "${HLS_VERIFY_DEEP:-0}" = "1" ]; then
  verify_runs=(
    "--model=claim --workers=3 --partitions=4 --bound=-1"
    "--model=claim --workers=4 --partitions=8 --bound=3"
    "--model=claim --workers=8 --partitions=32 --mode=random --iters=20000"
    "--model=deque --bound=5"
    "--model=range_slot --bound=5"
    "--model=range_word --bound=5"
    "--model=range_word-floor --bound=5"
    "--model=claim-bitmap --bound=-1"
    "--model=parking --bound=-1"
    "--model=parking-fanout --bound=3"
    "--model=parking-join --bound=4"
    "--model=handoff --bound=3"
    "--model=deque-broken-nolastcas --bound=3"
    "--model=range_slot-broken-nodrain --bound=3"
    "--model=range_word-broken-blindreserve --bound=3"
    "--model=claim-bitmap-broken-nonatomic --bound=3"
    "--model=parking-broken-norecheck --bound=3"
    "--model=parking-fanout-broken-merge --bound=3"
    "--model=parking-join-broken-nobroadcast --bound=3"
    "--model=handoff-broken-dropped --bound=3"
  )
else
  verify_runs=(
    "--model=claim --workers=3 --partitions=4 --bound=-1"
    "--model=claim --workers=4 --partitions=8 --bound=2"
    "--model=deque --bound=3"
    "--model=range_slot --bound=3"
    "--model=range_word --bound=3"
    "--model=range_word-floor --bound=3"
    "--model=claim-bitmap --bound=3"
    "--model=parking --bound=3"
    "--model=parking-fanout --bound=2"
    "--model=parking-join --bound=3"
    "--model=handoff --bound=2"
    "--model=deque-broken-nolastcas --bound=3"
    "--model=range_slot-broken-nodrain --bound=3"
    "--model=range_word-broken-blindreserve --bound=3"
    "--model=claim-bitmap-broken-nonatomic --bound=3"
    "--model=parking-broken-norecheck --bound=3"
    "--model=parking-fanout-broken-merge --bound=3"
    "--model=parking-join-broken-nobroadcast --bound=3"
    "--model=handoff-broken-dropped --bound=3"
  )
fi
: > build/VERIFY_summary.txt
for run in "${verify_runs[@]}"; do
  # shellcheck disable=SC2086  # intentional word-splitting of the flags
  build/src/hls_verify $run | tee -a build/VERIFY_summary.txt
done
grep '^model=' build/VERIFY_summary.txt | awk '
  { for (i = 1; i <= NF; ++i) {
      if (split($i, kv, "=") == 2) {
        if (kv[1] == "verify_states_explored") states += kv[2]
        if (kv[1] == "verify_preemptions")     preempts += kv[2]
        if (kv[1] == "executions")             execs += kv[2]
      } } }
  END { printf "verify summary: models=%d executions=%d " \
               "verify_states_explored=%d verify_preemptions=%d\n", \
               NR, execs, states, preempts }'

for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] && "$b"
done

# Bench smoke: the runtime-primitive microbenches (wake latency, batched
# steal throughput, deque/claim ops) must run in --json mode and produce a
# single valid JSON document, archived for cross-run comparison. The
# archive is a per-benchmark median of three runs: the dispatch and wake
# microbenches are microsecond-scale and sensitive to scheduler noise,
# and the perf gate below compares single numbers.
for r in 1 2 3; do
  build/bench/rt_primitives --json > "build/BENCH_rt_primitives.$r.json"
done
python3 - <<'EOF'
import json
import statistics
runs = [json.load(open(f"build/BENCH_rt_primitives.{r}.json")) for r in (1, 2, 3)]
by_name = [{b["name"]: b for b in r["benchmarks"]} for r in runs]
merged = runs[0]
for b in merged["benchmarks"]:
    for field in ("real_time", "cpu_time"):
        b[field] = statistics.median(m[b["name"]][field] for m in by_name)
json.dump(merged, open("build/BENCH_rt_primitives.json", "w"), indent=1)
EOF
python3 -m json.tool build/BENCH_rt_primitives.json > /dev/null
python3 - <<'EOF'
import json
names = [b["name"] for b in json.load(open("build/BENCH_rt_primitives.json"))["benchmarks"]]
assert any("BM_WakeLatency" in n for n in names), names
assert any("BM_HandoffLatency" in n for n in names), names
assert any("BM_TeamArrival" in n for n in names), names
assert "BM_SpanOverhead/p:1" in names, names
assert "BM_SpanOverhead/p:4" in names, names
assert any("BM_SpanOverhead/huge" in n for n in names), names
assert any("BM_SpanOverhead/handoff" in n for n in names), names
assert "BM_ParallelFor/hybrid/4/7000" in names, names
assert "BM_ParallelFor/static/4/7000" in names, names
EOF

# Huge-N smoke under a hard address-space cap: 2^33-iteration loops on the
# lazy span path plus the N = 2^32 + 3 static-boundary case must complete
# in O(P + N/grain) memory. The 2 GB ulimit turns any regression that
# re-materializes O(N) state (an eager task tree, a per-iteration owner
# map) into an allocation failure instead of an OOM-killed host.
echo "== huge-N smoke (bounded address space)"
( ulimit -v 2097152; build/tests/huge_n_test --gtest_brief=1 )

# Fig. 1 microbench archive (JSON-lines, one record per measurement), kept
# next to the primitives archive for cross-run comparison.
build/bench/fig1_micro --json > build/BENCH_fig1_micro.json
python3 -m json.tool --json-lines build/BENCH_fig1_micro.json > /dev/null
# Every DES figure is simulator output, deterministic to the byte, so each
# archive must equal its baseline exactly: the perf gate below would pass
# any fig1 drift that lowers no speedup by more than 15 %, and gates no
# other figure.
echo "== DES baselines (exact)"
for b in fig1_micro fig2_affinity fig3_nas fig4_memcounts fig5_latency \
         ablation_arrival ablation_claims ablation_grain ablation_partitions; do
  [ "$b" = fig1_micro ] || "build/bench/$b" --json > "build/BENCH_$b.json"
  if ! cmp "build/BENCH_$b.json" "bench/baseline/BENCH_$b.json"; then
    echo "$b --json no longer matches bench/baseline/BENCH_$b.json:"
    echo "the simulator's output moved. If the move is intended, re-record with"
    echo "  HLS_PERF_BASELINE_UPDATE=1 python3 scripts/perf_gate.py \\"
    echo "    --current build/BENCH_$b.json \\"
    echo "    --baseline bench/baseline/BENCH_$b.json --format fig1"
    echo "and list each moved row in CHANGES.md."
    exit 1
  fi
done

# Perf-regression gate: both archives are diffed against the committed
# baselines (bench/baseline/); a >15% regression fails the run. Regenerate
# a stale baseline with HLS_PERF_BASELINE_UPDATE=1 and commit it.
echo "== perf gate"
python3 scripts/perf_gate.py --current build/BENCH_rt_primitives.json \
  --baseline bench/baseline/BENCH_rt_primitives.json --format gbench
python3 scripts/perf_gate.py --current build/BENCH_fig1_micro.json \
  --baseline bench/baseline/BENCH_fig1_micro.json --format fig1

# Telemetry end-to-end: a traced run must produce valid Chrome trace JSON
# and a parsable JSON-lines report.
build/bench/rt_telemetry --telemetry --telemetry-format=json --json \
  --trace-out=build/rt_telemetry_trace.json | python3 -m json.tool --json-lines > /dev/null
python3 -m json.tool build/rt_telemetry_trace.json > /dev/null
build/examples/quickstart --telemetry --trace-out=build/quickstart_trace.json > /dev/null
python3 -m json.tool build/quickstart_trace.json > /dev/null

# Metrics smoke: a --metrics-out run must emit parsable JSON-lines samples
# at the configured rate, per-site invocation records whose deltas close
# against the residual line, and a Prometheus exposition with quantiles.
# The archive (build/METRICS_smoke.jsonl + .prom) is kept for inspection.
echo "== metrics smoke"
build/examples/heat_stencil --steps=40 --metrics-out=build/METRICS_smoke.jsonl \
  --metrics-hz=50 > /dev/null
python3 - <<'EOF'
import json
kinds = {}
with open("build/METRICS_smoke.jsonl") as f:
    rows = [json.loads(l) for l in f if l.strip()]
for r in rows:
    kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
assert kinds.get("sample", 0) >= 2, kinds        # start + stop at minimum
assert kinds.get("invocation", 0) >= 1, kinds
assert kinds.get("residual", 0) == 1, kinds
# Accounting identity: recorded + residual == totals, per SUM counter.
res = next(r for r in rows if r["kind"] == "residual")
for k, total in res["totals"].items():
    if k == "max_claim_seq_len":
        continue  # watermark: not differentiable
    assert res["recorded"][k] + res["residual"][k] == total, k
prom = open("build/METRICS_smoke.jsonl.prom").read()
assert 'hls_chunk_duration_ns{quantile="0.99"}' in prom
assert "hls_loop_site_invocations_total{site=" in prom
EOF

for e in quickstart heat_stencil adaptive_quadrature simulate_machine \
         nbody_weighted; do
  "build/examples/$e" > /dev/null
done
build/examples/nas_driver all

# Chaos-seeded stress run: the full stress suite under the fault injector
# (docs/robustness.md). The seed is fixed so a failure replays exactly.
echo "== chaos stress"
HLS_CHAOS="seed=20260807,claim_fail=0.3,claim_peek=0.2,steal_fail=0.3,pop_skip=0.1,post_fail=0.2,range_fail=0.3,delay=0.05,delay_chunk=0.05,delay_park=0.02,delay_us=50" \
  build/tests/stress_test --gtest_brief=1
build/examples/quickstart --chaos=20260807 > /dev/null

# Chaos stall sweep: 200 deterministic delay-fault seeds across all six
# policies, watchdog on a tight progress budget. Invariants per seed:
# exactly-once execution and the Lemma-4 claim-sequence bound; in
# aggregate the watchdog must detect injected stalls and rescue stranded
# hybrid earmarks (docs/robustness.md).
echo "== chaos stall sweep"
HLS_STALL_SWEEP_SEEDS=200 build/tests/stall_sweep_test --gtest_brief=1

# End-to-end smoke (bench/e2e): short traced runs whose every loop must
# tile its iteration space exactly once, so run.py's last stdout line
# reads "correct": true. ramp_unbalanced runs the heavy tails the measured
# split floor cuts below the grain; cg_fine the short loops; nested_quad
# the nested spans. Under --trace 1, "correct" also needs every per-layer
# metric defined, and a ratio reads n/a when its denominator is zero (a
# short run that sent no handoff), so a failure prints the failed-step
# count and the per-layer metrics that came back missing, named from
# run.py's own list of reported metrics. run.py refuses to run on fewer
# than 4 CPUs (its numbers are for P = 4), so the smoke skips with a
# notice there.
echo "== e2e smoke"
if [ "$(nproc)" -ge 4 ]; then
  for w in ramp_unbalanced cg_fine nested_quad; do
    # run.py exits 1 when "correct" is false, after printing its JSON
    # line; the check below, not set -e, must see that line to say why.
    last=$(python3 bench/e2e/run.py --workload "$w" --seconds 2 --trace 1 |
           tail -n 1) || true
    python3 - "$w" "$last" <<'EOF'
import json
import sys
sys.dont_write_bytecode = True  # leave bench/e2e as checked out
sys.path.insert(0, "bench/e2e")
from run import DRIVER_PER_LAYER
w, r = sys.argv[1], json.loads(sys.argv[2])
if r["correct"] is not True:
    missing = [n for n, _ in DRIVER_PER_LAYER if n not in r["metrics"]]
    print(f"e2e smoke {w}: failed {r['failed']} of {r['attempted']} "
          f"steps; missing metrics: {', '.join(missing) or 'none'}")
assert r["correct"] is True, w
EOF
    echo "e2e smoke $w: correct"
  done
else
  echo "== e2e smoke: $(nproc) CPUs < 4, run.py refuses to run; skipping"
fi

cmake -B build-tsan -G Ninja -DHLS_SANITIZE=thread
cmake --build build-tsan
for t in deque_test runtime_test parking_test wake_latency_test \
         handoff_test parallel_for_test \
         hybrid_loop_test task_group_test stress_test \
         reduce_test sched_features_test micro_workload_test \
         telemetry_test telemetry_runtime_test faultsim_test \
         hardening_test chaos_sched_test range_slot_test \
         profiler_test metrics_export_test health_test degrade_test \
         stall_sweep_test; do
  echo "== TSAN $t"
  "build-tsan/tests/$t" --gtest_brief=1
done

# UBSan (with -fno-sanitize-recover=all, so any finding fails the run).
cmake -B build-ubsan -G Ninja -DHLS_SANITIZE=undefined
cmake --build build-ubsan
ctest --test-dir build-ubsan --output-on-failure

# ASan+LSan: heap corruption and leaks across the full suite. LSan needs
# ptrace (CAP_SYS_PTRACE); sandboxed/containerized hosts that cannot
# ptrace skip with a notice rather than failing on the harness itself.
# detect_stack_use_after_return: a loop's state lives in its poster's
# parallel_for frame, so a late read of it is a read of a returned frame,
# which plain ASan does not see.
echo 'int main(){return 0;}' > build/asan_probe.c
if cc -fsanitize=address build/asan_probe.c -o build/asan_probe 2>/dev/null && \
   ASAN_OPTIONS=detect_leaks=1 ./build/asan_probe 2>/dev/null; then
  cmake -B build-asan -G Ninja -DHLS_SANITIZE=address
  cmake --build build-asan
  ASAN_OPTIONS=detect_leaks=1:detect_stack_use_after_return=1 \
    ctest --test-dir build-asan --output-on-failure
else
  echo "== ASan+LSan: leak detection unavailable on this host (no ptrace), skipping"
fi
echo "CI OK"
