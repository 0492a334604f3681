#!/usr/bin/env python3
"""End-to-end step-time benchmark of hls::rt (see README.md).

Builds hls_e2e, runs one fresh process per (workload, policy, repetition),
checks every step's output and prints every metric as
`workload metric unit value n=<samples>`.

  python3 bench/e2e/run.py                      # every workload
  python3 bench/e2e/run.py --workload cg_fine --seed 3 --seconds 20 --trace 0
  python3 bench/e2e/run.py --traced             # + traced run, Chrome traces
  python3 bench/e2e/run.py --repeat 2           # suite twice, spread table
  python3 bench/e2e/run.py --compare base.json change.json [base2 change2 ...]

With --workload the last line of stdout is one JSON object holding every
end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
Exits non-zero when any step fails or any check does not hold.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import unittest
from pathlib import Path

sys.dont_write_bytecode = True

import metrics as M  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = HERE / "build"
BIN = BUILD / "hls_e2e"
OUT = BUILD / "out"

WORKERS = 4     # P, one runtime worker per CPU
PROCESSES = 5   # fresh processes per (workload, policy)
MIN_STEPS = 200  # 5 x 200 pooled steps leave 10 beyond the p99
CHILD_TIMEOUT_S = 150
# A process during which the hypervisor took more than STEAL_LIMIT of the
# guest's CPU time (the steal column of /proc/stat) measured the host, not
# the runtime: it runs again, at most RETRIES times per workload run.
STEAL_LIMIT = 0.05
RETRIES = 8
POLICIES = ["static", "dynamic_shared", "guided", "dynamic_ws", "hybrid"]
LEMMA4_BOUND = int(math.log2(WORKERS)) + 1  # lg R + 1 with R = P = 4

# Timed steps per process for each second of --seconds, so the step count is
# fixed per workload for a given --seconds and parent and change do
# identical work. `load_steps` sizes the discarded process that loads the
# machine for about a second before the measured ones: vCPUs that sat idle
# run the first process after an idle gap up to 3x slower.
WORKLOADS = {
    "affine_balanced": {"steps_per_s": 150, "load_steps": 4000},
    "ramp_unbalanced": {"steps_per_s": 24, "load_steps": 800},
    "cg_fine": {"steps_per_s": 16, "load_steps": 500},
    "nested_quad": {"steps_per_s": 40, "load_steps": 1400},
}

# End-to-end metrics: (name, unit, better, bound). BENCHMARK.json mirrors
# this table; test_metrics.py checks that the two agree. README.md gives
# the measured spreads behind the bounds.
E2E = (
    [(f"step_ms_mean.{p}", "ms", "lower", 0.25) for p in POLICIES]
    + [(f"step_ms_p90.{p}", "ms", "lower", 0.25) for p in POLICIES]
    + [("setup_s", "s", "lower", 0.25), ("peak_rss_mb", "MB", "lower", 0.05)]
)
# Printed and compared like the others, but not in BENCHMARK.json: it is 0
# on a healthy run, and any increase counts as a failure.
FAILED_FRAC = ("failed_frac", "ratio", "lower", 0.0)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- per-layer metrics ------------------------------------------------------

def _per_policy(name, unit):
    return [(f"{name}.{p}", unit) for p in POLICIES]


PER_LAYER = (
    _per_policy("step_ms_p50", "ms")
    + _per_policy("step_ms_p99", "ms")
    + _per_policy("sched.overhead_ns_per_iter", "ns")
    + _per_policy("sched.chunks_per_loop", "count")
    + _per_policy("sched.workers_per_loop", "count")
    + [("sched.loops_per_step", "count"),
       ("core.claims_per_loop", "count"),
       ("core.claim_fail_ratio", "ratio"),
       ("core.max_claim_seq_len", "count")]
    + _per_policy("runtime.steal_probes_per_loop", "count")
    + _per_policy("runtime.steal_success_ratio", "ratio")
    + _per_policy("runtime.steal_latency_us", "us")
    + _per_policy("runtime.range_steals_per_loop", "count")
    + _per_policy("runtime.range_splits_per_loop", "count")
    + _per_policy("runtime.parks_per_loop", "count")
    + _per_policy("runtime.park_us_per_step", "us")
    + _per_policy("runtime.wakes_per_loop", "count")
    + _per_policy("runtime.wake_spurious_ratio", "ratio")
    + _per_policy("runtime.backoffs_per_loop", "count")
    + _per_policy("runtime.handoffs_per_loop", "count")
    + _per_policy("runtime.handoff_use_ratio", "ratio")
    + _per_policy("runtime.board_useful_ratio", "ratio")
    + [("runtime.stalls", "count"), ("runtime.alloc_fallbacks", "count")]
    + _per_policy("trace.affinity", "ratio")
    + [("trace.overhead_pct", "%"), ("workloads.serial_ms", "ms")]
    + _per_policy("workloads.speedup", "x")
)
# Ratios whose denominator is zero by construction: these policies put no
# work in deques or range slots, and dynamic_ws never posts to the board.
ALWAYS_NA = (
    {f"runtime.steal_latency_us.{p}" for p in POLICIES[:3]}
    | {f"runtime.handoff_use_ratio.{p}" for p in POLICIES[:3]}
    | {"runtime.board_useful_ratio.dynamic_ws"}
)
# The per-layer metrics BENCHMARK.json lists and --trace 1 reports.
DRIVER_PER_LAYER = [(n, u) for n, u in PER_LAYER if n not in ALWAYS_NA]


def sum_counters(runs):
    total = {}
    for r in runs:
        for k, v in r["counters"].items():
            total[k] = max(total.get(k, 0), v) if k.startswith("max_") \
                else total.get(k, 0) + v
    return total


def mean_step_ms(runs):
    return statistics.fmean(ns for r in runs for ns in r["step_ns"]) / 1e6


def layer_metrics(serial, procs, traced, step_ms):
    """Per-layer values from counter deltas of the untraced processes and,
    when present, the traced ones. step_ms maps each policy to its
    step_ms_mean. None stands for n/a."""
    m = {}
    ts = mean_step_ms([serial])
    iters = serial["iterations_per_step"]
    m["workloads.serial_ms"] = ts
    loops_per_step = []
    for p in POLICIES:
        c = sum_counters(procs[p])
        steps = sum(r["steps"] for r in procs[p])
        loops = c["loops_posted"]
        stolen = c["steals"] + c["range_steals"]
        loops_per_step.append(loops / steps)
        m[f"workloads.speedup.{p}"] = M.ratio(ts, step_ms[p])
        m[f"sched.overhead_ns_per_iter.{p}"] = \
            (WORKERS * step_ms[p] - ts) * 1e6 / iters
        m[f"sched.chunks_per_loop.{p}"] = M.ratio(c["chunks_run"], loops)
        m[f"runtime.steal_probes_per_loop.{p}"] = \
            M.ratio(c["steal_probes"], loops)
        m[f"runtime.steal_success_ratio.{p}"] = \
            M.ratio(stolen, c["steal_probes"])
        m[f"runtime.steal_latency_us.{p}"] = \
            M.ratio(c["steal_latency_ns"] / 1e3, stolen)
        m[f"runtime.range_steals_per_loop.{p}"] = \
            M.ratio(c["range_steals"], loops)
        m[f"runtime.range_splits_per_loop.{p}"] = \
            M.ratio(c["range_splits"], loops)
        m[f"runtime.parks_per_loop.{p}"] = M.ratio(c["idle_sleeps"], loops)
        m[f"runtime.park_us_per_step.{p}"] = \
            M.ratio(c["idle_sleep_ns"] / 1e3, steps)
        m[f"runtime.wakes_per_loop.{p}"] = M.ratio(c["wakes_sent"], loops)
        m[f"runtime.wake_spurious_ratio.{p}"] = \
            M.ratio(c["wakes_spurious"], c["wakes_sent"])
        m[f"runtime.backoffs_per_loop.{p}"] = \
            M.ratio(c["steal_backoffs"], loops)
        m[f"runtime.handoffs_per_loop.{p}"] = \
            M.ratio(c["handoffs_sent"], loops)
        m[f"runtime.handoff_use_ratio.{p}"] = \
            M.ratio(c["handoffs_consumed"], c["handoffs_sent"])
        m[f"runtime.board_useful_ratio.{p}"] = \
            M.ratio(c["board_participations"], c["loop_entries"])
        if p == "hybrid":
            claims = c["claims_ok"] + c["claims_failed"]
            m["core.claims_per_loop"] = M.ratio(claims, loops)
            m["core.claim_fail_ratio"] = M.ratio(c["claims_failed"], claims)
            m["core.max_claim_seq_len"] = c["max_claim_seq_len"]
        t = traced.get(p, {}).get("trace")
        m[f"sched.workers_per_loop.{p}"] = \
            M.ratio(t["worker_sum"], t["loops"]) if t else None
        m[f"trace.affinity.{p}"] = \
            M.ratio(t["affinity_sum"], t["affinity_pairs"]) if t else None
    m["sched.loops_per_step"] = statistics.median(loops_per_step)
    every = [r for p in POLICIES for r in procs[p]] + [serial]
    every += list(traced.values())
    m["runtime.stalls"] = sum(r["counters"]["stalls_detected"] for r in every)
    m["runtime.alloc_fallbacks"] = \
        sum(r["counters"]["alloc_fallbacks"] for r in every)
    if traced:
        m["trace.overhead_pct"] = statistics.median(
            (mean_step_ms([traced[p]]) / step_ms[p] - 1.0) * 100.0
            for p in POLICIES)
    else:
        m["trace.overhead_pct"] = None
    return m


# ---- running ----------------------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no hls sources to build")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", str(WORKERS)],
                   check=True, stdout=sys.stderr)


def child_env():
    # Fault injection and metrics export would change what is measured.
    env = dict(os.environ)
    env.pop("HLS_CHAOS", None)
    env.pop("HLS_METRICS", None)
    return env


def run_child(workload, policy, seed, steps, workers=WORKERS, trace_out=None):
    cmd = [str(BIN), f"--workload={workload}", f"--policy={policy}",
           f"--seed={seed}", f"--steps={steps}", f"--workers={workers}"]
    if trace_out is not None:
        cmd.append(f"--trace-out={trace_out}")
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             env=child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{' '.join(cmd)} ran past {CHILD_TIMEOUT_S} s") \
            from e
    if out.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {out.returncode}: "
                         f"{out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def cpu_times():
    """(steal, total) jiffies summed over all CPUs."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    return v[7], sum(v)


def steps_for(workload, seconds):
    return max(MIN_STEPS,
               round(WORKLOADS[workload]["steps_per_s"] * seconds))


def run_workload(name, seed, seconds, traced):
    steps = steps_for(name, seconds)
    log(f"[{name}] seed {seed}: {PROCESSES} x {len(POLICIES)} processes "
        f"x {steps} steps")
    retries = RETRIES

    def measured(policy, n, **kw):
        nonlocal retries
        while True:
            s0, t0 = cpu_times()
            r = run_child(name, policy, seed, n, **kw)
            s1, t1 = cpu_times()
            r["steal_share"] = (s1 - s0) / max(1, t1 - t0)
            if r["steal_share"] <= STEAL_LIMIT or retries == 0:
                return r
            retries -= 1
            log(f"[{name}] {policy}: the hypervisor took "
                f"{r['steal_share']:.1%} of the CPU time; running it again")

    run_child(name, "hybrid", seed, WORKLOADS[name]["load_steps"])
    serial = measured("serial", MIN_STEPS // 2, workers=1)
    procs = {p: [] for p in POLICIES}
    for rep in range(PROCESSES):
        # Rotate the order so no policy always runs first after the serial
        # baseline or last before the next workload.
        for p in POLICIES[rep:] + POLICIES[:rep]:
            procs[p].append(measured(p, steps))
    traces = {}
    if traced:
        OUT.mkdir(parents=True, exist_ok=True)
        for p in POLICIES:
            path = OUT / f"trace_{name}_{p}.json"
            traces[p] = measured(p, max(MIN_STEPS // 4, steps // 5),
                                 trace_out=path)
            traces[p]["trace_file"] = str(path)
    res = summarize(name, seed, steps, serial, procs, traces)
    res["reruns"] = RETRIES - retries
    return res


def summarize(name, seed, steps, serial, procs, traces):
    problems = []
    every = [serial] + [r for p in POLICIES for r in procs[p]]
    every += list(traces.values())
    attempted = sum(r["steps"] for r in every)
    failed = sum(r["failed_steps"] for r in every)
    for r in every:
        if r["failed_steps"]:
            problems.append(f"{r['policy']}: {r['failed_steps']} failed "
                            f"steps {r['failures']}")
        if r["warmup_failed"]:
            problems.append(f"{r['policy']}: {r['warmup_failed']} failed "
                            "warm-up steps")
        if r["counters"]["max_claim_seq_len"] > LEMMA4_BOUND:
            problems.append(f"{r['policy']}: claim sequence of "
                            f"{r['counters']['max_claim_seq_len']} breaks "
                            f"Lemma 4 (<= {LEMMA4_BOUND})")
    for p, r in traces.items():
        if r["trace"]["bad_loops"]:
            problems.append(f"{p} traced: {r['trace']['bad_loops']} loops "
                            "not run exactly once")
        try:
            with open(r["trace_file"]) as f:
                json.load(f)
        except (OSError, ValueError) as e:
            problems.append(f"{p} traced: invalid Chrome trace: {e}")

    values, samples = {}, {}
    step_ms = {}
    for p in POLICIES:
        pooled = [ns for r in procs[p] for ns in r["step_ns"]]
        step_ms[p] = mean_step_ms(procs[p])
        values[f"step_ms_mean.{p}"] = step_ms[p]
        samples[f"step_ms_mean.{p}"] = f"{len(procs[p])}x{steps}"
        values[f"step_ms_p50.{p}"] = M.median_of_medians(
            [r["step_ns"] for r in procs[p]]) / 1e6
        samples[f"step_ms_p50.{p}"] = f"{len(procs[p])}x{steps}"
        for q in (90, 99):
            v, beyond = M.tail_percentile(pooled, q / 100)
            values[f"step_ms_p{q}.{p}"] = v / 1e6
            samples[f"step_ms_p{q}.{p}"] = f"{len(pooled)} ({beyond} beyond)"
    parallel = [r for p in POLICIES for r in procs[p]]
    for k in ("setup_s", "peak_rss_mb"):
        values[k] = statistics.median(r[k] for r in parallel)
        samples[k] = str(len(parallel))
    values["failed_frac"] = failed / attempted
    samples["failed_frac"] = str(attempted)

    layer = layer_metrics(serial, procs, traces, step_ms)
    values.update(layer)
    for k in layer:
        if k.startswith(("trace.affinity", "sched.workers_per_loop")):
            samples[k] = "1 process"
        elif k.startswith("core.") or k.rsplit(".", 1)[-1] in POLICIES:
            samples.setdefault(k, f"{PROCESSES} processes")
        else:
            samples[k] = f"{len(every)} processes"
    samples["workloads.serial_ms"] = f"{serial['steps']} steps"
    if layer["runtime.stalls"] or layer["runtime.alloc_fallbacks"]:
        log(f"[{name}] note: {layer['runtime.stalls']} watchdog stalls, "
            f"{layer['runtime.alloc_fallbacks']} pool-exhaustion fallbacks")
    return {
        "workload": name, "seed": seed, "steps": steps,
        "warmup_steps": serial["warmup"], "processes": PROCESSES,
        "attempted": attempted, "failed": failed,
        "problems": problems, "values": values, "samples": samples,
        # [median ms, mean ms, steal share] of each process, to see how far
        # apart the fresh processes of one policy land.
        "process_stats": {
            p: [[statistics.median(r["step_ns"]) / 1e6, mean_step_ms([r]),
                 r.get("steal_share")] for r in procs[p]]
            for p in POLICIES},
    }


def units():
    u = {n: unit for n, unit, _, _ in E2E + [FAILED_FRAC]}
    u.update(dict(PER_LAYER))
    return u


def fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def print_workload(res):
    u = units()
    for name in [e[0] for e in E2E] + [FAILED_FRAC[0]] + \
            [n for n, _ in PER_LAYER]:
        print(f"{res['workload']} {name} {u[name]} "
              f"{fmt(res['values'].get(name))} "
              f"n={res['samples'].get(name, '-')}")
    for p in res["problems"]:
        print(f"{res['workload']} FAILED {p}")


def host_info():
    rev = None
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    build_type = None
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    return {"git_revision": rev, "build_type": build_type,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg()}


def run_suite(workloads, seed, seconds, traced):
    info = host_info()
    info.update({"seed": seed, "seconds": seconds, "workers": WORKERS,
                 "processes": PROCESSES, "traced": traced})
    results = {}
    for w in workloads:
        results[w] = run_workload(w, seed, seconds, traced)
        print_workload(results[w])
        sys.stdout.flush()
    info["loadavg_end"] = os.getloadavg()
    return {"info": info, "workloads": results}


# ---- spread and compare -----------------------------------------------------

def print_spread(suites):
    print(f"spread over {len(suites)} sets: IQR / median of each "
          "end-to-end metric, per workload")
    flagged = 0
    for w in suites[0]["workloads"]:
        for name, unit, _, bound in E2E:
            vals = [s["workloads"][w]["values"][name] for s in suites]
            sp = M.spread(vals)
            bad = sp is None or sp > bound
            flagged += bad
            print(f"{w} {name} {unit} median {statistics.median(vals):.6g} "
                  f"spread {fmt(sp)} bound {bound:g}"
                  f"{'  OUTSIDE BOUND' if bad else ''}")
    print(f"{flagged} metric(s) outside their bound")


def compare(paths):
    if len(paths) < 2 or len(paths) % 2:
        raise BenchError("--compare takes pairs: base.json change.json ...")
    loaded = []
    for p in paths:
        with open(p) as f:
            loaded.append(json.load(f))
    bases, changes = loaded[0::2], loaded[1::2]
    common = set(bases[0]["workloads"])
    for s in loaded:
        common &= set(s["workloads"])
    print(f"{len(bases)} pair(s); each side: median [q1, q3]; ratio = "
          "change median / base median")
    for w in sorted(common):
        for name, unit, better, bound in E2E + [FAILED_FRAC]:
            b = [s["workloads"][w]["values"][name] for s in bases]
            c = [s["workloads"][w]["values"][name] for s in changes]
            bq, cq = M.quartiles(b), M.quartiles(c)
            r = M.ratio(cq[1], bq[1])
            print(f"{w} {name} {unit} base {bq[1]:.6g} [{bq[0]:.6g}, "
                  f"{bq[2]:.6g}] change {cq[1]:.6g} [{cq[0]:.6g}, "
                  f"{cq[2]:.6g}] ratio {fmt(r)} (base {bq[1]:.6g} {unit}) "
                  f"bound {bound:g} -> {M.verdict(b, c, better, bound)}")


# ---- entry ------------------------------------------------------------------

def self_test():
    import test_metrics
    suite = unittest.defaultTestLoader.loadTestsFromModule(test_metrics)
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    if not result.wasSuccessful():
        raise BenchError("metric self-test failed")


def driver_line(res, trace):
    names = DRIVER_PER_LAYER if trace else [(n, u) for n, u, _, _ in E2E]
    out = {}
    for n, u in names:
        v = res["values"].get(n)
        if v is not None:
            out[n] = {"value": v, "unit": u}
    return {"correct": not res["problems"] and len(out) == len(names),
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": out}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true",
                    help="same as --trace 1")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--json-out")
    ap.add_argument("--compare", nargs="+", metavar="JSON")
    args = ap.parse_args()
    traced = bool(args.trace) or args.traced

    try:
        self_test()
        if args.compare:
            compare(args.compare)
            return 0
        nproc = len(os.sched_getaffinity(0))
        if nproc < WORKERS:
            raise BenchError(f"needs {WORKERS} CPUs for P = {WORKERS}, "
                             f"this host has {nproc}")
        if args.seconds < 1 or args.repeat < 1:
            raise BenchError("--seconds and --repeat must be >= 1")
        if args.json_out and args.repeat > 1:
            raise BenchError("--json-out names one file; --repeat writes "
                             f"one per set under {OUT}")
        build()
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        suites = []
        for i in range(args.repeat):
            t0 = time.time()
            suites.append(run_suite(workloads, args.seed + i, args.seconds,
                                    traced))
            log(f"set {i + 1}/{args.repeat} took {time.time() - t0:.1f} s")
        OUT.mkdir(parents=True, exist_ok=True)
        for i, suite in enumerate(suites):
            dest = Path(args.json_out) if args.json_out else \
                OUT / f"results_seed{args.seed + i}.json"
            dest.write_text(json.dumps(suite, indent=1))
            log(f"results: {dest}")
        if args.repeat > 1:
            print_spread(suites)
        ok = all(not r["problems"] for s in suites
                 for r in s["workloads"].values())
        if args.workload:
            line = driver_line(suites[-1]["workloads"][args.workload],
                               traced)
            ok = ok and line["correct"]
            print(json.dumps(line))
        return 0 if ok else 1
    except (BenchError, subprocess.CalledProcessError, ValueError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
