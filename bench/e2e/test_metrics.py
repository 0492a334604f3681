"""Self-test of the benchmark's metric math on synthetic data (stdlib
unittest). run.py runs it before every benchmark run; it also runs alone:

  python3 bench/e2e/test_metrics.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True

import metrics as M  # noqa: E402
import run  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_p99_of_1000_leaves_ten_beyond(self):
        value, beyond = M.tail_percentile(range(1, 1001), 0.99)
        self.assertEqual(value, 990)
        self.assertEqual(beyond, 10)

    def test_order_of_samples_does_not_matter(self):
        data = list(range(1, 1001))
        self.assertEqual(M.tail_percentile(reversed(data), 0.99),
                         M.tail_percentile(data, 0.99))

    def test_too_few_samples_beyond_is_refused(self):
        with self.assertRaises(ValueError):
            M.tail_percentile(range(999), 0.99)

    def test_pooled_run_size_meets_the_rule(self):
        M.tail_percentile(range(run.PROCESSES * run.MIN_STEPS), 0.99)


class MedianOfMedians(unittest.TestCase):
    def test_takes_median_of_process_medians(self):
        procs = [[1, 2, 3], [10, 20, 30, 40], [5]]
        self.assertEqual(M.median_of_medians(procs), 5)

    def test_one_slow_process_does_not_move_it(self):
        fast = [[1.0] * 100 for _ in range(4)]
        self.assertEqual(M.median_of_medians(fast + [[9.0] * 100]), 1.0)


def _process(policy, **counters):
    base = {k: 0 for k in (
        "loops_posted", "chunks_run", "steal_probes", "steals",
        "range_steals", "steal_latency_ns", "range_splits", "idle_sleeps",
        "idle_sleep_ns", "wakes_sent", "wakes_spurious", "steal_backoffs",
        "handoffs_sent", "handoffs_consumed", "board_participations",
        "loop_entries", "claims_ok", "claims_failed", "max_claim_seq_len",
        "stalls_detected", "alloc_fallbacks")}
    base.update(counters)
    return {"policy": policy, "steps": 10, "step_ns": [1e6] * 10,
            "iterations_per_step": 100, "counters": base}


class CounterRatios(unittest.TestCase):
    def test_zero_denominator_is_na_not_zero(self):
        self.assertIsNone(M.ratio(5, 0))
        self.assertIsNone(M.ratio(0, 0))
        self.assertEqual(M.ratio(0, 4), 0.0)
        self.assertEqual(run.fmt(M.ratio(1, 0)), "n/a")

    def test_layer_metrics_report_na_for_idle_layers(self):
        procs = {p: [_process(p, loops_posted=10, chunks_run=40,
                              wakes_sent=3, loop_entries=6,
                              board_participations=3)]
                 for p in run.POLICIES}
        p50 = {p: 1.0 for p in run.POLICIES}
        m = run.layer_metrics(_process("serial", loops_posted=10), procs, {},
                              p50)
        self.assertIsNone(m["runtime.steal_success_ratio.static"])
        self.assertIsNone(m["runtime.steal_latency_us.hybrid"])
        self.assertIsNone(m["runtime.handoff_use_ratio.guided"])
        self.assertIsNone(m["core.claim_fail_ratio"])
        self.assertIsNone(m["trace.affinity.hybrid"])
        self.assertEqual(m["runtime.board_useful_ratio.static"], 0.5)
        self.assertEqual(m["sched.chunks_per_loop.dynamic_ws"], 4.0)
        self.assertEqual(m["runtime.stalls"], 0)
        # (P * T_P - Ts) / N with T_P = Ts = 1 ms, N = 100: 30 us per iter.
        self.assertAlmostEqual(m["sched.overhead_ns_per_iter.static"], 30000)

    def test_every_metric_name_is_computed(self):
        def proc(policy):
            r = _process(policy, loops_posted=run.MIN_STEPS)
            r.update(steps=run.MIN_STEPS, step_ns=[1e6] * run.MIN_STEPS,
                     warmup=20, failed_steps=0, warmup_failed=0, failures={},
                     setup_s=0.1, peak_rss_mb=20.0)
            return r
        procs = {p: [proc(p) for _ in range(run.PROCESSES)]
                 for p in run.POLICIES}
        res = run.summarize("w", 1, run.MIN_STEPS, proc("serial"), procs, {})
        names = [e[0] for e in run.E2E] + [run.FAILED_FRAC[0]] + \
            [n for n, _ in run.PER_LAYER]
        self.assertEqual(sorted(res["values"]), sorted(names))
        self.assertEqual(res["problems"], [])


class Verdicts(unittest.TestCase):
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]

    def test_consistent_gain_is_better(self):
        change = [v * 0.8 for v in self.base]
        self.assertEqual(M.verdict(self.base, change, "lower", 0.1), "better")

    def test_higher_is_better_direction(self):
        change = [v * 1.2 for v in self.base]
        self.assertEqual(M.verdict(self.base, change, "higher", 0.1),
                         "better")
        self.assertEqual(M.verdict(self.base, change, "lower", 0.1), "worse")

    def test_loss_beyond_bound_is_worse(self):
        change = [v * 1.15 for v in self.base]
        self.assertEqual(M.verdict(self.base, change, "lower", 0.1), "worse")

    def test_small_gain_within_parent_spread_is_not_better(self):
        change = [v - 0.005 for v in self.base]
        self.assertEqual(M.verdict(self.base, change, "lower", 0.1),
                         "unchanged")

    def test_eight_of_ten_wins_is_not_better(self):
        change = [v * 0.8 for v in self.base[:8]] + \
            [v * 1.05 for v in self.base[8:]]
        self.assertEqual(M.verdict(self.base, change, "lower", 0.1),
                         "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1]
        change = [v * 1.02 for v in noisy]
        self.assertEqual(M.verdict(noisy, change, "lower", 0.1), "unresolved")

    def test_noisy_but_every_change_run_better_is_not_unresolved(self):
        noisy = [1.0, 1.5, 1.2, 1.3, 1.1, 1.2, 1.4, 1.3, 1.25, 1.1]
        change = [0.9 + 0.01 * i for i in range(10)]
        self.assertEqual(M.verdict(noisy, change, "lower", 0.1), "better")

    def test_zero_bound_fails_any_increase(self):
        self.assertEqual(M.verdict([0.0] * 3, [0.0] * 3, "lower", 0.0),
                         "unchanged")
        self.assertEqual(M.verdict([0.0] * 3, [0.0, 0.001, 0.0], "lower",
                                   0.0), "worse")

    def test_unpaired_runs_are_refused(self):
        with self.assertRaises(ValueError):
            M.verdict([1.0, 2.0], [1.0], "lower", 0.1)


class Spread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        vals = [float(v) for v in range(1, 11)]
        self.assertAlmostEqual(M.spread(vals), (8.25 - 2.75) / 5.5)

    def test_fewer_than_four_values_use_the_range(self):
        self.assertAlmostEqual(M.spread([1.0, 2.0]), 1 / 1.5)
        self.assertAlmostEqual(M.spread([1.0, 2.0, 4.0]), 3 / 2)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(M.spread([0.0, 0.0]), 0.0)
        self.assertEqual(M.spread([2.0, 2.0, 2.0]), 0.0)


class BenchmarkJson(unittest.TestCase):
    """BENCHMARK.json at the repository root describes this benchmark."""

    path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

    @unittest.skipUnless(path.is_file(), "no BENCHMARK.json")
    def test_agrees_with_run_py(self):
        doc = json.loads(self.path.read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in doc["end_to_end"]],
            [tuple(e) for e in run.E2E])
        self.assertEqual({w["name"] for w in doc["workloads"]},
                         set(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         run.DRIVER_PER_LAYER)


if __name__ == "__main__":
    unittest.main()
