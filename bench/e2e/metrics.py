"""Metric math of the end-to-end benchmark, kept apart so test_metrics.py
can check it on synthetic data. Standard library only."""

import math
import statistics


def median_of_medians(per_process):
    """Median over processes of each process's median sample."""
    return statistics.median(statistics.median(s) for s in per_process)


def tail_percentile(samples, q, min_beyond=10):
    """Nearest-rank q-th quantile (0 < q < 1) of samples.

    Returns (value, beyond), where beyond counts the samples strictly past
    the value's rank. Raises ValueError when fewer than min_beyond samples
    would lie beyond it: such a percentile is not measured, only guessed.
    """
    data = sorted(samples)
    n = len(data)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it "
            f"(needs {min_beyond})")
    return data[rank - 1], beyond


def ratio(num, den):
    """num / den, or None (reported as n/a) when den is zero."""
    if num is None or den is None or den == 0:
        return None
    return num / den


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them; a
    single value is its own quartiles."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile as a share of the
    median: 0 for identical values, None when only the median is zero.
    Below 4 values the quartiles are extrapolated, so the range is used
    in their place."""
    q1, med, q3 = quartiles(values)
    if len(values) < 4:
        q1, q3 = min(values), max(values)
    if q3 == q1:
        return 0.0
    return ratio(q3 - q1, abs(med))


def verdict(base, change, better, bound):
    """Compares the runs of a parent (base) and a change, one value per run.

    base[i] and change[i] form pair i. better is "lower" or "higher";
    bound is the share of the parent's median by which the metric may get
    worse. Returns one of:
      better     - the change wins at least 9/10 of the pairs (ties count
                   for neither) and the medians differ by more than the
                   parent's quartile spread;
      worse      - the change's median is worse than the parent's by more
                   than the bound (bound 0: any change run is worse than
                   the parent's worst run);
      unresolved - neither, and the parent's own spread is wider than the
                   bound, unless every change run reads better than every
                   parent run;
      unchanged  - neither, within the bound.
    """
    if len(base) != len(change) or not base:
        raise ValueError("compare needs the same number (>= 1) of base and "
                         "change runs")
    sign = 1.0 if better == "lower" else -1.0

    def gain(b, c):  # positive when c is better than b
        return sign * (b - c)

    wins = sum(1 for b, c in zip(base, change) if gain(b, c) > 0)
    q1, mb, q3 = quartiles(base)
    mc = statistics.median(change)
    if wins >= 0.9 * len(base) and gain(mb, mc) > q3 - q1:
        return "better"
    loss = -gain(mb, mc)
    if bound == 0:
        # Any run worse than every parent run fails (failure counts).
        worse = max(sign * c for c in change) > max(sign * b for b in base)
    elif mb == 0:
        worse = loss > 0
    else:
        worse = loss / abs(mb) > bound
    if worse:
        return "worse"
    base_spread = spread(base)
    noisy = base_spread is None or base_spread > bound
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    if noisy and not all_better:
        return "unresolved"
    return "unchanged"
