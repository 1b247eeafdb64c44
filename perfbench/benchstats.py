"""Pure statistics of the paced dispatch benchmark (no I/O, no clock).

Times are in seconds. A run makes one or more paced passes over the same
inputs. Each pass measures, for each paced intake window k, its service
time s_k (from the pacer handing control back to the simulator until the
window's work is done) and its lag (completion minus due time). A run's
figures pool the windows of all its passes.
"""

import math


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail_percentile(values):
    """The highest integer percentile with at least 10 samples beyond it.

    Returns (percentile, value, sample_count), the value taken by nearest
    rank: p90 of 100 samples, p75 of 40, p96 of 300. Needs at least 11
    samples.
    """
    n = len(values)
    if n < 11:
        raise ValueError(f"need at least 11 samples for a tail, got {n}")
    percentile = (100 * (n - 10)) // n
    rank = max(1, math.ceil(percentile * n / 100))
    return percentile, sorted(values)[rank - 1], n


def lag_recursion(service, budget):
    """Open-loop lags of windows due every `budget` seconds.

    lag_k = max(0, lag_{k-1} - budget) + s_k: a window starts when it is due
    or when the previous one finishes, whichever is later.
    """
    lags = []
    backlog = 0.0
    for s in service:
        backlog = max(0.0, backlog - budget) + s
        lags.append(backlog)
    return lags


def pooled_lags(passes, budget):
    """The lag recursion run over each pass in turn, its lags concatenated.

    Every pass starts without a backlog.
    """
    return [lag for service in passes for lag in lag_recursion(service, budget)]


def meets_budget(passes, budget):
    """Whether the tail of the pooled lags at this budget stays within it."""
    return tail_percentile(pooled_lags(passes, budget))[1] <= budget


def capacity_speedup(passes, delta, iterations=200):
    """The highest speedup S whose budget delta/S keeps the tail lag within it.

    `passes` holds each pass's service times. Bisects on the budget
    b = delta/S. Lags only fall as b grows, so the feasible budgets form an
    interval [b*, inf). b* lies between the tail service time (no lag is
    below its own service time) and the largest service time (no backlog
    can form once b covers every window).
    """
    service = [s for p in passes for s in p]
    lo = tail_percentile(service)[1]
    hi = max(service)
    if meets_budget(passes, lo):
        return delta / lo
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if meets_budget(passes, mid):
            hi = mid
        else:
            lo = mid
    return delta / hi


def max_replay_error(service, lags, budget):
    """Largest gap between measured lags and the recursion over `service`."""
    replay = lag_recursion(service, budget)
    return max(abs(a - b) for a, b in zip(lags, replay))
