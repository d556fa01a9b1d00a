"""Summary statistics used by the benchmark's reports.

Latency quantiles are Harrell-Davis estimates: a weighted mean of all order
statistics, with Beta((n+1)q, (n+1)(1-q)) weights.  Run-to-run they move
less than a single order statistic does when the latencies cluster by op
kind, as they do here.
"""

from __future__ import annotations

import statistics

import numpy as np

# The tail percentile is the highest one with at least this many samples
# strictly above it.
TAIL_BEYOND = 10
# Grid points per order statistic when integrating the Beta weights.
_SUB = 64


def hd_quantile(samples, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, 0 < q < 1."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    # Beta(a, b) mass of each interval ((i-1)/n, i/n], by the midpoint rule
    t = (np.arange(n * _SUB) + 0.5) / (n * _SUB)
    logpdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    w = np.exp(logpdf - logpdf.max()).reshape(n, _SUB).sum(axis=1)
    return float(w @ x / w.sum())


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, n)``.  With n samples the percentile is
    100 (n - 10) / n, the share at or below the sample that has exactly ten
    larger ones, and ``value`` its Harrell-Davis estimate.  With fewer than
    eleven samples no percentile qualifies and the maximum is returned with
    percentile 100.
    """
    xs = list(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return 100.0, max(xs), n
    q = (n - TAIL_BEYOND) / n
    return 100.0 * q, hd_quantile(xs, q), n


def spread(values):
    """Distance between first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
