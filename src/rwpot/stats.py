"""Small statistical helpers: confidence intervals and simple fits."""

import math

import numpy as np

# two-sided 95% normal quantile, the confidence level of every interval:
# scipy.special.ndtri(0.975), written out so that no run loads scipy.special
# for it (statistics.NormalDist().inv_cdf(0.975) is one ulp below it)
Z95 = 1.959963984540054


def wilson_interval(successes, n):
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    z = Z95
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def mean_ci(samples):
    """(mean, std_error, (lo, hi)) with a 95% normal-approximation interval."""
    x = np.asarray(samples, dtype=float)
    m = float(x.mean())
    se = float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0
    return m, se, (m - Z95 * se, m + Z95 * se)


def log_tail_slope(thresholds, tail_probs):
    """Least-squares slope of log tail probability against the threshold.

    Zero tail probabilities are dropped (they carry no slope information).
    Returns (slope, intercept), fitted on centred data.
    """
    t = np.asarray(thresholds, dtype=float)
    p = np.asarray(tail_probs, dtype=float)
    keep = p > 0
    if keep.sum() < 2:
        raise ValueError("need at least two positive tail points to fit")
    t, y = t[keep], np.log(p[keep])
    if t.min() == t.max():
        raise ValueError("cannot fit a slope: all thresholds are equal")
    dt = t - t.mean()
    slope = (dt @ (y - y.mean())) / (dt @ dt)
    return float(slope), float(y.mean() - slope * t.mean())


def intervals_overlap(a, b):
    return a[0] <= b[1] and b[0] <= a[1]
