"""Estimation of the directional growth rate alpha(x) of travel costs.

alpha(x) = inf_n E[a(0, n x)] / n, the deterministic norm governing the
exponential decay of travel weights. The estimator evaluates box-restricted
costs on fresh fields for each n in a grid and takes the minimum of the
per-n means; restriction and the min both bias upward, which is recorded
rather than corrected. Every estimate is checked against the analytic band

    -log E[exp(-omega)] <= alpha(x)/|x|_1 <= log(2d) + E[omega].
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .concentration import DEFAULT_BOX_FACTOR, cost_samples
from .errors import ParameterError
from .io import write_csv, write_json
from .lattice import norms
from .rng import derive_seed
from .stats import Z95, intervals_overlap, mean_ci

# Slack between box-restricted and unrestricted costs used when comparing
# estimates across directions: each side may overshoot by up to log 2 except
# on an event of exponentially small probability.
BOX_SLACK = math.log(2.0)


@dataclass(eq=False)
class AlphaEstimate:
    direction: tuple
    n_grid: tuple
    per_n: tuple  # ((mean a/n, std_error, sample_count), ...)
    alpha_hat: float
    ci: tuple  # 95% interval around alpha_hat
    band: tuple  # (lo, hi) for alpha_hat / |direction|_1
    band_ok: bool
    upward_bias_note: str = (
        "alpha_hat is the min over a finite n grid of box-restricted means; "
        "both the restriction and the finite grid bias the estimate upward"
    )


def estimate_alpha(spec, direction, n_grid, samples_per_n, seed,
                   box_factor=DEFAULT_BOX_FACTOR):
    direction = tuple(int(v) for v in direction)
    l1 = norms(direction)[0]
    if l1 == 0:
        raise ParameterError("direction must be nonzero")
    n_grid = tuple(int(n) for n in n_grid)
    if not n_grid or list(n_grid) != sorted(set(n_grid)) or n_grid[0] < 1:
        raise ParameterError("n_grid must be nonempty strictly increasing positive integers")
    if box_factor < 1:
        raise ParameterError("box_factor must be >= 1")
    if spec.is_almost_surely_zero():
        warnings.warn("potential is a.s. zero; the infinite-volume alpha is 0 "
                      "in the recurrent regime, estimates reflect box size only")
    per_n = []
    for n in n_grid:
        target = tuple(n * v for v in direction)
        a = cost_samples(spec, target, samples_per_n, (seed, n), box_factor) / n
        m, se, _ = mean_ci(a)
        per_n.append((m, se, len(a)))
    means = [m for m, _, _ in per_n]
    k = int(np.argmin(means))
    alpha_hat = means[k]
    ci = (alpha_hat - Z95 * per_n[k][1], alpha_hat + Z95 * per_n[k][1])
    band_lo = -math.log(spec.exp_neg_moment())
    band_hi = math.log(2 * len(direction)) + spec.mean()
    ratio = alpha_hat / l1
    half = Z95 * per_n[k][1] / l1
    band_ok = (band_lo - half <= ratio <= band_hi + half)
    return AlphaEstimate(direction, n_grid, tuple(per_n), alpha_hat, ci,
                         (band_lo, band_hi), band_ok)


def write_alpha_report(est: AlphaEstimate, csv_path, json_path):
    write_csv(csv_path, ("n", "mean", "se", "samples"),
              [(n, m, se, c) for n, (m, se, c) in zip(est.n_grid, est.per_n)])
    write_json(json_path, {
        "direction": list(est.direction),
        "alpha_hat": est.alpha_hat,
        "ci": list(est.ci),
        "band_lo": est.band[0],
        "band_hi": est.band[1],
        "band_ok": est.band_ok,
        "upward_bias_note": est.upward_bias_note,
    })


def check_norm_properties(spec, n_grid, samples_per_n, seed,
                          box_factor=DEFAULT_BOX_FACTOR, d=2):
    """Statistical probes of the norm properties of alpha.

    Symmetry probes (coordinate permutation e1/e2, reflection e1/-e1) expect
    overlapping confidence intervals; failures are flagged, not fatal.
    Homogeneity and the triangle inequality are one-sided probes with the
    box slack (2 log 2) plus CI widths added to keep the assertions sound.
    """
    e1 = (1,) + (0,) * (d - 1)
    e2 = (0, 1) + (0,) * (d - 2)
    me1 = tuple(-v for v in e1)
    diag = tuple(a + b for a, b in zip(e1, e2))

    def est(direction, tag):
        return estimate_alpha(spec, direction, n_grid, samples_per_n,
                              derive_seed(seed, tag), box_factor)
    a_e1 = est(e1, 1)
    a_e2 = est(e2, 2)
    a_me1 = est(me1, 3)
    a_2e1 = est((2,) + (0,) * (d - 1), 4)
    a_diag = est(diag, 5)

    ci_w = sum(x.ci[1] - x.ci[0] for x in (a_e1, a_e2, a_diag, a_2e1))
    report = {
        "permutation_ci_overlap": intervals_overlap(a_e1.ci, a_e2.ci),
        "reflection_ci_overlap": intervals_overlap(a_e1.ci, a_me1.ci),
        # estimate(2 e1) <= 2 estimate(e1) + slack (subadditive direction only)
        "homogeneity_subadditive_ok": (
            a_2e1.alpha_hat <= 2 * a_e1.alpha_hat + 2 * BOX_SLACK + ci_w
        ),
        "homogeneity_values": [a_2e1.alpha_hat, 2 * a_e1.alpha_hat],
        "triangle_ok": (
            a_diag.alpha_hat
            <= a_e1.alpha_hat + a_e2.alpha_hat + 2 * BOX_SLACK + ci_w
        ),
        "triangle_values": [a_diag.alpha_hat, a_e1.alpha_hat + a_e2.alpha_hat],
        "estimates": {
            "e1": a_e1.alpha_hat, "e2": a_e2.alpha_hat, "minus_e1": a_me1.alpha_hat,
            "two_e1": a_2e1.alpha_hat, "e1_plus_e2": a_diag.alpha_hat,
        },
        "slack": 2 * BOX_SLACK + ci_w,
    }
    return report
