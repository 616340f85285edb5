"""The closed-form tail-slope fit against scipy's least-squares reference,
and the written-out 95% normal quantile against scipy's."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import ndtri
from scipy.stats import linregress

from rwpot.stats import Z95, log_tail_slope

# thresholds from a small grid, so that repeated x values are common;
# tail probabilities down to 1e-300, zeros included (the fit drops them)
THRESHOLDS = st.sampled_from([-3.0, -0.5, 0.0, 0.1, 0.3, 1.0, 2.5, 7.0, 40.0])
TAILS = st.one_of(st.just(0.0), st.floats(1e-300, 1.0),
                  st.floats(-690.0, 0.0).map(math.exp))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(THRESHOLDS, TAILS), min_size=2, max_size=12))
def test_log_tail_slope_matches_linregress(points):
    t = np.array([x for x, _ in points])
    p = np.array([q for _, q in points])
    keep = p > 0
    assume(keep.sum() >= 2)
    x, y = t[keep], np.log(p[keep])
    if x.min() == x.max():
        with pytest.raises(ValueError):
            log_tail_slope(t, p)
        return
    slope, intercept = log_tail_slope(t, p)
    ref = linregress(x, y)
    # the fit is relative to the data's own scale: a slope near 0 is the
    # difference of centred sums, so it is compared against sqrt(Syy/Sxx)
    dx, dy = x - x.mean(), y - y.mean()
    scale = math.sqrt((dy @ dy) / (dx @ dx))
    assert math.isclose(slope, ref.slope, rel_tol=1e-12, abs_tol=1e-12 * scale)
    assert math.isclose(intercept, ref.intercept, rel_tol=1e-12,
                        abs_tol=1e-12 * (abs(y.mean()) + scale * abs(x.mean())))


def test_log_tail_slope_exact_line_and_refusals():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    slope, intercept = log_tail_slope(t, np.exp(-0.5 - 2.0 * t))
    assert math.isclose(slope, -2.0, rel_tol=1e-14)
    assert math.isclose(intercept, -0.5, rel_tol=1e-14)
    with pytest.raises(ValueError):
        log_tail_slope([0.0, 1.0, 2.0], [0.5, 0.0, 0.0])
    with pytest.raises(ValueError):  # repeated threshold: no slope to fit
        log_tail_slope([0.1, 0.1, 0.1], [0.5, 0.25, 0.125])


def test_z95_is_scipys_normal_quantile():
    assert Z95 == float(ndtri(0.975))
