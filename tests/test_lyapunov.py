import math

import numpy as np
import pytest

from rwpot.errors import ParameterError
from rwpot.lyapunov import (check_norm_properties, estimate_alpha,
                            write_alpha_report)
from rwpot.concentration import prop_box
from rwpot.potential import DistributionSpec, sample_field
from rwpot.rng import derive_seed
from rwpot.solver import travel_weight

TP = DistributionSpec.two_point(0.2, 1.0, 0.5)


def test_constant_potential_exact_band():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        const = DistributionSpec.constant(0.7)
    est = estimate_alpha(const, (1, 0), (2, 3), 3, 42)
    # no randomness: every sample identical, zero standard error
    for _, se, _ in est.per_n:
        assert se == 0.0
    assert est.band == (0.7, 0.7 + math.log(4))
    assert est.band[0] - 1e-12 <= est.alpha_hat <= est.band[1] + 1e-12
    assert est.band_ok


def test_two_point_band_and_monotone_grid():
    est = estimate_alpha(TP, (1, 0), (2, 4), 30, 7)
    assert est.band_ok
    assert est.alpha_hat == min(m for m, _, _ in est.per_n)
    assert est.ci[0] <= est.alpha_hat <= est.ci[1]
    assert sum(c for _, _, c in est.per_n) == 60


def test_bad_arguments_rejected():
    with pytest.raises(ParameterError):
        estimate_alpha(TP, (0, 0), (2, 4), 5, 1)
    with pytest.raises(ParameterError):
        estimate_alpha(TP, (1, 0), (4, 2), 5, 1)
    with pytest.raises(ParameterError, match="nonempty"):
        estimate_alpha(TP, (1, 0), (), 5, 1)
    with pytest.raises(ParameterError):
        estimate_alpha(TP, (1, 0), (2, 4), 5, 1, box_factor=0.5)


def test_zero_potential_warns():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        zero = DistributionSpec.constant(0.0)
    with pytest.warns(UserWarning):
        estimate_alpha(zero, (1, 0), (2,), 2, 1)


def test_estimate_is_deterministic():
    a = estimate_alpha(TP, (1, 0), (2,), 10, 3)
    b = estimate_alpha(TP, (1, 0), (2,), 10, 3)
    assert a.alpha_hat == b.alpha_hat and a.per_n == b.per_n


def test_per_n_means_follow_the_pinned_seed_stream():
    # sample i at scale n is the field seeded derive_seed(seed, n, i) on
    # prop_box(n e1): the stream that stored results depend on
    est = estimate_alpha(TP, (1, 0), (2, 3), 4, 11)
    for n, (mean, _, count) in zip((2, 3), est.per_n):
        region = prop_box((n, 0))
        costs = [travel_weight(sample_field(TP, region, derive_seed(11, n, i)),
                               region, (0, 0), (n, 0)).cost_at((0, 0)) / n
                 for i in range(4)]
        assert count == 4
        assert mean == np.mean(costs)


def test_report_files(tmp_path):
    est = estimate_alpha(TP, (1, 0), (2, 4), 10, 5)
    csv_path = tmp_path / "alpha.csv"
    json_path = tmp_path / "alpha.json"
    write_alpha_report(est, csv_path, json_path)
    text = csv_path.read_text()
    assert text.splitlines()[0] == "n,mean,se,samples"
    assert len(text.splitlines()) == 3
    import json

    obj = json.loads(json_path.read_text())
    assert obj["alpha_hat"] == est.alpha_hat and obj["band_ok"] is True


def test_norm_properties_probe():
    rep = check_norm_properties(TP, (2,), 25, 11)
    assert rep["permutation_ci_overlap"]
    assert rep["reflection_ci_overlap"]
    assert rep["homogeneity_subadditive_ok"]
    assert rep["triangle_ok"]
    assert all(v > 0 for v in rep["estimates"].values())
