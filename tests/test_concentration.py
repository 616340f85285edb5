import math

import numpy as np
import pytest

from rwpot import solver
from rwpot.concentration import (_draw_site, cost_samples, compare_restricted,
                                 entropy_fn, entropy_global_probe, entropy_suite,
                                 martingale_diagnostics,
                                 pinned_return_probability, psi_herbst,
                                 rank_one_verify, require_assumptions,
                                 tail_experiment, truncation_gap,
                                 origin_cost, prop_box, variance_scaling,
                                 write_tail_report)
from rwpot.errors import AssumptionError, CapacityError, ParameterError
from rwpot.lattice import BoxRegion
from rwpot.potential import DistributionSpec, sample_field
from rwpot.rng import derive_seed

TP = DistributionSpec.two_point(0.2, 1.0, 0.5)
EXP = DistributionSpec.exponential(1.0)
LN = DistributionSpec.log_normal(0.0, 1.0)


def _const(c):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return DistributionSpec.constant(c)


def test_pinned_return_probability():
    assert pinned_return_probability(2) == 1.0
    p3 = pinned_return_probability(3)
    assert abs(p3 - 0.3405) < 0.002  # extrapolated transient value
    assert pinned_return_probability(3) is p3 or pinned_return_probability(3) == p3
    # its eigen-sums would hold 33^6 doubles (10.3 GB) at d = 6
    for d in (6, 7):
        with pytest.raises(ParameterError, match="d <= 5"):
            pinned_return_probability(d)


def test_assumption_gates():
    require_assumptions(TP, {"A1", "A2"}, 2)
    with pytest.raises(AssumptionError) as err:
        require_assumptions(LN, {"A1"}, 3)
    assert err.value.name == "A1"
    # exponential law has zero essential infimum: refused in d=2 only
    require_assumptions(EXP, {"A2"}, 3)
    with pytest.raises(AssumptionError) as err:
        require_assumptions(EXP, {"A2"}, 2)
    assert err.value.name == "A3"
    require_assumptions(EXP, {"A2"}, 2, override=True)


def test_tail_experiment_basic_shape():
    rep = tail_experiment(TP, (4, 0), "UpperExp", 400, [0.0, 0.5, 1.0, 2.0], 3)
    tails = rep.tails()
    assert np.all(np.diff(tails) <= 1e-12)
    assert 0.1 <= tails[0] <= 0.9  # t=0 threshold sits near the center
    assert tails[-1] <= tails[0]
    for _, lo, hi in rep.empirical:
        assert 0 <= lo <= hi <= 1


def test_tail_experiment_refusals():
    with pytest.raises(AssumptionError):
        tail_experiment(LN, (4, 0), "UpperExp", 10, [0.0], 1)
    with pytest.raises(ParameterError):
        tail_experiment(TP, (4, 0), "UpperLD", 10, [0.0], 1)
    with pytest.raises(ParameterError):
        tail_experiment(TP, (4, 0), "Sideways", 10, [0.0], 1)
    rep = tail_experiment(LN, (3, 0), "UpperExp", 20, [0.0], 1, override=True)
    assert rep.samples == 20


def test_tail_large_deviation_side():
    rep = tail_experiment(TP, (4, 0), "UpperLD", 200, [0.2, 0.5], 5,
                          alpha_ref=0.9)
    assert rep.alpha_ref == 0.9
    assert np.all(np.diff(rep.tails()) <= 1e-12)


def test_write_tail_report(tmp_path):
    rep = tail_experiment(TP, (3, 0), "UpperExp", 100, [0.0, 1.0], 2)
    write_tail_report(rep, tmp_path / "t.csv", tmp_path / "t.json")
    header = (tmp_path / "t.csv").read_text().splitlines()[0]
    assert header == "t,tail,ci_lo,ci_hi,ref_shape"


def test_variance_scaling_grows_with_distance():
    rep = variance_scaling(TP, 400, 17, n_small=4, n_large=8)
    assert rep["small"]["var"] > 0
    assert rep["large"]["var"] > rep["small"]["var"]
    assert rep["ratio"] < 8.0  # far from the diffusive n^2 growth


def test_compare_restricted_monotone_and_degenerate():
    rep = compare_restricted(TP, (4, 0), [1.5, 3.0], 200, 9)
    assert rep["monotone_violations"] == 0
    assert rep["mean_costs"][0] >= rep["mean_costs"][1]
    same = compare_restricted(TP, (4, 0), [2.0, 2.0], 50, 9)
    assert same["mean_gap_small_vs_large"] == 0.0
    for grid in ([3.0, 1.5], [], [2.0]):
        with pytest.raises(ParameterError):
            compare_restricted(TP, (4, 0), grid, 10, 1)


def test_truncation_gap_nonnegative_and_gate():
    rep = truncation_gap(EXP, (8, 0), 0.5, 60, 21)
    assert rep["negative_gap_count"] == 0
    assert rep["min_gap"] >= 0.0
    with pytest.raises(AssumptionError):
        truncation_gap(EXP, (8, 0), 2.0, 10, 1)  # exp moment diverges
    # bounded law: cap is never active, every gap is exactly zero
    rep0 = truncation_gap(TP, (8, 0), 0.5, 30, 21)
    assert rep0["max_gap"] == 0.0 and rep0["positive_gap_count"] == 0


def test_rank_one_bounds_hold():
    records = rank_one_verify(TP, (2, 1), 40, 13)
    assert len(records) == 40
    for r in records:
        assert not r.violates()
        assert r.sigma_y >= r.omega_y
        assert r.delta >= -1e-8


def test_rank_one_zero_perturbation_in_d3():
    # transient dimension: the site bound is finite for zero-floor laws too
    records = rank_one_verify(EXP, (2, 1, 0), 10, 3)
    assert all(math.isfinite(r.bound_site) for r in records)
    assert all(not r.violates() for r in records)


def test_site_draw_skips_avoided_sites_and_advances_the_seed_per_draw():
    sites = BoxRegion.centered(1, 2).sites()
    seeds = [11]
    for _ in range(40):
        seeds.append(derive_seed(seeds[-1], 1))
    draws = [_draw_site(sites, s, (4, 0), ()) for s in seeds[:-1]]
    assert [after for _, after in draws] == seeds[1:]  # one draw each
    # avoiding the first draw's site: the first later draw of another site
    first = draws[0][0]
    k = next(k for k, (y, _) in enumerate(draws) if y != first)
    assert _draw_site(sites, 11, (4, 0), (first,)) == draws[k]


def test_site_draw_with_every_site_avoided_raises():
    # the one-site box of the origin: the draw would never end
    with pytest.raises(ParameterError, match="no site to draw"):
        rank_one_verify(TP, (0, 0), 1, 3)
    env = sample_field(TP, BoxRegion.centered(0, 2), 5)
    with pytest.raises(ParameterError, match="no site to draw"):
        entropy_suite(TP, env, (1, 0), [-0.5], 5)


def test_entropy_fn_closed_form():
    # two-point X: weights (1/2, 1/2), values (1, e)
    w, v = [0.5, 0.5], [1.0, math.e]
    expected = 0.5 * math.e - (0.5 + 0.5 * math.e) * math.log(0.5 + 0.5 * math.e)
    assert abs(entropy_fn(w, v) - expected) < 1e-14
    assert entropy_fn([0.3, 0.7], [2.0, 2.0]) == pytest.approx(0.0, abs=1e-14)
    assert entropy_fn([0.5, 0.5], [1.0, 3.0]) > 0


def test_entropy_suite_exact_inequality():
    region = BoxRegion.centered(3, 2)
    env = sample_field(TP, region, 5)
    records = entropy_suite(TP, env, (2, 0), [-0.1, -0.5, -1.0], 5)
    for r in records:
        assert -1e-12 <= r.ent_value <= r.rhs_bound + 1e-9
        assert r.psi_value >= -1e-12
        assert len(r.u_values) == 2
    zero = entropy_suite(TP, env, (2, 0), [0.0], 5)[0]
    assert zero.ent_value == pytest.approx(0.0, abs=1e-14)
    assert zero.psi_value == pytest.approx(0.0, abs=1e-14)


def test_entropy_suite_requires_finite_support():
    region = BoxRegion.centered(2, 2)
    env = sample_field(EXP, region, 1)
    with pytest.raises(AssumptionError) as err:
        entropy_suite(EXP, env, (1, 0), [-0.5], 1)
    assert err.value.name == "finite-support"
    with pytest.raises(ParameterError):
        entropy_suite(TP, sample_field(TP, region, 1), (1, 0), [0.5], 1)


def test_entropy_global_probe_bounded_constant():
    rep = entropy_global_probe(TP, (3, 0), [-0.1, -0.5], 100, 7)
    for row in rep["per_lambda"]:
        assert row["ent"] >= -1e-12
        assert row["implied_c"] < 10.0


def test_psi_herbst_properties():
    rep = psi_herbst(TP, [(2, 0), (4, 0)], [-0.3, -0.1, 0.0], 300, 19)
    assert rep["psi_min"] >= -1e-12
    assert rep["ratio_max"] < 20.0
    for row in rep["rows"]:
        if row["lambda"] == 0.0:
            assert row["psi"] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ParameterError):
        psi_herbst(TP, [(2, 0)], [-0.9], 10, 1)


def test_psi_constant_potential_is_zero():
    rep = psi_herbst(_const(0.5), [(2, 0)], [-0.3, -0.1], 50, 1)
    assert abs(rep["psi_min"]) < 1e-12 and abs(rep["ratio_max"]) < 1e-10


def test_martingale_telescoping_is_exact():
    diag = martingale_diagnostics(TP, (2, 0), 6, 23)
    assert abs(diag.telescope_sum - diag.telescope_target) < 1e-10
    assert len(diag.delta_i_hat) == len(diag.site_order) == 49
    assert diag.u_sum > 0
    # u_i = c * q_visit, so sum u_i / c recovers the expected range
    scale = diag.c_fitted if diag.c_fitted > 0 else 1.0
    assert abs(diag.u_sum / scale - diag.expected_range) < 1e-10


def test_martingale_deterministic_field_has_zero_increments():
    diag = martingale_diagnostics(_const(0.4), (2, 0), 3, 1)
    assert np.max(np.abs(diag.delta_i_hat)) < 1e-12
    assert abs(diag.telescope_sum) < 1e-12


def test_martingale_capacity():
    with pytest.raises(CapacityError):
        martingale_diagnostics(TP, (2, 0), 2, 1,
                               region=BoxRegion.centered(4, 2))


def test_cost_samples_deterministic_and_monotone_in_the_box():
    a = cost_samples(TP, (3, 0), 5, (77,))
    b = cost_samples(TP, (3, 0), 5, (77,))
    assert np.array_equal(a, b)
    # the box [-4, 4]^2 inside the default [-6, 6]^2, on the same fields
    small = cost_samples(TP, (3, 0), 5, (77,), box_factor=1.25)
    assert np.all(small >= a - 1e-10)  # smaller box never cheaper


def _factorizations(monkeypatch):
    """A list that gains one entry per dpbtrf call of the solver."""
    calls = []
    real = solver.dpbtrf
    monkeypatch.setattr(solver, "dpbtrf", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


@pytest.mark.parametrize("spec, x", [(TP, (4, 0)), (LN, (3, 0)), (EXP, (1, 1, 0))])
def test_cost_samples_are_one_solve_per_sample_field_bit_for_bit(spec, x):
    # stacked draws and stacked solves give what sample_field and one
    # travel_weight per field give: the fields bit for bit, the costs
    # within 1e-12 (at d=2, bit for bit as well)
    region = prop_box(x)
    got = cost_samples(spec, x, 30, (5, 2))
    fields = [sample_field(spec, region, derive_seed(5, 2, i)) for i in range(30)]
    ref = np.array([origin_cost(f, region, x) for f in fields])
    assert np.all(np.abs(got - ref) <= 1e-12 * ref)
    if len(x) == 2:
        assert np.array_equal(got, ref)


def test_truncation_gap_solves_only_the_fields_whose_cap_bites(monkeypatch):
    x, gamma, seed = (2, 0), 0.9, 4  # cap 6.16 on 81 sites: it bites now and then
    region = prop_box(x)
    fields = [sample_field(EXP, region, derive_seed(seed, i)) for i in range(40)]
    capped = [f.truncated(x, gamma) for f in fields]
    bites = [not np.array_equal(f.values, c.values) for f, c in zip(fields, capped)]
    assert 0 < sum(bites) < 40
    calls = _factorizations(monkeypatch)
    rep = truncation_gap(EXP, x, gamma, 40, seed)
    assert len(calls) == 1  # the raw and capped fields that bite, one stack
    ref = [origin_cost(f, region, x) - origin_cost(c, region, x) if b else 0.0
           for f, c, b in zip(fields, capped, bites)]
    assert np.array_equal(rep["gaps"], ref)
    # the CLI default: the cap of 22.2 never bites a TwoPoint law below 1
    calls.clear()
    assert truncation_gap(TP, (4, 0), 0.5, 50, 1)["max_gap"] == 0.0
    assert calls == []


def test_threads_keyword_is_ignored():
    # perfbench/workloads.call still passes threads=; the result is serial
    assert compare_restricted(TP, (3, 0), [1.5, 3.0], 4, 7, threads=2) == \
        compare_restricted(TP, (3, 0), [1.5, 3.0], 4, 7)
    assert entropy_global_probe(TP, (3, 0), [-0.5], 3, 7, threads=2) == \
        entropy_global_probe(TP, (3, 0), [-0.5], 3, 7)
