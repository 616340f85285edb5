import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwpot.errors import DomainError, SolverError
from rwpot.lattice import BoxRegion
from rwpot.potential import DistributionSpec, PotentialField, sample_field
from rwpot import solver
from rwpot.rng import derive_seed
from rwpot.solver import (SiteSet, block_cost, exit_functional,
                          maximal_distance, return_probability,
                          transition_matrix, travel_weight,
                          visit_probabilities, weighted_functionals,
                          zero_field)

TP = DistributionSpec.two_point(0.2, 1.0, 0.5)
EXP = DistributionSpec.exponential(1.0)

TWO_SITES = np.array([[0, 0], [1, 0]])
THREE_SITES = np.array([[-1, 0], [0, 0], [1, 0]])


def test_hand_value_two_sites():
    res = travel_weight(zero_field(2, TWO_SITES), TWO_SITES, (0, 0), (1, 0))
    assert abs(res.e_at((0, 0)) - 0.25) < 1e-12
    assert abs(res.cost_at((0, 0)) - math.log(4)) < 1e-12


def test_hand_value_three_sites():
    res = travel_weight(zero_field(2, THREE_SITES), THREE_SITES, (0, 0), (1, 0))
    assert abs(res.e_at((0, 0)) - 4 / 15) < 1e-12


def test_source_equals_target():
    box = BoxRegion.centered(2, 2)
    res = travel_weight(sample_field(TP, box, 1), box, (1, 1), (1, 1))
    assert res.e_at((1, 1)) == 1.0
    assert res.cost_at((1, 1)) == 0.0


def test_e_values_in_unit_interval():
    box = BoxRegion.centered(4, 2)
    res = travel_weight(sample_field(EXP, box, 5), box, (0, 0), (3, 1))
    assert np.all(res.e_values >= 0) and np.all(res.e_values <= 1)
    assert res.residual <= 1e-9


def test_nested_region_monotonicity():
    # larger boxes only help: cost is non-increasing in the region
    boxes = [BoxRegion.centered(r, 2) for r in (3, 5, 7)]
    for seed in range(20):
        field = sample_field(TP, boxes[-1], seed)
        costs = [travel_weight(field, b, (0, 0), (2, 1)).cost_at((0, 0))
                 for b in boxes]
        assert costs[0] >= costs[1] - 1e-10
        assert costs[1] >= costs[2] - 1e-10


def test_monotone_in_potential():
    box = BoxRegion.centered(3, 2)
    for seed in range(20):
        field = sample_field(EXP, box, seed)
        base = travel_weight(field, box, (0, 0), (2, 0))
        bump = derive_seed(seed, 1) % 9  # deterministic raised site
        site = tuple(int(v) for v in box.sites()[bump])
        raised = field.with_value(site, field.value_at(site) + 0.7)
        more = travel_weight(raised, box, (0, 0), (2, 0))
        assert np.all(more.e_values <= base.e_values + 1e-12)


def test_one_solve_many_targets_consistency():
    box = BoxRegion.centered(4, 2)
    field = sample_field(TP, box, 11)
    res = travel_weight(field, box, (0, 0), (2, 2))
    sites = box.sites()
    picks = sites[np.linspace(0, len(sites) - 1, 10).astype(int)]
    for z in picks:
        z = tuple(int(v) for v in z)
        single = travel_weight(field, box, z, (2, 2))
        assert abs(res.e_at(z) - single.e_at(z)) < 1e-12


def test_taboo_reduces_weight():
    box = BoxRegion.centered(3, 2)
    field = sample_field(TP, box, 4)
    free = travel_weight(field, box, (0, 0), (2, 0))
    blocked = travel_weight(field, box, (0, 0), (2, 0), taboo=[(1, 0)])
    assert blocked.e_at((0, 0)) < free.e_at((0, 0))
    with pytest.raises(DomainError):
        travel_weight(field, box, (0, 0), (2, 0), taboo=[(2, 0)])


def test_underflow_rescale_recovers_cost_in_log_space():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hot = DistributionSpec.constant(60.0)
    strip = BoxRegion((-1, -1), (26, 2))
    field = sample_field(hot, strip, 0)
    res = travel_weight(field, strip, (0, 0), (25, 0))
    assert res.e_at((0, 0)) == 0.0  # double precision cannot hold it
    cost = res.cost_at((0, 0))
    # dominated by the straight path: 25 steps paying 60 + log(4) each
    assert abs(cost - 25 * (60 + math.log(4))) < 1.0


def test_block_cost_subadditive_and_monotone_in_width():
    xi = np.array([1, 0])
    big = BoxRegion((-8, -8), (40, 9))
    field = sample_field(TP, big, 3)
    whole = block_cost(field, xi, 0, 6, 5)
    first = block_cost(field, xi, 0, 3, 5)
    second = block_cost(field, xi, 3, 6, 5)
    assert whole <= first + second + 1e-9
    wider = block_cost(field, xi, 0, 6, 8)
    assert wider <= whole + 1e-10


def test_exit_functional_zero_potential_is_one():
    box = BoxRegion.centered(4, 2)
    assert abs(exit_functional(zero_field(2, box), box, (0, 0)) - 1.0) < 1e-12


def test_exit_functional_monotone_in_potential():
    box = BoxRegion.centered(3, 2)
    field = sample_field(EXP, box, 6)
    v1 = exit_functional(field, box, (0, 0))
    raised = field.with_value((1, 0), field.value_at((1, 0)) + 1.0)
    v2 = exit_functional(raised, box, (0, 0))
    assert v2 <= v1 + 1e-14
    assert 0 < v1 <= 1


def test_crossing_shell_must_fit():
    box = BoxRegion.centered(3, 2)
    field = sample_field(TP, box, 0)
    with pytest.raises(DomainError):
        exit_functional(field, box, (0, 0), ("linf", 10.0))


def test_return_probability_tiny_region():
    tiny = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]])
    assert abs(return_probability(2, tiny) - 0.25) < 1e-12


def _dense_return_probability(d, box):
    # the same killed walk, solved densely: the reference for the CG path
    ss = SiteSet(box.sites())
    P, _ = transition_matrix(ss, np.zeros(len(ss)))
    P = P.toarray()
    i0 = ss.index_one((0,) * d)
    keep = np.arange(len(ss)) != i0
    A = np.eye(len(ss) - 1) - P[keep][:, keep]
    u = np.linalg.solve(A, P[keep, i0])
    return float(P[i0, keep] @ u)


def test_return_probability_monotone_in_region():
    boxes = [BoxRegion.centered(r, 3) for r in (2, 4, 8)]
    values = [return_probability(3, box) for box in boxes]
    assert values[0] < values[1] < values[2] < 1
    for box, value in zip(boxes, values):
        assert abs(value - _dense_return_probability(3, box)) < 1e-12


def test_weighted_functionals_trivial_region():
    sites = np.array([[0, 0], [1, 0]])
    wf = weighted_functionals(zero_field(2, sites), sites, (1, 0))
    assert wf.q_at((0, 0)) == 1.0
    assert wf.q_at((1, 0)) == 0.0
    assert abs(wf.expected_range - 1.0) < 1e-12


def test_weighted_functionals_range_bound_and_targeted_match():
    box = BoxRegion.centered(5, 2)
    field = sample_field(EXP, box, 8)
    wf = weighted_functionals(field, box, (3, 0))
    assert wf.expected_range >= 3 - 1e-8
    targeted = visit_probabilities(field, box, (3, 0), [(0, 0), (1, 0), (2, 2)])
    for y, q in targeted.items():
        assert abs(q - wf.q_at(y)) < 1e-12
        assert 0 <= q <= 1


def test_maximal_distance_degenerate_and_bounded():
    box = BoxRegion.centered(6, 2)
    field = sample_field(TP, box, 9)
    assert maximal_distance(field, box, (3, 0), 0.3) == 0.0  # ball is just x
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        const = DistributionSpec.constant(0.8)
    cf = sample_field(const, box, 0)
    val = maximal_distance(cf, box, (3, 0), 1.0)
    assert val >= 0
    # crude path bound: within the radius-3 ball costs stay below
    # (c + log 2d) * (radius + slack from boundary effects)
    assert val <= (0.8 + math.log(4)) * 4


def test_maximal_distance_ball_must_fit():
    box = BoxRegion.centered(3, 2)
    field = sample_field(TP, box, 1)
    with pytest.raises(DomainError):
        maximal_distance(field, box, (3, 0), 1.0)



def test_residual_guard_rejects_a_bad_solve(monkeypatch):
    real_splu = solver.splu

    class Perturbed:
        def __init__(self, A):
            self.lu = real_splu(A)

        def solve(self, b, trans="N"):
            return self.lu.solve(b, trans=trans) + 1e-6

    monkeypatch.setattr(solver, "splu", Perturbed)
    box = BoxRegion.centered(3, 2)
    field = sample_field(TP, box, 1)
    with pytest.raises(SolverError):
        travel_weight(field, box, (0, 0), (2, 0))
    with pytest.raises(SolverError):
        weighted_functionals(field, box, (2, 0))


def test_unit_clip_bounds_rounding_and_rejects_real_violations():
    clipped = solver._clip_unit(np.array([-1e-13, 0.5, 1.0 + 1e-13]))
    assert clipped.tolist() == [0.0, 0.5, 1.0]
    assert float(solver._clip_unit(np.float64(1.0 + 1e-13))) == 1.0
    for bad in (-1e-3, 1.0 + 1e-3, math.nan):
        with pytest.raises(SolverError, match="outside"):
            solver._clip_unit(np.array([0.5, bad]))
    with pytest.raises(SolverError):
        solver._clip_unit(np.float64(-1e-3))


def test_l1_ball_count_matches_enumeration():
    import itertools

    for d in (1, 2, 3):
        pts = np.asarray(list(itertools.product(range(-6, 7), repeat=d)))
        l1 = np.abs(pts).sum(axis=1)
        for radius in (0, 0.5, 1, 2.5, 3, 4.2, 6):
            assert solver._l1_ball_count(d, radius) == int(np.sum(l1 < radius))


def test_residual_check_rejects_nan():
    box = BoxRegion.centered(2, 2)
    kw = solver._KilledWalk(zero_field(2, box), box)
    b = kw.exit_vector()
    with pytest.raises(SolverError):
        kw.check(np.full(len(kw.ss), np.nan), b)
    assert kw.residual == 0.0


def _assert_diagonal_matches_dense_inverse(kw):
    dense = np.diag(np.linalg.inv(kw.A.toarray()))
    assert np.abs(kw.diagonal() / dense - 1).max() < 1e-12


@pytest.mark.parametrize("r, kill", [(6, (2, 0)), (4, (1, 0, 0))])
def test_green_diagonal_matches_dense_inverse_on_boxes(r, kill):
    box = BoxRegion.centered(r, len(kill))
    _assert_diagonal_matches_dense_inverse(
        solver._KilledWalk(sample_field(TP, box, 3), box, kill=kill))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5),
       st.lists(st.floats(0.0, 40.0), min_size=36, max_size=36),
       st.integers(0, 35))
def test_green_diagonal_matches_dense_inverse_on_any_field(w, h, values, kill):
    box = BoxRegion((0, 0), (w + 1, h + 1))
    vals = np.asarray(values[:box.site_count]).reshape(box.shape)
    field = PotentialField(box, vals, EXP, 0)
    kill = tuple(int(c) for c in box.sites()[kill % box.site_count])
    _assert_diagonal_matches_dense_inverse(solver._KilledWalk(field, box, kill=kill))


def test_green_diagonal_on_shuffled_explicit_sites_and_huge_potential():
    box = BoxRegion.centered(7, 2)
    sites = box.sites()
    disk = sites[(sites ** 2).sum(axis=1) <= 36]
    disk = disk[np.random.default_rng(4).permutation(len(disk))]
    vals = sample_field(TP, box, 5).values.copy()
    vals[7, 7:10] = 750.0  # e^omega overflows; the symmetrized operator does not
    field = PotentialField(box, vals, TP, 5)
    kw = solver._KilledWalk(field, disk, kill=(3, 0))
    assert not np.all(np.diff(kw.ss.sites[:, 0]) >= 0)  # not in row-major order
    _assert_diagonal_matches_dense_inverse(kw)


def test_green_diagonal_above_5000_sites_matches_column_solves():
    box = BoxRegion.centered(36, 2)
    kw = solver._KilledWalk(sample_field(TP, box, 6), box, kill=(10, 0))
    assert len(kw.ss) > 5000
    ids = np.random.default_rng(6).choice(len(kw.ss), 12, replace=False)
    columns = np.array([kw.diagonal([i])[0] for i in ids])
    assert np.abs(kw.diagonal(ids) / columns - 1).max() < 1e-12


def test_green_diagonal_refuses_a_gauge():
    box = BoxRegion.centered(2, 2)
    kw = solver._KilledWalk(zero_field(2, box), box, gauge=np.zeros(box.site_count))
    with pytest.raises(SolverError):
        kw.diagonal()


def test_weighted_functionals_cross_checks_the_green_diagonal(monkeypatch):
    real = solver._takahashi_diagonal
    monkeypatch.setattr(solver, "_takahashi_diagonal", lambda f: real(f) * (1 + 1e-6))
    box = BoxRegion.centered(3, 2)
    with pytest.raises(SolverError, match="G\\(0, 0\\)"):
        weighted_functionals(sample_field(TP, box, 1), box, (2, 0))
