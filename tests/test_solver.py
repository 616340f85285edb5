import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwpot.errors import DegenerateWeightError, DomainError, SolverError
from rwpot.lattice import BoxRegion, block_sites
from rwpot.potential import DistributionSpec, PotentialField, sample_field
from rwpot import solver
from rwpot.concentration import box_return_probability, rank_one_verify
from rwpot.oracle import transition_matrix
from rwpot.rng import derive_seed
from rwpot.solver import (SiteSet, block_cost, exit_functional,
                          maximal_distance, return_probability,
                          travel_weight, visit_probabilities,
                          weighted_functionals, zero_field)

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
    # the same killed walk, solved densely: the reference for the band path
    ss = SiteSet(box.sites())
    P = transition_matrix(ss, np.zeros(len(ss))).toarray()
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


def test_box_return_probability_is_exact_and_below_watson():
    for r in (2, 4, 8):
        box = BoxRegion.centered(r, 3)
        value = box_return_probability(3, r)
        assert abs(value - return_probability(3, box)) < 1e-12
        assert abs(value - _dense_return_probability(3, box)) < 1e-12
    values = [box_return_probability(3, r) for r in (2, 4, 8, 16, 32)]
    assert all(a < b for a, b in zip(values, values[1:]))
    # Watson (1939): the d=3 walk returns with probability 1 - 1/u(3)
    u3 = (math.sqrt(6) / (32 * math.pi ** 3) * math.gamma(1 / 24)
          * math.gamma(5 / 24) * math.gamma(7 / 24) * math.gamma(11 / 24))
    assert abs((1 - 1 / u3) - 0.34053732955) < 1e-10
    assert values[-1] < 1 - 1 / u3


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
    cost, targeted = visit_probabilities(field, box, (3, 0), [(0, 0), (1, 0), (2, 2)])
    assert cost == travel_weight(field, box, (0, 0), (3, 0)).cost_at((0, 0))
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
    real = solver.cho_solve_banded
    monkeypatch.setattr(solver, "cho_solve_banded",
                        lambda factor, b: real(factor, b) + 1e-6)
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


def _dense_operator(kw):
    """I - P on the operator's active sites, assembled by the oracle's step
    matrix, and the rows of those sites (ascending)."""
    ids = np.flatnonzero(kw.active)
    sites = np.empty_like(kw.ss.sites)
    sites[kw.keys] = kw.ss.sites
    P = transition_matrix(SiteSet(sites[ids]), kw.omega[ids]).toarray()
    return np.eye(len(ids)) - P, ids


def _assert_diagonal_matches_dense_inverse(kw):
    A, ids = _dense_operator(kw)
    diag = kw.diagonal()
    assert np.abs(diag[ids] / np.diag(np.linalg.inv(A)) - 1).max() < 1e-12
    assert np.all(np.delete(diag, ids) == 1.0)  # Dirichlet rows


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
    assert not np.all(np.diff(disk[:, 0]) >= 0)  # not in row-major order
    kw = solver._KilledWalk(field, disk, kill=(3, 0))
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


def _huge_potential_field():
    """A d=2 field whose potential spans its whole domain: e^{-omega}
    underflows at 750 and 1e4, and e^{omega} overflows at 1e300."""
    box = BoxRegion.centered(6, 2)
    vals = sample_field(TP, box, 2).values.copy()
    vals[7, 6:9] = 750.0
    vals[4, 8] = vals[9, 4] = 1e4
    vals[5, 5] = vals[8, 9] = 1e300
    return box, PotentialField(box, vals, TP, 2)


def _assert_close(a, b, rel):
    a, b = np.asarray(a), np.asarray(b)
    assert np.all(np.abs(a - b) <= rel * np.abs(b)), np.abs(a - b).max()


def test_band_solves_match_dense_solve_across_the_potential_domain():
    box, field = _huge_potential_field()
    x = (3, 1)
    kw = solver._KilledWalk(field, box, kill=x)
    A, ids = _dense_operator(kw)
    e = np.linalg.solve(A, kw.kill_vector()[ids])
    res = travel_weight(field, box, (0, 0), x)
    _assert_close(np.delete(res.e_values, res.siteset.index_one(x)), e, 1e-12)
    G = np.linalg.inv(A)
    i0 = np.searchsorted(ids, kw._idx((0, 0)))
    _assert_close(kw.row((0, 0))[ids], G[i0], 1e-12)
    _assert_close(kw.column((0, 0))[ids], G[:, i0], 1e-12)
    _assert_close(kw.diagonal()[ids], np.diag(G), 1e-12)
    wf = weighted_functionals(field, box, x)
    q = G[i0] / np.diag(G) * e / e[i0]
    _assert_close(wf.q_visit, q, 1e-12)


def test_gauged_band_lu_matches_cholesky_solve():
    box = BoxRegion.centered(5, 2)
    field = sample_field(EXP, box, 7)
    x = (4, 0)
    plain = solver._KilledWalk(field, box, kill=x)
    e = plain.solve(plain.kill_vector())
    c = 0.8
    gauge = c * np.abs(plain.ss.sites - np.asarray(x)).sum(axis=1)
    gauged = solver._KilledWalk(field, box, kill=x, gauge=gauge)
    _assert_close(gauged.solve(gauged.kill_vector()) * np.exp(-gauge), e, 1e-10)
    with pytest.raises(SolverError):
        gauged.solve(gauged.kill_vector(), trans="T")


def test_weighted_functionals_and_maximal_distance_factor_once(monkeypatch):
    calls = []
    real = solver.cholesky_banded
    monkeypatch.setattr(solver, "cholesky_banded",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    box = BoxRegion.centered(4, 2)
    for n, seed in enumerate((1, 2, 3), start=1):
        weighted_functionals(sample_field(TP, box, seed), box, (2, 1))
        assert len(calls) == n
    maximal_distance(sample_field(TP, box, 4), box, (2, 1), 1.0)
    assert len(calls) == 4
    field = sample_field(TP, box, 5)
    travel_weight(field, box, (0, 0), (2, 1))
    assert len(calls) == 5
    exit_functional(field, box, (0, 0))
    assert len(calls) == 6
    # per trial: the unperturbed operator once, for both a(0, x) and q(y),
    # and the perturbed one once
    records = rank_one_verify(TP, (2, 0, 0), 3, 1)
    assert len(calls) == 6 + 2 * len(records) == 12


def test_site_set_rejects_duplicate_sites():
    sites = np.array([[0, 0], [1, 0], [0, 1], [1, 0]])
    assert len(SiteSet(sites[:3])) == 3
    with pytest.raises(DomainError, match="duplicate"):
        SiteSet(sites)
    with pytest.raises(DomainError, match="duplicate"):
        travel_weight(zero_field(2, sites), sites, (0, 0), (0, 1))


def _dense_step_matrix(field, sites):
    """P between the given sites, in their order, from the oracle's step
    matrix: a reference that never touches the grid band."""
    return transition_matrix(SiteSet(sites), field.values_at(sites)).toarray()


def _dense_weights(P, t):
    """e(z, t) for z != t, and G = (I - P)^{-1}, on the sites but t."""
    keep = np.arange(len(P)) != t
    G = np.linalg.inv(np.eye(len(P) - 1) - P[keep][:, keep])
    return G @ P[keep, t], G, keep


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.data())
def test_grid_band_matches_dense_operator_on_any_site_set(w, h, data):
    i, j = data.draw(st.integers(0, w - 1)), data.draw(st.integers(0, h - 1))
    box = BoxRegion((-i, -j), (w - i, h - j))
    vals = data.draw(st.lists(st.floats(0.0, 20.0), min_size=w * h, max_size=w * h))
    field = PotentialField(box, np.reshape(vals, box.shape), EXP, 0)
    grid = box.sites()
    origin = int(np.flatnonzero(~grid.any(axis=1))[0])
    x = data.draw(st.sampled_from([k for k in range(len(grid)) if k != origin]))
    # explicit sites with holes, shuffled, always holding 0 and x
    holes = data.draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
    kept = [k for k in range(len(grid)) if not holes[k] or k in (origin, x)]
    kept = data.draw(st.permutations(kept))
    region = grid[kept]
    taboo_ids = data.draw(st.sets(st.sampled_from(kept), max_size=3)) - {origin, x}
    taboo = [tuple(int(c) for c in grid[k]) for k in taboo_ids]
    x = tuple(int(c) for c in grid[x])

    # travel_weight: e_V(., x) on the region less the taboo sites, in its order
    active = region[[tuple(z) not in taboo for z in region.tolist()]]
    res = travel_weight(field, region, (0, 0), x, taboo=taboo)
    assert np.array_equal(res.siteset.sites, active)  # no Dirichlet row
    P = _dense_step_matrix(field, active)
    t = res.siteset.index_one(x)
    e, G, keep = _dense_weights(P, t)
    _assert_close(res.e_values[keep], e, 1e-12)
    assert res.e_values[t] == 1.0

    # exit_functional from the origin on the untabooed active sites
    i0 = SiteSet(active).index_one((0, 0))
    exits = np.exp(-field.values_at(active)) * (4 - (P > 0).sum(axis=1)) / 4.0
    v = np.linalg.solve(np.eye(len(P)) - P, exits)
    _assert_close(exit_functional(field, active, (0, 0)), v[i0], 1e-12)

    # the Green diagonal, at the rows of the active sites but x
    kw = solver._KilledWalk(field, active, kill=x)
    _assert_close(kw.diagonal()[kw.keys[keep]], np.diag(G), 1e-12)
    for b in (kw.kill_vector(), kw.exit_vector()):
        assert not b[~kw.active].any()  # Dirichlet rows: zero right-hand side

    # weighted functionals: q and E_Q[#A] on the active sites but x
    k0 = SiteSet(active[keep]).index_one((0, 0))
    if e[k0] == 0.0:  # the holes cut x off from the origin
        with pytest.raises(DegenerateWeightError):
            weighted_functionals(field, active, x)
        return
    wf = weighted_functionals(field, active, x)
    assert np.array_equal(wf.siteset.sites, active[keep])
    q = G[k0] / np.diag(G) * e / e[k0]
    _assert_close(wf.q_visit, q, 1e-12)
    _assert_close(wf.expected_range, q.sum(), 1e-12)


def test_thin_site_sets_band_only_their_own_sites():
    # a staircase corridor from 0 to (L, L): its bounding box has stride
    # L + 1, while neighbors in its own row-major order are at most 2 apart
    L = 30
    steps = np.repeat(np.arange(L + 1), 2)
    stair = np.column_stack([steps[1:], steps[:-1]])
    field = sample_field(TP, solver.bounding_box(stair), 1)
    kw = solver._KilledWalk(field, stair, kill=(L, L))
    assert kw.band.shape == (2 * kw.bw + 1, len(stair)) and kw.bw <= 2
    e, _, keep = _dense_weights(_dense_step_matrix(field, stair), len(stair) - 1)
    res = travel_weight(field, stair, (0, 0), (L, L))
    _assert_close(res.e_values[keep], e, 1e-12)
    block = block_sites(np.array([1, 1, 1]), 0, 6, 3)
    kw = solver._KilledWalk(zero_field(3, block), block)
    assert kw.band.shape[1] == len(block) < np.prod(kw.ss.shape) / 5
    assert kw.bw < np.prod(kw.ss.shape[1:]) / 3


def test_box_layouts_are_shared_read_only_and_thread_safe():
    box = BoxRegion.centered(4, 2)
    field = sample_field(TP, box, 1)
    res = travel_weight(field, box, (0, 0), (2, 1))
    assert travel_weight(field, BoxRegion.centered(4, 2), (0, 0), (3, 0)).siteset is res.siteset
    with pytest.raises(ValueError):
        res.siteset.sites[0, 0] = 7
    # callers' threads racing to build the first layout of a box still
    # solve alike
    seeds = list(range(16))

    def cost(seed):
        fld = sample_field(TP, box, seed)
        return travel_weight(fld, box, (0, 0), (2, 1)).cost_at((0, 0))

    want = [cost(s) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            solver._box_site_set.cache_clear()
            with ThreadPoolExecutor(max_workers=8) as pool:
                assert list(pool.map(cost, seeds)) == want
    finally:
        sys.setswitchinterval(interval)
