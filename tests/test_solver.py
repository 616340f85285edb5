import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwpot.errors import DegenerateWeightError, DomainError, SolverError
from rwpot.lattice import BoxRegion
from rwpot.potential import DistributionSpec, PotentialField, sample_field
from rwpot import solver
from rwpot.coarse import chi_region
from rwpot import cli
from rwpot.concentration import (box_return_probability, entropy_global_probe,
                                 pinned_return_probability, prop_box, rank_one_verify)
from rwpot.harness import run
from rwpot.rng import derive_seed
from rwpot.solver import (SiteSet, exit_functional, exit_functionals, raise_site,
                          travel_costs, travel_weight, weighted_functionals)
from util_oracles import (_l1_ball_count, block_cost, block_sites, f2py_selected_inverse,
                          maximal_distance, reference_exit_functionals, reference_green_diagonal,
                          return_probability, transition_matrix, two_solve_delta,
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
    # a taboo site off the region changes nothing; one of another
    # dimension is refused, not ignored
    far = travel_weight(field, box, (0, 0), (2, 0), taboo=[(40, -9)])
    assert np.array_equal(far.e_values, free.e_values)
    with pytest.raises(DomainError, match="dimension"):
        travel_weight(field, box, (0, 0), (2, 0), taboo=[(1, 0, 0)])


def _hot_strip():
    """omega = 60 on a strip, target (25, 0): e_V(0, x) underflows."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hot = DistributionSpec.constant(60.0)
    strip = BoxRegion((-1, -1), (26, 2))
    return strip, sample_field(hot, strip, 0)


def test_underflow_rescale_recovers_cost_in_log_space(monkeypatch):
    strip, field = _hot_strip()
    res = travel_weight(field, strip, (0, 0), (25, 0))
    assert res.e_at((0, 0)) == 0.0  # double precision cannot hold it
    cost = res.cost_at((0, 0))
    # dominated by the straight path: 25 steps paying 60 + log(4) each
    assert abs(cost - 25 * (60 + math.log(4))) < 1.0
    # the weighted measure needs the plain weight, log space or not
    with pytest.raises(DegenerateWeightError):
        weighted_functionals(field, strip, (25, 0))
    # the log-space solve, run on the first read of a log value, is
    # residual-checked like every other
    real = solver.solve_banded
    monkeypatch.setattr(solver, "solve_banded", lambda *a, **k: real(*a, **k) * (1 + 1e-6))
    res = travel_weight(field, strip, (0, 0), (25, 0))
    with pytest.raises(SolverError):
        res.cost_at((0, 0))


def test_weighted_measure_skips_the_log_space_solve_it_cannot_use(monkeypatch):
    strip, field = _hot_strip()
    calls = []
    real = solver._KilledWalk.log_kill_weight
    monkeypatch.setattr(solver._KilledWalk, "log_kill_weight",
                        lambda kw, g: calls.append(g) or real(kw, g))
    x = (25, 0)
    with pytest.raises(DegenerateWeightError):
        weighted_functionals(field, strip, x)
    with pytest.raises(DegenerateWeightError):
        raise_site(field, strip, x, (3, 0), 70.0)
    assert calls == []
    # a reader of the cost runs it, once
    res = travel_weight(field, strip, (0, 0), x)
    assert calls == []
    res.cost_at((0, 0))
    res.cost_at((1, 0))
    assert len(calls) == 1


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


def _count_factorizations(monkeypatch):
    """A list that gains one entry per dpbtrf call of the solver: the
    number of rows it factors."""
    calls = []
    real = solver.dpbtrf
    monkeypatch.setattr(solver, "dpbtrf",
                        lambda *a, **k: calls.append(a[0].shape[1]) or real(*a, **k))
    return calls


def test_travel_weight_factors_one_colour_of_a_box_once(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    box = BoxRegion.centered(6, 2)
    field = sample_field(TP, box, 1)
    res = travel_weight(field, box, (0, 0), (3, 2))
    res.cost_at((0, 0))
    res.walk.solve(res.walk.exit_vector())
    # the 85 sites of even coordinate sum of the 169, factored once
    even = int((box.sites().sum(axis=1) % 2 == 0).sum())
    assert calls == [even] == [85]


@pytest.mark.parametrize("d, l", [(2, 8), (3, 4)])
def test_exit_functionals_match_one_operator_per_shell(d, l):
    # chi's starts: every crossing shell a block of one band
    region = chi_region(l, d)
    field = sample_field(EXP, region, 40 + d)
    starts = [tuple(z) for z in BoxRegion.centered(l // 2, d).sites()]
    crossing = ("linf", 3 * l / 4)
    got = exit_functionals(field, region, starts, crossing)
    ref = reference_exit_functionals(field, region, starts, crossing)
    assert np.all(np.abs(got - ref) <= 1e-15 * ref)
    assert np.argmax(got) == np.argmax(ref)
    one = exit_functional(field, region, starts[7], crossing)
    assert abs(one - got[7]) <= 1e-15 * got[7]


def test_exit_functionals_split_into_chunks_give_the_same_values(monkeypatch):
    region = chi_region(8, 2)
    field = sample_field(TP, region, 3)
    starts = [tuple(z) for z in BoxRegion.centered(4, 2).sites()]
    whole = exit_functionals(field, region, starts, ("linf", 6.0))
    calls = _count_factorizations(monkeypatch)
    # a shell is an 11 x 11 box with bw = 11: 23 * 121 band entries
    monkeypatch.setattr(solver, "STACK_BAND_ENTRIES", 7 * 23 * 121 + 5)
    chunked = exit_functionals(field, region, starts, ("linf", 6.0))
    assert len(calls) == 12  # 81 shells, 7 to a band
    assert np.all(np.abs(chunked - whole) <= 1e-15 * whole)


def _origin_costs(fields, box, x):
    """travel_costs' reference: one travel_weight per field."""
    origin = (0,) * len(x)
    return np.array([travel_weight(f, box, origin, x).cost_at(origin) for f in fields])


@pytest.mark.parametrize("x, per", [((2, 0), 170), ((4, 0), 25), ((8, 0), 3), ((1, 1, 0), 2)])
def test_stacked_costs_match_one_solve_per_field(monkeypatch, x, per):
    # d=2 boxes of 81, 289 and 1089 sites, and the 729-site cube
    box = prop_box(x)
    fields = [sample_field(EXP, box, derive_seed(31, i)) for i in range(7)]
    calls = _count_factorizations(monkeypatch)
    got = travel_costs(fields, box, (0,) * len(x), x)
    assert solver._per_stack(box.shape) == per
    assert len(calls) == -(-len(fields) // per)
    ref = _origin_costs(fields, box, x)
    assert np.all(np.abs(got - ref) <= 1e-12 * ref)


def test_stacked_cost_of_an_underflowing_block_comes_from_its_own_solve(monkeypatch):
    box = prop_box((4, 0))  # 289 sites
    fields = [sample_field(TP, box, derive_seed(32, i)) for i in range(6)]
    hot = PotentialField(box, np.full(box.shape, 300.0), TP, 0)
    alone = []
    real = solver.travel_weight
    monkeypatch.setattr(solver, "travel_weight", lambda f, *a: alone.append(f) or real(f, *a))
    got = travel_costs(fields[:2] + [hot] + fields[2:], box, (0, 0), (4, 0))
    # e_V(0, x) underflows in the stack: the log-space gauge of the hot
    # field alone gives its cost, and the other blocks keep theirs
    assert alone == [hot]
    assert got[2] == 1205.5451774444796
    assert np.array_equal(np.delete(got, 2), travel_costs(fields, box, (0, 0), (4, 0)))


def test_stacked_costs_reject_a_corrupted_stack_solve(monkeypatch):
    box = prop_box((4, 0))
    fields = [sample_field(TP, box, derive_seed(33, i)) for i in range(30)]
    real = solver.dpbtrs
    solves = []

    def corrupted(*args, **kwargs):
        v, info = real(*args, **kwargs)
        solves.append(len(v))
        if len(solves) == 2:  # the second stack only
            v[len(v) // 2] *= 1.0 + 1e-6
        return v, info

    monkeypatch.setattr(solver, "dpbtrs", corrupted)
    with pytest.raises(SolverError, match="residual"):
        travel_costs(fields, box, (0, 0), (4, 0))
    assert len(solves) == 2


def test_stacked_costs_split_into_any_stacks_give_the_same_values(monkeypatch):
    box = prop_box((4, 0))  # 17 x 17, bw 17: 35 * 289 band entries a box
    fields = [sample_field(EXP, box, derive_seed(34, i)) for i in range(23)]
    whole = travel_costs(fields, box, (0, 0), (4, 0))
    for bound, stacks in ((1, 23), (5 * 35 * 289 + 7, 5), (2 ** 30, 1)):
        monkeypatch.setattr(solver, "STACK_BAND_ENTRIES", bound)
        calls = _count_factorizations(monkeypatch)
        assert np.array_equal(travel_costs(fields, box, (0, 0), (4, 0)), whole)
        assert len(calls) == stacks


def test_stacked_costs_of_a_target_at_the_source_are_zero():
    box = prop_box((2, 0))
    fields = [sample_field(TP, box, s) for s in (1, 2)]
    assert np.array_equal(travel_costs(fields, box, (1, 0), (1, 0)), [0.0, 0.0])
    with pytest.raises(DomainError, match="target"):
        travel_costs(fields, box, (0, 0), (9, 0))


def test_default_tails_run_solves_its_fields_in_stacks(tmp_path, monkeypatch):
    # 500 fields of the 289-site box: one factorization per stack of
    # _per_stack fields, not one per field
    calls = _count_factorizations(monkeypatch)
    assert run(cli.default_config("tails"), out_dir=tmp_path).all_passed()
    per = solver._per_stack(prop_box((4, 0)).shape)
    assert 1 <= len(calls) <= -(-500 // per) + 1


def test_exit_functionals_read_every_start_from_one_exit_solve(monkeypatch):
    box = BoxRegion.centered(5, 2)
    field = sample_field(EXP, box, 8)
    starts = box.sites()[::3]
    calls = _count_factorizations(monkeypatch)
    got = exit_functionals(field, box, starts)
    assert len(calls) == 1
    ref = reference_exit_functionals(field, box, starts, ("exit",))
    assert np.all(np.abs(got - ref) <= 1e-15 * ref)


def test_exit_functionals_reject_a_shell_leaving_the_region():
    region = chi_region(8, 2)
    field = sample_field(TP, region, 0)
    with pytest.raises(DomainError, match="crossing shell exits"):
        exit_functionals(field, region, [(0, 0), (6, 0)], ("linf", 6.0))
    with pytest.raises(DomainError, match="unknown crossing"):
        exit_functionals(field, region, [(0, 0)], ("l1", 6.0))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2 ** 32), st.data())
def test_raise_site_closed_form_matches_two_solves(d, seed, data):
    x = (2, 1, 0)[:d]
    box = BoxRegion.centered(3, d)
    field = sample_field(TP, box, seed)
    sites = [tuple(int(v) for v in z) for z in box.sites() if any(z)]
    y = data.draw(st.sampled_from(sites))
    lift = data.draw(st.sampled_from([0.0, 1e-12, 800.0, 1e300])
                     | st.floats(0.0, 60.0))
    omega = field.value_at(y)
    sigma = omega + lift
    cost, q, delta = raise_site(field, box, x, y, sigma)
    ref, q_ref = two_solve_delta(field, box, x, y, sigma)
    assert abs(delta - ref) <= 1e-10
    # q_ref comes from the full Green diagonal, q from one column solve
    assert abs(q - q_ref) <= 1e-12
    assert cost == travel_weight(field, box, (0,) * d, x).cost_at((0,) * d)
    # the paper's two bounds on the cost change, checked on the two solves
    bound_q = math.inf if q_ref >= 1.0 else -math.log1p(-q_ref)
    m = min(math.exp(-omega), pinned_return_probability(d))
    bound_site = sigma - omega + 1.0 / (1.0 - m)
    assert -1e-12 <= ref <= min(bound_q, bound_site) + 1e-12


def _raise_site_by_row(field, region, x, y, sigma):
    """raise_site with G(0, y) read from a row solve, G(0, .), and G(y, y)
    from diagonal([y]): three solves on one factorization."""
    origin = (0,) * len(x)
    res = travel_weight(field, region, origin, x)
    kw, u, i0, iy = res.walk, res.e_values, res.source_index, res._index(y)
    g = kw.row(origin)[kw.keys]
    G = float(kw.diagonal([kw.keys[iy]])[0])
    q = 1.0 if iy == i0 else min(1.0, g[iy] / G * u[iy] / u[i0])
    em = -math.expm1(-(sigma - field.value_at(y)))
    lost = q * G * em / (1.0 + (G - 1.0) * em)
    return res.cost_at(origin), q, math.inf if lost >= 1.0 else -math.log1p(-lost)


@pytest.mark.parametrize("d, seed", [(2, 1), (2, 7), (3, 2)])
def test_raise_site_is_one_factorization_and_two_solves(monkeypatch, d, seed):
    x = (2, 1, 0)[:d]
    box = BoxRegion.centered(3, d)
    field = sample_field(TP, box, seed)
    for y in [(0,) * d, (1,) + (0,) * (d - 1), (2, 2, 1)[:d], (-3,) * d]:
        for lift in (0.0, 0.7, 40.0):
            sigma = field.value_at(y) + lift
            ref = _raise_site_by_row(field, box, x, y, sigma)
            factors, solves = _count_factorizations(monkeypatch), []
            real = solver.dpbtrs
            monkeypatch.setattr(solver, "dpbtrs",
                                lambda *a, **k: solves.append(1) or real(*a, **k))
            got = raise_site(field, box, x, y, sigma)
            monkeypatch.undo()
            assert (len(factors), len(solves)) == (1, 2)
            assert got[0] == ref[0]
            assert all(a == b or abs(a - b) <= 1e-12 for a, b in zip(got[1:], ref[1:]))


def test_raise_site_only_raises():
    box = BoxRegion.centered(3, 2)
    field = sample_field(TP, box, 1)
    with pytest.raises(DomainError, match="below"):
        raise_site(field, box, (2, 1), (1, 1), field.value_at((1, 1)) - 0.1)


def test_return_probability_tiny_region():
    tiny = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]])
    assert abs(return_probability(2, tiny) - 0.25) < 1e-12


def _dense_return_probability(d, box):
    # the same killed walk, solved densely: the reference for the band path
    ss = SiteSet(box.sites())
    P = transition_matrix(ss, np.zeros(len(ss)))
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
    for y in [(0, 0), (1, 0), (2, 2)]:
        cost, q, _ = raise_site(field, box, (3, 0), y, field.value_at(y))
        assert cost == travel_weight(field, box, (0, 0), (3, 0)).cost_at((0, 0))
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
    real = solver.dpbtrs
    monkeypatch.setattr(solver, "dpbtrs",
                        lambda *a, **k: (real(*a, **k)[0] + 1e-6, 0))
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
            assert _l1_ball_count(d, radius) == int(np.sum(l1 < radius))


def test_residual_check_rejects_nan():
    box = BoxRegion.centered(2, 2)
    kw = solver._KilledWalk(zero_field(2, box), box)
    b = kw.exit_vector()
    with pytest.raises(SolverError):
        kw.check(np.full(len(kw.ss), np.nan), b)
    assert kw.residual == 0.0


def test_solve_skips_the_finite_check_and_rejects_a_nan_solution(monkeypatch):
    seen = []

    def nan_solve(cb, b, **kwargs):
        seen.append(kwargs)
        return np.full_like(b, np.nan), 0

    # the raw LAPACK call has no finite check to skip: NaN reaches the residual
    monkeypatch.setattr(solver, "dpbtrs", nan_solve)
    box = BoxRegion.centered(3, 2)
    with pytest.raises(SolverError, match="residual nan"):
        travel_weight(sample_field(TP, box, 1), box, (0, 0), (2, 0))
    assert seen == [{"lower": 1, "overwrite_b": 1}]


def _dense_operator(kw):
    """I - P on the operator's active sites, assembled by the oracle's step
    matrix, and the rows of those sites (ascending)."""
    ids = np.flatnonzero(kw.active)
    sites = np.empty_like(kw.ss.sites)
    sites[kw.keys] = kw.ss.sites
    P = transition_matrix(SiteSet(sites[ids]), kw.omega[ids])
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


def test_weighted_functionals_cross_checks_the_green_diagonal(monkeypatch):
    real = solver._selected_inverse
    monkeypatch.setattr(solver, "_selected_inverse", lambda f: real(f) * (1 + 1e-6))
    box = BoxRegion.centered(3, 2)
    with pytest.raises(SolverError, match="G\\(0, 0\\)"):
        weighted_functionals(sample_field(TP, box, 1), box, (2, 0))
    # maximal_distance checks G(x, x) of its ball's diagonal the same way
    with pytest.raises(SolverError, match="G\\(x, x\\)"):
        maximal_distance(sample_field(TP, box, 1), box, (2, 0), 1.0)


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


def _assert_blocked_diagonal_matches_the_scalar_recurrence(kw, pad=0):
    """The blocked kernel against the one-index-at-a-time recurrence, on
    the operator's factor and on the same factor stored with pad extra zero
    band rows (a declared bandwidth up to beyond the order n), and bit for
    bit against the same blocked inversion on scipy.linalg's wrappers."""
    factor = kw._factor()
    ref = reference_green_diagonal(factor)
    assert np.all(ref > 0)
    wide = np.asfortranarray(np.vstack([factor, np.zeros((pad, factor.shape[1]))]))
    for f in (factor.copy(order="F"), wide):
        bits = f2py_selected_inverse(f)
        z = solver._selected_inverse(f)
        assert np.array_equal(z, bits)
        _assert_close(z[0], ref, 1e-13)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_blocked_green_diagonal_matches_the_scalar_recurrence(d, data):
    # random site sets of d=2 and d=3 boxes (holes make thin bands, and
    # sites with no neighbor bw = 0), random fields and an optional kill
    # row: n runs from one block of bw + 1 rows to several with a short
    # last, and the padded copy declares a bandwidth beyond n
    shape = tuple(data.draw(st.integers(1, 8 if d == 2 else 5)) for _ in range(d))
    box = BoxRegion((0,) * d, shape)
    grid = box.sites()
    keep = data.draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
    sites = grid[np.asarray(keep)] if any(keep) else grid[:1]
    vals = data.draw(st.lists(st.floats(0.0, 40.0), min_size=len(grid), max_size=len(grid)))
    field = PotentialField(box, np.reshape(vals, shape), EXP, 0)
    kill = data.draw(st.none() | st.sampled_from([tuple(int(c) for c in z) for z in sites]))
    kw = solver._KilledWalk(field, sites, kill=kill)
    _assert_blocked_diagonal_matches_the_scalar_recurrence(kw, data.draw(st.integers(0, 12)))


def test_blocked_green_diagonal_edge_cases_and_the_huge_field():
    # bw = 0: sites two apart along one axis, no two neighbors
    line = np.column_stack([np.arange(0, 14, 2), np.zeros(7, dtype=np.int64)])
    kw = solver._KilledWalk(zero_field(2, line), line)
    assert kw.colours[4] == 0  # S's bandwidth
    _assert_blocked_diagonal_matches_the_scalar_recurrence(kw, pad=9)
    assert np.allclose(kw.diagonal(), 1.0)
    # one block (n = bw + 1), and n not a multiple of bw + 1, with a kill
    # row, n and bw those of the factored matrix S
    for box, kill in ((BoxRegion((0, 0), (2, 1)), None),
                      (BoxRegion((0, 0), (7, 4)), (3, 2)),
                      (BoxRegion((0, 0, 0), (5, 3, 4)), (1, 1, 1))):
        kw = solver._KilledWalk(sample_field(TP, box, 2), box, kill=kill)
        m, n = kw._factor().shape
        assert n == m or n % m != 0
        _assert_blocked_diagonal_matches_the_scalar_recurrence(kw)
    # e^{-omega} underflows at 750 and 1e4, e^{omega} overflows at 1e300
    box, field = _huge_potential_field()
    for kill in (None, (3, 1)):
        _assert_blocked_diagonal_matches_the_scalar_recurrence(
            solver._KilledWalk(field, box, kill=kill))


def _dense_lower(factor):
    """L from its lower band storage factor[a, j] = L[j + a, j]."""
    m, n = factor.shape
    L = np.zeros((n, n))
    for a in range(min(m, n)):
        L[np.arange(a, n), np.arange(n - a)] = factor[a, :n - a]
    return L


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_selected_inverse_matches_the_dense_inverse_on_the_band(d, data):
    # random site sets with holes, random fields, an optional kill row, and
    # the factor also stored with extra zero band rows: every band entry of
    # (L L^T)^{-1}, across block boundaries too, and nothing outside
    shape = tuple(data.draw(st.integers(1, {1: 30, 2: 8, 3: 5}[d])) for _ in range(d))
    box = BoxRegion((0,) * d, shape)
    grid = box.sites()
    keep = data.draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
    sites = grid[np.asarray(keep)] if any(keep) else grid[:1]
    vals = data.draw(st.lists(st.floats(0.0, 40.0), min_size=len(grid), max_size=len(grid)))
    field = PotentialField(box, np.reshape(vals, shape), EXP, 0)
    kill = data.draw(st.none() | st.sampled_from([tuple(int(c) for c in z) for z in sites]))
    factor = solver._KilledWalk(field, sites, kill=kill)._factor()
    pad = data.draw(st.integers(0, 12))
    wide = np.asfortranarray(np.vstack([factor, np.zeros((pad, factor.shape[1]))]))
    for f in (factor, wide):
        m, n = f.shape
        dense = np.linalg.inv(_dense_lower(f) @ _dense_lower(f).T)
        z = solver._selected_inverse(f)
        assert z.shape == f.shape
        for a in range(m):
            _assert_close(z[a, :max(n - a, 0)], np.diagonal(dense, -a), 1e-12)
            assert not z[a, max(n - a, 0):].any()  # slots past the matrix


def test_green_diagonal_on_both_colours_across_the_potential_domain():
    box, field = _huge_potential_field()
    for kill in (None, (3, 1), (2, 1)):  # no kill row, an even and an odd one
        kw = solver._KilledWalk(field, box, kill=kill)
        ev, od = kw.colours[:2]
        assert len(ev) == 85 and len(od) == 84
        _assert_diagonal_matches_dense_inverse(kw)


_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads_around_import(rwpot_first=False, **env):
    """scipy's OpenBLAS thread count before and after `import rwpot`, in a
    fresh process with env and none of the thread variables otherwise, and
    the count rwpot reports; the test is skipped where scipy's BLAS is not
    its bundled OpenBLAS. scipy.linalg is imported first, or with
    rwpot_first after rwpot, so that both counts are read after rwpot's."""
    code = """if True:
        import ctypes, sys
        sys.path.insert(0, sys.argv[1])
        if sys.argv[2] == "rwpot first":
            import rwpot
        import scipy.linalg
        lib = ctypes.CDLL(scipy.linalg._fblas.__file__)
        if not hasattr(lib, "scipy_openblas_get_num_threads"):
            print("none")
            sys.exit()
        before = lib.scipy_openblas_get_num_threads()
        import rwpot
        print(before, lib.scipy_openblas_get_num_threads(), rwpot.solver.blas_threads())
        """
    clean = {k: v for k, v in os.environ.items() if k not in _THREAD_VARIABLES}
    out = subprocess.run([sys.executable, "-c", code, str(Path(solver.__file__).parents[1]),
                          "rwpot first" if rwpot_first else "scipy first"],
                         env=clean | env, capture_output=True, text=True, check=True,
                         timeout=120).stdout.split()
    if out == ["none"]:
        pytest.skip("scipy's BLAS is not its bundled OpenBLAS: no thread count to set")
    before, after, reported = map(int, out)
    assert reported == after
    return before, after


def test_import_sets_scipy_blas_to_one_thread_unless_the_environment_does():
    assert _blas_threads_around_import()[1] == 1
    # an explicit count is OpenBLAS's to keep (capped at the CPU count)
    before, after = _blas_threads_around_import(OPENBLAS_NUM_THREADS="2")
    assert after == before and before <= 2


def test_scipy_imported_after_rwpot_shares_its_openblas():
    # rwpot opens scipy's BLAS library without importing scipy; a later
    # scipy.linalg loads the same library, so it reads rwpot's one thread
    assert _blas_threads_around_import(rwpot_first=True) == (1, 1)


@pytest.mark.parametrize("box, shape", [(prop_box((12, 0), 2), (50, 1201)),
                                        (BoxRegion.centered(6, 3), (170, 1099))])
def test_green_diagonal_kernel_works_in_place_of_the_factor(box, shape):
    # 2401 sites at bw + 1 = 50 and 2197 at 170: Z takes the factor's
    # place, and what the kernel allocates besides is O(bw^2), not a band
    factor = solver._KilledWalk(sample_field(TP, box, 1), box)._factor()
    assert factor.shape == shape
    m = shape[0]
    tracemalloc.start()
    try:
        z = solver._selected_inverse(factor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * m * m * 8
    assert np.shares_memory(z, factor)


def test_green_diagonal_uses_up_the_factor_and_later_solves_refactor(monkeypatch):
    box = BoxRegion.centered(6, 2)
    field = sample_field(TP, box, 3)
    fresh = solver._KilledWalk(field, box, kill=(2, 0))
    b, i = fresh.kill_vector(), fresh._idx((-1, 3))
    want = [fresh.solve(b), fresh.row((0, 0)), fresh.diagonal([i])]
    calls = _count_factorizations(monkeypatch)
    kw = solver._KilledWalk(field, box, kill=(2, 0))
    diag = kw.diagonal()
    assert len(calls) == 1
    _assert_close(diag[i], want[2], 1e-13)
    # the full diagonal left no factor behind: the next solve factors again
    for got, ref in zip([kw.solve(b), kw.row((0, 0)), kw.diagonal([i])], want):
        _assert_close(got, ref, 1e-13)
    assert len(calls) == 2


def test_green_diagonal_of_no_ids_leaves_the_factor_alone(monkeypatch):
    inversions = []
    real = solver._selected_inverse
    monkeypatch.setattr(solver, "_selected_inverse",
                        lambda f: inversions.append(f.shape) or real(f))
    box = BoxRegion.centered(4, 2)
    field = sample_field(TP, box, 1)
    kw = solver._KilledWalk(field, box)
    factor = kw._factor()
    before = factor.copy()
    for ids in ([], np.array([], dtype=np.int64)):
        diag = kw.diagonal(ids)
        assert diag.shape == (0,) and diag.dtype == np.float64
    assert kw._cholesky is factor and np.array_equal(factor, before)
    # the empty ball of eta = 0 reaches the diagonal with no ids
    assert maximal_distance(field, box, (2, 0), 0.0) == 0.0
    assert inversions == []


def test_blocked_green_diagonal_rejects_a_singular_block():
    box = BoxRegion.centered(3, 2)
    factor = solver._KilledWalk(sample_field(TP, box, 1), box)._factor().copy(order="F")
    factor[0, 20] = 0.0
    with pytest.raises(SolverError, match="singular"):
        solver._selected_inverse(factor)


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
    _assert_close(kw.solve(kw._unit(kw._idx((0, 0))))[ids], G[:, i0], 1e-12)
    _assert_close(kw.diagonal()[ids], np.diag(G), 1e-12)
    wf = weighted_functionals(field, box, x)
    q = G[i0] / np.diag(G) * e / e[i0]
    _assert_close(wf.q_visit, q, 1e-12)


def _distance_gauge(kw, x, c):
    """The log-scale c |z - x|_1 by row of the operator."""
    gauge = np.empty(len(kw.ss))
    gauge[kw.keys] = c * np.abs(kw.ss.sites - np.asarray(x)).sum(axis=1)
    return gauge


def test_gauged_band_lu_matches_cholesky_solve(monkeypatch):
    box = BoxRegion.centered(5, 2)
    field = sample_field(EXP, box, 7)
    x = (4, 0)
    plain = solver._KilledWalk(field, box, kill=x)
    e = plain.solve(plain.kill_vector())
    c = 0.8
    gauge = _distance_gauge(plain, x, c)
    _assert_close(np.exp(plain.log_kill_weight(gauge)), e, 1e-10)
    # the same operator still solves, transposed too, on its own factor
    assert np.array_equal(plain.solve(plain.kill_vector()), e)
    plain.row((0, 0))
    # against a dense solve of B = e^{g} A e^{-g} on the active rows
    A, ids = _dense_operator(plain)
    scale = np.exp(gauge[ids])
    y = np.linalg.solve(scale[:, None] * A / scale, plain.kill_vector(gauge)[ids])
    _assert_close(np.exp(plain.log_kill_weight(gauge) + gauge)[ids], y, 1e-12)
    # a d=3 box, a kill row of each colour on the field spanning the whole
    # potential domain (750, 1e4 and 1e300), and a site set with taboo holes
    box3 = BoxRegion.centered(3, 3)
    huge_box, huge = _huge_potential_field()
    cases = [(solver._KilledWalk(sample_field(TP, box3, 4), box3, kill=(2, 1, 0)), (2, 1, 0))]
    cases += [(solver._KilledWalk(huge, huge_box, kill=k), k) for k in ((3, 1), (2, 1))]
    holes = travel_weight(field, box, (0, 0), x, taboo=[(1, 0), (2, 2), (-3, 1), (4, 3)])
    assert len(holes.siteset) == len(box.sites()) - 4
    cases.append((holes.walk, x))
    for kw, kill in cases:
        e = kw.solve(kw.kill_vector())
        _assert_close(np.exp(kw.log_kill_weight(_distance_gauge(kw, kill, c))), e, 1e-10)
    # the gauged complement is solved as one general band at S's bandwidth
    bands, real = [], solver.solve_banded
    monkeypatch.setattr(solver, "solve_banded",
                        lambda lu, ab, *a, **k: bands.append((lu, ab.shape)) or real(lu, ab, *a, **k))
    for kw, kill in cases[:2]:
        kw.log_kill_weight(_distance_gauge(kw, kill, c))
        ev, _, _, _, bw = kw.colours[:5]
        assert bands.pop() == ((bw, bw), (2 * bw + 1, len(ev))) and bw > 0


def test_weighted_functionals_and_maximal_distance_factor_once(monkeypatch):
    calls = _count_factorizations(monkeypatch)
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
    # per trial: the unperturbed operator once, for a(0, x), q(y) and the
    # closed-form change of a(0, x); the raised field is never factored
    records = rank_one_verify(TP, (2, 0, 0), 3, 1)
    assert len(calls) == 6 + len(records) == 9
    # per sample: one operator gives a(0, x) and E_Q[#A]
    entropy_global_probe(TP, (2, 1), [-0.5], 3, 1)
    assert len(calls) == 9 + 3


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
    return transition_matrix(SiteSet(sites), field.values_at(sites))


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
    # S's band: a column per site of row 0's colour (every other step of
    # the stair), at bandwidth 1
    ev, _, _, _, bw = kw.colours[:5]
    assert bw <= 2
    assert kw._factor().shape == (bw + 1, len(ev)) == (2, (len(stair) + 1) // 2)
    e, _, keep = _dense_weights(_dense_step_matrix(field, stair), len(stair) - 1)
    res = travel_weight(field, stair, (0, 0), (L, L))
    _assert_close(res.e_values[keep], e, 1e-12)
    block = block_sites(np.array([1, 1, 1]), 0, 6, 3)
    kw = solver._KilledWalk(zero_field(3, block), block)
    ev, _, _, _, bw = kw.colours[:5]
    assert kw._factor().shape == (bw + 1, len(ev))
    assert len(ev) < len(block) < np.prod(kw.ss.shape) / 5
    assert bw < np.prod(kw.ss.shape[1:]) / 3


def test_box_layouts_are_shared_read_only_and_thread_safe():
    box = BoxRegion.centered(4, 2)
    field = sample_field(TP, box, 1)
    res = travel_weight(field, box, (0, 0), (2, 1))
    assert travel_weight(field, BoxRegion.centered(4, 2), (0, 0), (3, 0)).siteset is res.siteset
    with pytest.raises(ValueError):
        res.siteset.sites[0, 0] = 7
    # the colour layout too: the rows of each colour and the paths of S
    arrays = [a for a in res.siteset.colours() if isinstance(a, np.ndarray)]
    assert len(arrays) == 7 and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        res.walk.colours[5][0] = 0
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


def test_index_one_agrees_with_the_vectorized_index_on_sets_with_holes():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        box = BoxRegion((-3,) * d, (4,) * d).sites()
        for _ in range(10):
            ss = SiteSet(rng.permutation(box[rng.random(len(box)) < 0.6]))
            # points inside the set, in its bounding box's holes and beyond it
            points = rng.integers(-5, 6, size=(200, d))
            want = ss.index(points)
            assert [ss.index_one(tuple(int(c) for c in p)) for p in points] == want.tolist()
            assert (want >= 0).any() and (want < 0).any()
    with pytest.raises(ValueError):
        SiteSet(box).index_one((0, 0))


def test_one_kill_as_a_tuple_or_a_one_row_array_solves_alike():
    box = BoxRegion.centered(5, 2)
    field = sample_field(TP, box, 4)
    one = solver._KilledWalk(field, box, kill=(3, -2))
    row = solver._KilledWalk(field, box, kill=np.array([[3, -2]]))
    assert np.array_equal(one.active, row.active)
    assert np.array_equal(one.coupling, row.coupling)
    for a, b in ((one.kill_vector(), row.kill_vector()),
                 (one.solve(one.kill_vector()), row.solve(row.kill_vector())),
                 (one.solve(one.exit_vector(), "T"), row.solve(row.exit_vector(), "T"))):
        assert a.tobytes() == b.tobytes()
    with pytest.raises(DomainError, match=r"target \(6, 0\) not in region"):
        solver._KilledWalk(field, box, kill=np.array([[1, 0], [6, 0]]))


def test_kill_bookkeeping_of_a_shared_box_is_read_only():
    box = BoxRegion.centered(4, 2)
    res = travel_weight(sample_field(TP, box, 1), box, (0, 0), (2, 1))
    parts = res.siteset.kill_parts(((2, 1),))
    assert parts is res.siteset.kill_parts(((2, 1),))  # built once
    assert res.walk.active is parts[0]
    assert not any(a.flags.writeable for a in parts)
    with pytest.raises(ValueError):
        res.walk.active[0] = False
    # a kill site touches 2d pairs, each with its other end next to it
    assert len(parts[1]) == len(parts[2]) == 4
    assert not parts[0][res.walk.keys[res.siteset.index_one((2, 1))]]


def test_a_band_that_is_not_positive_definite_raises_solver_error():
    box = BoxRegion.centered(3, 2)
    kw = solver._KilledWalk(zero_field(2, box), box)
    kw.coupling = kw.coupling * 4.0  # row sums of K above 1: S is indefinite
    with pytest.raises(SolverError, match="dpbtrf info"):
        kw.solve(kw.exit_vector())
