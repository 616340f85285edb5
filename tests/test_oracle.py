import json
import math

import numpy as np
import pytest

from rwpot import oracle
from rwpot.cli import default_config
from rwpot.errors import CapacityError, DomainError, FeasibilityError, ParameterError
from rwpot.lattice import BoxRegion
from rwpot.oracle import enumerate_paths, sample_crossings, sample_walk_weight
from rwpot.potential import DistributionSpec, sample_field
from rwpot.solver import SiteSet, travel_weight, weighted_functionals
from util_oracles import (dump_traces, enumerate_paths_dfs, reference_crossings,
                          reference_walk, transition_matrix, weighted_mean_se, zero_field)

TP = DistributionSpec.two_point(0.2, 1.0, 0.5)
EXP = DistributionSpec.exponential(1.0)
TWO_SITES = np.array([[0, 0], [1, 0]])
THREE_SITES = np.array([[-1, 0], [0, 0], [1, 0]])


def test_forced_step_instance():
    res = enumerate_paths(zero_field(2, TWO_SITES), TWO_SITES, (1, 0), L=1)
    assert res.partial_weight == 0.25
    assert res.remainder_bound == 0.0


def test_three_site_geometric_series():
    res = enumerate_paths(zero_field(2, THREE_SITES), THREE_SITES, (1, 0), L=20)
    assert res.partial_weight <= 4 / 15 <= res.partial_weight + res.remainder_bound
    assert res.remainder_bound < 1e-10


@pytest.mark.parametrize("item", default_config("oracle-check").sampling["battery"],
                         ids=lambda item: f"seed{item['seed']}")
def test_enumeration_matches_a_dense_push_on_the_default_battery(item):
    """enumerate_paths' step-by-step push against the same push by the dense
    step matrix: the mass entering x at each step, and the mass alive."""
    x, L = tuple(item["x"]), item["L"]
    region = BoxRegion.centered(item["radius"], len(x))
    field = sample_field(TP, region, item["seed"])
    ss = SiteSet(region.sites())
    P = transition_matrix(ss, field.values_at(ss.sites))
    ix, keep = ss.index_one(x), np.arange(len(ss)) != ss.index_one(x)
    v = (np.arange(len(ss)) == ss.index_one((0,) * len(x))).astype(float)[keep]
    per_step = np.zeros(L + 1)
    for k in range(1, L + 1):
        per_step[k] = v @ P[keep, ix]
        v = v @ P[keep][:, keep]
    res = enumerate_paths(field, region, x, L=L)
    assert np.allclose(res.per_step_weight, per_step, rtol=1e-12, atol=0.0)
    assert math.isclose(res.partial_weight, per_step.sum(), rel_tol=1e-12)
    s = math.exp(-field.values.min())
    assert math.isclose(res.remainder_bound, min(v.sum(), s ** L / (1 - s)), rel_tol=1e-12)


def test_monotone_in_path_length():
    field = zero_field(2, THREE_SITES)
    prev_w, prev_r = -1.0, math.inf
    for L in range(0, 16):
        res = enumerate_paths(field, THREE_SITES, (1, 0), L=L)
        assert res.partial_weight >= prev_w - 1e-15
        assert res.remainder_bound <= prev_r + 1e-15
        prev_w, prev_r = res.partial_weight, res.remainder_bound


def test_dfs_and_propagation_agree_path_by_path():
    box = BoxRegion((-2, -2), (3, 3))
    field = sample_field(EXP, box, 5)
    for L in (1, 3, 6, 9):
        dp = enumerate_paths(field, box, (2, 1), L=L).partial_weight
        dfs = enumerate_paths_dfs(field, box, (2, 1), L=L)
        assert abs(dp - dfs) < 1e-13


def test_taboo_paths_excluded():
    box = BoxRegion((-1, -1), (2, 2))
    field = sample_field(TP, box, 3)
    free = enumerate_paths(field, box, (1, 1), L=12).partial_weight
    taboo = enumerate_paths(field, box, (1, 1), taboo=[(1, 0)], L=12)
    dfs = enumerate_paths_dfs(field, box, (1, 1), taboo=[(1, 0)], L=12)
    assert taboo.partial_weight < free
    assert abs(taboo.partial_weight - dfs) < 1e-13


def test_sandwich_against_solver():
    for seed in range(5):
        box = BoxRegion.centered(3, 2)
        field = sample_field(TP, box, seed)
        e = travel_weight(field, box, (0, 0), (2, 1)).e_at((0, 0))
        enum = enumerate_paths(field, box, (2, 1), L=28)
        assert enum.partial_weight - 1e-13 <= e
        assert e <= enum.partial_weight + enum.remainder_bound + 1e-13


def test_capacity_limits():
    big = BoxRegion.centered(4, 2)  # 81 sites
    field = sample_field(TP, big, 0)
    with pytest.raises(CapacityError):
        enumerate_paths(field, big, (1, 0))
    small = BoxRegion.centered(2, 2)
    f2 = sample_field(TP, small, 0)
    with pytest.raises(CapacityError):
        enumerate_paths(f2, small, (1, 0), L=31)
    with pytest.raises(DomainError, match="x must differ"):
        enumerate_paths(f2, small, (0, 0), L=4)


def test_walk_weight_bernoulli_instance():
    res = sample_walk_weight(zero_field(2, TWO_SITES), TWO_SITES, (1, 0),
                             100000, 12345)
    assert abs(res.estimate - 0.25) <= 4 * res.std_error
    # unpacks as the (estimate, std_error) pair
    est, se = res
    assert (est, se) == (res.estimate, res.std_error)


def test_walk_weight_single_episode_range():
    for seed in range(10):
        box = BoxRegion.centered(2, 2)
        field = sample_field(EXP, box, seed)
        res = sample_walk_weight(field, box, (1, 1), 1, seed)
        w = res.weights[0]
        assert w == 0.0 or 0.0 < w <= 1.0


def test_walk_weight_matches_solver():
    box = BoxRegion.centered(3, 2)
    hits = 0
    for seed in range(5):
        field = sample_field(TP, box, seed)
        e = travel_weight(field, box, (0, 0), (2, 0)).e_at((0, 0))
        mc = sample_walk_weight(field, box, (2, 0), 40000, seed + 1000)
        hits += abs(mc.estimate - e) <= 4 * mc.std_error
    assert hits >= 4


def test_walk_weight_independent_of_episode_order():
    # randomness is keyed by (seed, episode, step): episode k has the same
    # weight whether it runs among 500 or 1000 lockstep episodes
    box = BoxRegion.centered(2, 2)
    field = sample_field(TP, box, 7)
    a = sample_walk_weight(field, box, (1, 0), 1000, 77)
    b = sample_walk_weight(field, box, (1, 0), 500, 77)
    assert a.weights[:500].tobytes() == b.weights.tobytes()
    assert a.n_hit > b.n_hit > 0


def _holey_square():
    sites = BoxRegion.centered(3, 2).sites()
    return sites[np.any(sites != (1, 0), axis=1)]  # x's neighbour (1, 0) is a hole


@pytest.mark.parametrize("region, x, first", [
    (BoxRegion.centered(3, 2), (2, 1), 0),
    (_holey_square(), (2, 0), 0),
    (BoxRegion((-1, -1), (9, 2)), (6, 0), 0),  # a strip three sites wide
    (BoxRegion.centered(2, 3), (1, 1, 0), 1024),  # a later crossing batch
])
def test_walk_matches_one_episode_reference(region, x, first):
    sites = region.sites() if isinstance(region, BoxRegion) else region
    field = sample_field(TP, BoxRegion.centered(8, len(x)), 4)
    episodes = np.arange(first, first + 400, dtype=np.int64)
    hit, logw = oracle._walk(field, SiteSet(sites), x, 99, episodes)
    allowed = {tuple(z) for z in sites.tolist()}
    want = [reference_walk(field, allowed, x, 99, k)[:2] for k in episodes.tolist()]
    # log weights, not weights: np.exp and math.exp may differ in the last ulp
    assert hit.tolist() == [h for h, _ in want]
    assert logw.tobytes() == np.array([w for _, w in want]).tobytes()
    assert 0 < hit.sum() < len(episodes)


def test_crossing_trace_single_step():
    traces = sample_crossings(zero_field(2, TWO_SITES), TWO_SITES, (1, 0),
                              4, 5, 1)
    for tr in traces:
        assert tr.range_size == 1
        assert tr.animal_size == 1
        assert tr.visited_cubes == ((0, 0),)


def test_crossing_trace_invariants():
    box = BoxRegion.centered(5, 2)
    field = sample_field(EXP, box, 77)
    traces = sample_crossings(field, box, (2, 0), 4, 100, 31337)
    for tr in traces:
        taus = list(tr.tau_times)
        assert taus == sorted(set(taus)) and taus[0] == 0
        assert tr.range_size <= (3 * tr.l) ** 2 * tr.animal_size
        assert 0 < tr.weight <= 1


def test_crossing_weighted_range_matches_solver():
    box = BoxRegion.centered(5, 2)
    field = sample_field(EXP, box, 77)
    traces = sample_crossings(field, box, (2, 0), 4, 1500, 31337)
    w = [t.weight for t in traces]
    r = [t.range_size for t in traces]
    est, se = weighted_mean_se(w, r)
    wf = weighted_functionals(field, box, (2, 0))
    assert abs(est - wf.expected_range) <= 4 * se


def test_crossing_infeasible_conditioning():
    # 0 and x are not connected inside the region: acceptance rate is 0
    sites = np.array([[0, 0], [2, 0]])
    field = zero_field(2, sites)
    with pytest.raises(FeasibilityError):
        sample_crossings(field, sites, (2, 0), 4, 1, 1, max_attempts=2000)


def test_crossing_rejects_bad_sample_counts():
    box = BoxRegion.centered(3, 2)
    field = sample_field(TP, box, 2)
    for n in (0, -5):
        with pytest.raises(ParameterError, match="n_samples must be >= 1"):
            sample_crossings(field, box, (1, 1), 4, n, 3)


def _trace_fields(traces):
    return [(t.accepted, t.weight, t.tau_times, t.visited_cubes, t.range_size,
             t.l) for t in traces]


@pytest.mark.parametrize("batch, d, n, max_attempts", [
    (oracle.CROSSING_BATCH, 2, 12, None),
    (7, 2, 12, None),  # many lockstep batches
    (7, 2, 12, 5),  # the attempt budget of 5 doubles at 5, 10 and 20
    (7, 3, 6, None),
])
def test_crossings_match_one_episode_reference(monkeypatch, batch, d, n,
                                              max_attempts):
    monkeypatch.setattr(oracle, "CROSSING_BATCH", batch)
    box = BoxRegion.centered(3, d)
    field = sample_field(TP, box, 2)
    x = (1, 1) + (0,) * (d - 2)
    got = sample_crossings(field, box, x, 4, n, 3, include_rejected=True,
                           max_attempts=max_attempts)
    want = reference_crossings(field, box.sites(), x, 4, n, 3,
                               include_rejected=True, max_attempts=max_attempts)
    assert _trace_fields(got) == want
    assert sum(t.accepted for t in got) == n and len(got) > n


def test_crossing_infeasibility_matches_reference(monkeypatch):
    monkeypatch.setattr(oracle, "CROSSING_BATCH", 7)
    sites = np.array([[0, 0], [2, 0]])
    field = zero_field(2, sites)
    with pytest.raises(FeasibilityError) as want:
        reference_crossings(field, sites, (2, 0), 4, 1, 1, max_attempts=30)
    with pytest.raises(FeasibilityError) as got:
        sample_crossings(field, sites, (2, 0), 4, 1, 1, max_attempts=30)
    assert str(got.value) == str(want.value)
    assert "after 30 attempts" in str(got.value)


def test_trace_dump_format(tmp_path):
    box = BoxRegion.centered(3, 2)
    field = sample_field(TP, box, 2)
    traces = sample_crossings(field, box, (1, 1), 4, 10, 3,
                              include_rejected=True)
    path = tmp_path / "traces.jsonl"
    dump_traces(traces, path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == len(traces)
    for obj in lines:
        assert set(obj) == {"accepted", "weight", "range_size", "animal_size",
                            "tau_count"}
    assert any(obj["accepted"] for obj in lines)
