"""Acceptance suite: one test per release criterion.

Each test pins its seeds, so statistical checks are reproducible rather than
flaky. Tolerances are part of the criterion and are asserted as stated.
"""

import math

import numpy as np
import pytest

from rwpot.concentration import (compare_restricted, entropy_suite,
                                 pinned_return_probability, rank_one_verify,
                                 truncation_gap, variance_scaling)
from rwpot.coarse import (chi_upper_probe, occupied_cost_bound_check,
                          supermartingale_step_check)
from rwpot.harness import ExperimentConfig, run
from rwpot.lattice import AnimalSpec, BoxRegion, enumerate_animals
from rwpot.lyapunov import estimate_alpha
from rwpot.oracle import enumerate_paths, sample_walk_weight
from rwpot.potential import DistributionSpec, sample_field
from rwpot.rng import derive_seed
from rwpot.solver import (block_cost, travel_weight, weighted_functionals,
                          zero_field)
from util_oracles import brute_force_fixed_animal_count

TP = DistributionSpec.two_point(0.2, 1.0, 0.5)
TP_WIDE = DistributionSpec.two_point(0.1, 1.0, 0.5)
EXP = DistributionSpec.exponential(1.0)


def test_01_oracle_sandwich_on_25_instances():
    for seed in range(25):
        radius = 2 + seed % 2  # boxes 5x5 and 7x7
        box = BoxRegion.centered(radius, 2)
        x = (radius - 1, 1)
        field = sample_field(TP, box, seed)
        e = travel_weight(field, box, (0, 0), x).e_at((0, 0))
        enum = enumerate_paths(field, box, x, L=24)
        assert enum.partial_weight <= e <= (
            enum.partial_weight + enum.remainder_bound), f"seed {seed}"


def test_02_solver_vs_monte_carlo():
    passing = 0
    for seed in range(10):
        box = BoxRegion.centered(3, 2)
        field = sample_field(TP, box, derive_seed(100, seed))
        x = (2, 1)
        e = travel_weight(field, box, (0, 0), x).e_at((0, 0))
        mc = sample_walk_weight(field, box, x, 100_000,
                                derive_seed(200, seed))
        passing += abs(mc.estimate - e) <= 4 * mc.std_error
    assert passing >= 9


def test_03_hand_values():
    two = np.array([[0, 0], [1, 0]])
    three = np.array([[-1, 0], [0, 0], [1, 0]])
    e2 = travel_weight(zero_field(2, two), two, (0, 0), (1, 0)).e_at((0, 0))
    e3 = travel_weight(zero_field(2, three), three, (0, 0), (1, 0)).e_at((0, 0))
    assert abs(e2 - 0.25) < 1e-12
    assert abs(e3 - 4 / 15) < 1e-12


def test_04_cost_monotone_in_nested_boxes():
    boxes = [BoxRegion.centered(r, 2) for r in (3, 5, 7)]
    violations = 0
    for seed in range(20):
        field = sample_field(TP, boxes[-1], derive_seed(4, seed))
        c = [travel_weight(field, b, (0, 0), (2, 1)).cost_at((0, 0))
             for b in boxes]
        violations += (c[0] < c[1] - 1e-10) + (c[1] < c[2] - 1e-10)
    assert violations == 0


def test_05_block_subadditivity():
    xi = np.array([1, 0])
    big = BoxRegion((-8, -8), (40, 9))
    violations = 0
    for seed in range(50):
        field = sample_field(TP, big, derive_seed(5, seed))
        whole = block_cost(field, xi, 0, 6, 5)
        first = block_cost(field, xi, 0, 3, 5)
        second = block_cost(field, xi, 3, 6, 5)
        violations += whole > first + second + 1e-9
    assert violations == 0


def test_06_alpha_band():
    est = estimate_alpha(TP_WIDE, (1, 0), (2, 4, 8), 200, 6, box_factor=2)
    lo = -math.log(0.5 * math.exp(-0.1) + 0.5 * math.exp(-1.0))
    hi = math.log(4.0) + 0.55
    assert est.band == pytest.approx((lo, hi), abs=1e-15)
    assert est.band_ok
    half = (est.ci[1] - est.ci[0]) / 2.0
    assert lo - half <= est.alpha_hat <= hi + half


def test_07_rank_one_sandwich_d3():
    assert abs(pinned_return_probability(3) - 0.3405) < 0.002
    records = rank_one_verify(TP, (1, 1, 0), 200, 7)
    assert len(records) == 200
    violations = [r for r in records if r.violates(1e-8)]
    assert not violations
    assert all(r.delta >= -1e-8 for r in records)


def test_08_expected_range_lower_bound():
    for seed in range(50):
        box = BoxRegion.centered(4 + seed % 3, 2)
        x = (2 + seed % 2, 1)
        field = sample_field(EXP, box, derive_seed(8, seed))
        wf = weighted_functionals(field, box, x)
        l1 = abs(x[0]) + abs(x[1])
        assert wf.expected_range >= l1 - 1e-8, f"seed {seed}"


def test_09_per_site_entropy_inequality():
    region = BoxRegion.centered(3, 2)
    for env_seed in range(20):
        env = sample_field(TP, region, derive_seed(9, env_seed))
        records = entropy_suite(TP, env, (2, 0), [-0.1, -0.5, -1.0],
                                derive_seed(90, env_seed))
        for r in records:
            assert r.ent_value <= r.rhs_bound + 1e-9, f"env {env_seed}"


def test_10_truncation_gap_nonnegative():
    rep = truncation_gap(EXP, (8, 0), 0.5, 5000, 10)
    assert rep["negative_gap_count"] == 0
    assert rep["min_gap"] >= 0.0
    # the fitted tail rate is reported, never asserted
    assert "fitted_tail_rate" in rep and rep["target_rate"] == 0.25


def test_11_occupied_cost_bound():
    rep = occupied_cost_bound_check(EXP, 4, 0.5, 100, 11)
    assert rep["violations"] == 0


def test_12_chi_in_open_unit_interval():
    probe = chi_upper_probe(EXP, 8, 0.5, 100, 12)
    assert probe["all_strictly_inside"]
    assert probe["all_witness_ok"]
    assert 0 < probe["chi_probe"] < 1
    sm = supermartingale_step_check(EXP, 8, 0.5, probe["chi_probe"], 100,
                                    derive_seed(12, 1))
    assert sm["violations"] == 0


def test_13_animal_enumeration():
    for size in range(1, 6):
        _, fixed = enumerate_animals(AnimalSpec(2, size, "L1"))
        assert fixed == brute_force_fixed_animal_count(2, size)
        assert fixed < 4.0 ** (2 * size)
        _, anchored = enumerate_animals(AnimalSpec(2, size, "L1", True))
        assert anchored == size * fixed


def test_14_variance_scaling_probe():
    rep = variance_scaling(TP, 2000, 14, n_small=8, n_large=16)
    assert rep["ratio"] <= 2.5


def test_15_restricted_cost_event_rarity():
    rep = compare_restricted(TP, (8, 0), [1.5, 3.0], 10_000, 15)
    assert rep["log2_event_count"] == 0
    assert rep["monotone_violations"] == 0


TP_JSON = {"kind": "TwoPoint",
           "params": {"v_lo": 0.2, "v_hi": 1.0, "p_hi": 0.5}}
_SMALL_RUNS = {
    "solve": {"geometry": {"x": [2, 1]}, "sampling": {}},
    "lyapunov": {"geometry": {}, "sampling": {"n_grid": [2, 3], "samples": 5}},
    "tails": {"geometry": {"x": [3, 0]}, "sampling": {"samples": 40}},
    "compare": {"geometry": {"x": [3, 0]}, "sampling": {"samples": 30}},
    "truncate": {"geometry": {"x": [3, 0]}, "sampling": {"samples": 30}},
    "perturb": {"geometry": {}, "sampling": {"samples": 10}},
    "entropy": {"geometry": {"x": [2, 0]}, "sampling": {"samples": 20}},
    "psi": {"geometry": {"x": [2, 0]}, "sampling": {"samples": 40}},
    "animals": {"geometry": {"l_cap": 3}, "sampling": {"samples": 200}},
    "chi": {"geometry": {}, "sampling": {"samples": 3, "trials": 10}},
    "oracle-check": {"geometry": {}, "sampling": {
        "battery": [{"seed": 11, "x": [2, 1], "radius": 3, "L": 24,
                     "episodes": 2000}]}},
}


def test_16_reruns_never_change_output_bytes(tmp_path):
    for name, extra in _SMALL_RUNS.items():
        sampling = dict(extra["sampling"])
        sampling["seed"] = 16
        cfg = ExperimentConfig.from_json({
            "experiment": name, "spec": TP_JSON,
            "geometry": extra["geometry"], "sampling": sampling,
        })
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            manifest = run(cfg, out_dir=out)
            assert manifest.all_passed(), name
            outputs.append(sorted(out.glob("*.csv")))
        a, b = outputs
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes(), f"{name}/{pa.name}"
