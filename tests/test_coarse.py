import math

import numpy as np
import pytest

from rwpot import potential
from rwpot.coarse import (animal_occupancy_check, canonical_chi_configs,
                          chi_evaluate, chi_region, chi_upper_probe,
                          in_omega_prime, occupied_cost_bound_check,
                          supermartingale_step_check, write_animal_report)
from rwpot.errors import DomainError, ParameterError
from rwpot.potential import DistributionSpec, sample_field
from rwpot.stats import wilson_interval

TP = DistributionSpec.two_point(0.2, 1.0, 0.5)
EXP = DistributionSpec.exponential(1.0)


def _const(c):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return DistributionSpec.constant(c)


def test_occupancy_certain_cells_never_fail():
    # kappa below the essential infimum: every cell occupied, zero failures
    rep = animal_occupancy_check(TP, 2, 0.1, 4, 200, 1)
    assert rep["p_occupied"] == 1.0
    assert all(r["failures"] == 0 for r in rep["per_l"])


def test_occupancy_single_cell_rate_matches_bernoulli():
    # l=1: the event fails exactly when the origin cell is unoccupied
    rep = animal_occupancy_check(EXP, 1, 1.0, 1, 4000, 7)
    p = rep["p_occupied"]
    assert abs(p - math.exp(-1.0)) < 1e-12
    r1 = rep["per_l"][0]
    lo, hi = wilson_interval(r1["failures"], 4000)
    assert lo <= 1 - p <= hi
    assert r1["animal_count"] == 1


def test_occupancy_is_the_same_whatever_the_draw_stacks(monkeypatch):
    # 121 cells (l_cap 5): one coarse field per stack, or all in one
    whole = animal_occupancy_check(EXP, 1, 1.0, 5, 300, 3)
    for bound in (1, 10 ** 6):
        monkeypatch.setattr(potential, "STACK_SITES", bound)
        assert animal_occupancy_check(EXP, 1, 1.0, 5, 300, 3) == whole


def test_occupancy_rates_decay_at_high_p():
    # p close to 1: failure rates should fall with l; the slope threshold is
    # pinned from a pilot run at this seed rather than assumed
    rep = animal_occupancy_check(EXP, 4, 0.25, 5, 3000, 11)
    assert rep["p_occupied"] > 0.99
    rates = [r["failure_rate"] for r in rep["per_l"]]
    assert rates[-1] <= rates[0]
    assert rates[0] < 0.05
    for r in rep["per_l"]:
        assert r["animal_count"] < r["animal_bound_4dl"]


def test_animal_report_files(tmp_path):
    rep = animal_occupancy_check(TP, 2, 0.5, 3, 100, 3)
    write_animal_report(rep, tmp_path / "a.csv", tmp_path / "a.json")
    lines = (tmp_path / "a.csv").read_text().splitlines()
    assert lines[0] == "l,animal_count,failures,failure_rate,ci_lo,ci_hi"
    assert len(lines) == 4


def test_occupied_cost_bound_single_site():
    # M=1, one occupied site: exit weight is exactly e^{-omega(0)}
    rep = occupied_cost_bound_check(TP, 1, 0.5, 10, 5)
    assert rep["violations"] == 0
    bound = 1.0 - (1.0 - math.exp(-0.5)) * 0.25
    assert rep["bound"] == pytest.approx(bound)
    for row in rep["rows"]:
        assert row["value"] <= rep["bound"] + 1e-12


def test_occupied_cost_bound_kappa_to_zero():
    rep = occupied_cost_bound_check(EXP, 2, 1e-9, 5, 2)
    assert rep["bound"] == pytest.approx(1.0, abs=1e-8)
    assert rep["violations"] == 0


def test_occupied_cost_bound_batch():
    rep = occupied_cost_bound_check(EXP, 3, 0.5, 20, 13)
    assert rep["violations"] == 0
    with pytest.raises(ParameterError):
        occupied_cost_bound_check(EXP, 7, 0.5, 1, 1)


def test_chi_region_contains_all_crossing_shells():
    reg = chi_region(8, 2)
    assert reg.lo == (-10, -10) and reg.hi == (11, 11)


def test_chi_evaluate_strict_bounds_and_witness():
    reg = chi_region(8, 2)
    fld = sample_field(TP, reg, 4)
    assert in_omega_prime(fld, 8, 0.5)
    ev = chi_evaluate(fld, 8, 0.5)
    assert 0.0 < ev.value < 1.0
    assert ev.lower_witness <= ev.value
    assert ev.per_start_max_ok
    assert max(abs(v) for v in ev.start) <= 4
    with pytest.raises(ParameterError):
        chi_evaluate(fld, 7, 0.5)


def test_chi_evaluate_rejects_unoccupied_center():
    reg = chi_region(8, 2)
    fld = sample_field(_const(0.1), reg, 0)
    assert not in_omega_prime(fld, 8, 0.5)
    with pytest.raises(DomainError):
        chi_evaluate(fld, 8, 0.5)


def test_canonical_configs_are_in_omega_prime():
    # l=8: the central cube is the single origin site, one candidate only
    assert len(canonical_chi_configs(8, 2, 0.5)) == 1
    configs = canonical_chi_configs(16, 2, 0.5)
    assert len(configs) == 5  # four corners plus the center
    for fld in configs:
        assert in_omega_prime(fld, 16, 0.5)
        assert np.count_nonzero(fld.values) == 1
        assert fld.values.max() == 0.5


def test_chi_probe_and_supermartingale():
    probe = chi_upper_probe(EXP, 8, 0.5, 6, 17)
    assert 0 < probe["chi_probe"] < 1
    assert probe["all_strictly_inside"] and probe["all_witness_ok"]
    assert len(probe["values"]) == 6 + 1  # samples plus one canonical config
    sm = supermartingale_step_check(EXP, 8, 0.5, probe["chi_probe"], 30, 19)
    assert sm["relative_to_probe"]
    assert sm["violations"] == 0
    assert 0 < sm["occupied_trials"] <= 30
    for row in sm["rows"]:
        assert row["value"] <= row["limit"] + 1e-12


def test_supermartingale_unoccupied_cube_trivial_limit():
    # a law that never reaches kappa: every trial uses the trivial limit 1
    sm = supermartingale_step_check(_const(0.1), 8, 0.5, 0.5, 5, 1)
    assert sm["occupied_trials"] == 0
    assert sm["violations"] == 0
    assert all(row["limit"] == 1.0 for row in sm["rows"])


def test_chi_witness_round_trip(tmp_path):
    from rwpot.potential import load_field

    path = tmp_path / "witness.field"
    probe = chi_upper_probe(TP, 8, 0.5, 3, 5, witness_path=path)
    fld = load_field(path)
    ev = chi_evaluate(fld, 8, 0.5)
    assert ev.value == pytest.approx(probe["chi_probe"], abs=1e-12)
