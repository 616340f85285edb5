import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from rwpot.errors import DomainError, ParameterError
from rwpot.lattice import BoxRegion
from rwpot import potential
from rwpot.potential import (ZERO_LAW, DistributionSpec, PotentialField,
                             assumption_report, fresh_site_value, load_field,
                             sample_field, sample_field_where, sample_fields,
                             save_field)
from rwpot.rng import derive_seed

TP = DistributionSpec.two_point(0.2, 1.0, 0.5)
EXP = DistributionSpec.exponential(1.0)
BOX = BoxRegion.centered(4, 2)


def test_two_point_sampling_matches_binomial_oracle():
    field = sample_field(TP, BoxRegion.centered(60, 2), 7)
    n = field.values.size
    hits = int(np.sum(field.values == 1.0))
    assert set(np.unique(field.values)) == {0.2, 1.0}
    sigma = math.sqrt(n * 0.25)
    assert abs(hits - 0.5 * n) <= 4 * sigma


def test_moments_against_empirical():
    for spec in (TP, EXP, DistributionSpec.shifted_exponential(0.3, 2.0),
                 DistributionSpec.log_normal(-0.5, 0.8)):
        u = np.linspace(0, 1, 100002)[1:-1]
        x = spec.sample(u)  # quadrature over the uniform grid
        assert abs(x.mean() - spec.mean()) < 5e-3 * max(1, spec.mean())
        assert abs((x ** 2).mean() - spec.second_moment()) \
            < 2e-2 * max(1, spec.second_moment())
        assert abs(np.exp(-x).mean() - spec.exp_neg_moment()) < 1e-3


def test_exp_moment_divergence():
    assert EXP.exp_moment(0.5) == 2.0
    assert EXP.exp_moment(1.0) == math.inf
    assert DistributionSpec.log_normal(0, 1).exp_moment(0.1) == math.inf
    assert TP.exp_moment(3.0) < math.inf


def test_tail_prob_and_essential_infimum():
    assert TP.tail_prob(0.5) == 0.5
    assert TP.tail_prob(0.1) == 1.0
    assert TP.essential_infimum() == 0.2
    assert EXP.essential_infimum() == 0.0
    se = DistributionSpec.shifted_exponential(0.3, 1.0)
    assert se.essential_infimum() == 0.3
    assert se.tail_prob(0.2) == 1.0


@pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (-2.0, 0.3), (3.0, 2.5)])
def test_log_normal_tail_prob_matches_norm_sf(mu, sigma):
    """P(omega >= kappa) = P(Z >= z) at z = (log kappa - mu)/sigma, for z
    from -8 into the deep tail at 30."""
    spec = DistributionSpec.log_normal(mu, sigma)
    assert spec.tail_prob(0.0) == 1.0
    for kappa in np.exp(mu + sigma * np.linspace(-8.0, 30.0, 381)):
        ref = float(norm.sf((math.log(kappa) - mu) / sigma))
        got = spec.tail_prob(kappa)
        assert math.isclose(got, ref, rel_tol=1e-14), (kappa, got, ref)


def test_log_normal_exp_neg_moment_matches_tight_quad():
    """The fixed trapezoid rule against adaptive quadrature at a tight
    relative tolerance, for mu in [-4, 4] and sigma in [0.05, 10]. At
    mu = 4, sigma = 0.3 the moment is about 2e-11, far below quad's default
    absolute tolerance of 1.49e-8, so only a relative tolerance checks it."""
    for mu in np.linspace(-4.0, 4.0, 9):
        for sigma in (0.05, 0.3, 1.0, 2.0, 5.0, 10.0):
            def integrand(z):
                return math.exp(-math.exp(mu + sigma * z) - z * z / 2) / math.sqrt(2 * math.pi)

            ref, _ = quad(integrand, -12, 12, epsabs=0, epsrel=1e-13, limit=2000)
            got = DistributionSpec.log_normal(mu, sigma).exp_neg_moment()
            assert math.isclose(got, ref, rel_tol=1e-12), (mu, sigma, got, ref)
    # exp(omega) overflows at the top of the grid: that end adds 0, so the
    # moment stays finite, just under P(Z < 0) = 1/2
    assert 0.49 < DistributionSpec.log_normal(0.0, 100.0).exp_neg_moment() < 0.5


def test_assumption_reports():
    rep = assumption_report(TP)
    assert rep.a1_ok() and rep.a2_ok and rep.a3_ok
    assert not assumption_report(EXP).a3_ok
    ln = assumption_report(DistributionSpec.log_normal(0, 1))
    assert not ln.a1_ok() and ln.a2_ok and not ln.a3_ok


def test_almost_surely_zero_warns():
    with pytest.warns(UserWarning):
        DistributionSpec.constant(0.0)
    with pytest.warns(UserWarning):
        DistributionSpec.two_point(0.0, 1.0, 0.0)


def test_field_determinism_and_order_independence():
    f1 = sample_field(TP, BOX, 99)
    f2 = sample_field(TP, BOX, 99)
    assert np.array_equal(f1.values, f2.values)
    # a subregion drawn independently agrees bit for bit with the parent
    sub = BoxRegion((-1, -1), (2, 2))
    fsub = sample_field(TP, sub, 99)
    for p in [tuple(z) for z in sub.sites()]:
        assert fsub.value_at(p) == f1.value_at(p)


def test_field_lookup_and_bounds():
    field = sample_field(TP, BOX, 1)
    assert field.value_at((0, 0)) == field.values_at(np.array([[0, 0]]))[0]
    with pytest.raises(DomainError):
        field.value_at((99, 0))
    with pytest.raises(ParameterError):
        PotentialField(BOX, -np.ones(BOX.shape), TP, 0)


def test_with_value_is_a_copy():
    field = sample_field(TP, BOX, 5)
    changed = field.with_value((1, 1), 7.5)
    assert changed.value_at((1, 1)) == 7.5
    assert field.value_at((1, 1)) != 7.5
    with pytest.raises(ParameterError):
        field.with_value((1, 1), -1.0)


def test_truncation_cap_arithmetic():
    field = sample_field(EXP, BoxRegion.centered(16, 2), 3)
    x = (8, 0)
    capped = field.truncated(x, 0.5)
    cap = (4 * 2 / 0.5) * math.log(8)
    assert np.all(capped.values <= cap + 1e-12)
    assert np.all(capped.values <= field.values)
    with pytest.raises(DomainError):
        field.truncated((1, 0), 0.5)


def test_is_occupied_subwindow():
    values = np.zeros((4, 4))
    values[3, 3] = 2.0
    field = PotentialField(BoxRegion((0, 0), (4, 4)), values, TP, 0)
    assert field.is_occupied(1.5)
    assert not field.is_occupied(1.5, (0, 0), (3, 3))
    assert field.is_occupied(1.5, (2, 2), (4, 4))


def test_fresh_site_value_determinism():
    a = fresh_site_value(TP, 3, (1, 2), 7)
    b = fresh_site_value(TP, 3, (1, 2), 7)
    c = fresh_site_value(TP, 3, (1, 2), 8)
    assert a == b
    assert a in (0.2, 1.0) and c in (0.2, 1.0)


def test_serialization_round_trip(tmp_path):
    field = sample_field(EXP, BoxRegion((-2, 0, 1), (1, 3, 4)), 123)
    path = tmp_path / "field.bin"
    save_field(field, path)
    loaded = load_field(path)
    assert loaded.region == field.region
    assert loaded.seed == field.seed
    assert loaded.spec == field.spec
    assert np.array_equal(loaded.values, field.values)


def test_zero_law_field_reloads_without_warning(tmp_path):
    import warnings

    field = PotentialField(BOX, np.zeros(BOX.shape), ZERO_LAW, 0)
    path = tmp_path / "zero.bin"
    save_field(field, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_field(path)
    assert loaded.spec == ZERO_LAW


def test_spec_json_round_trip():
    for spec in (TP, EXP, DistributionSpec.log_normal(0.1, 0.9),
                 DistributionSpec.shifted_exponential(0.2, 3.0),
                 DistributionSpec.constant(1.5)):
        assert DistributionSpec.from_json(spec.to_json()) == spec


def test_sample_fields_is_one_field_per_seed_in_seed_order():
    seeds = [derive_seed(5, i) for i in range(6)]
    expected = [float(sample_field(EXP, BOX, s).values.sum()) for s in seeds]

    def total(f):
        return float(f.values.sum())

    # sample i is the field seeded derive_seed(*key, i)
    assert sample_fields(total, EXP, BOX, (5,), 6) == expected


@pytest.mark.parametrize("spec", [TP, EXP, DistributionSpec.log_normal(0.3, 0.7)])
def test_stacked_draws_are_sample_field_bit_for_bit(monkeypatch, spec):
    # 81 sites, three fields to a stack: stacks of 3, 3 and 1 for 7 seeds
    monkeypatch.setattr(potential, "STACK_SITES", 3 * 81 + 80)
    assert [len(s) for s in potential.seed_stacks((6, 1), 7, BOX.site_count)] == [3, 3, 1]
    fields = sample_fields(lambda f: f, spec, BOX, (6, 1), 7)
    for i, f in enumerate(fields):
        one = sample_field(spec, BOX, derive_seed(6, 1, i))
        assert f.seed == one.seed
        assert f.values.tobytes() == one.values.tobytes()
        assert not f.values.flags.writeable


def test_sample_field_where_returns_first_admissible_attempt():
    key = (9, 4)
    draws = [sample_field(EXP, BOX, derive_seed(*key, a)) for a in range(40)]
    level = sorted(f.values.max() for f in draws)[-3]  # admits a few draws
    first = next(a for a, f in enumerate(draws) if f.values.max() >= level)
    assert first > 0
    fld = sample_field_where(lambda f: f.values.max() >= level, EXP, BOX, key,
                             limit=first)
    assert fld.seed == derive_seed(*key, first)
    assert np.array_equal(fld.values, draws[first].values)
    # limit counts attempts 0..limit: one short of `first` exhausts the loop
    with pytest.raises(DomainError, match=f"{first} draws"):
        sample_field_where(lambda f: f.values.max() >= level, EXP, BOX, key,
                           limit=first - 1)


def test_zero_law_is_constant_zero_without_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert ZERO_LAW == DistributionSpec.constant(0.0)
    assert ZERO_LAW.to_json() == {"kind": "Constant", "params": {"c": 0.0}}
