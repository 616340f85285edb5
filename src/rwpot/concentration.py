"""Concentration phenomenology of travel costs: tail experiments,
restricted/truncated-cost comparisons, rank-one perturbation bounds,
per-site entropy inequalities, the Herbst functional psi, and
martingale-difference diagnostics.

Exact inequalities (monotonicity, perturbation sandwich, finite-support
entropy) are asserted with tolerance <= 1e-8. Statistical quantities carry
Wilson confidence intervals and fixed seeds: a failure at the pinned seed is
reproducible, not a flake. tail_experiment and truncation_gap check their
moment hypotheses first and refuse (naming the failed assumption) unless
overridden; entropy_suite refuses a law without finite support.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import AssumptionError, CapacityError, ParameterError
from .io import write_csv, write_json
from .lattice import BoxRegion, as_point, norms
from .potential import (PotentialField, assumption_report, fresh_site_value,
                        sample_field, sample_fields)
from .rng import counter_uniform, derive_seed
from .solver import raise_site, travel_costs, travel_weight, weighted_functionals
from .stats import log_tail_slope, mean_ci, wilson_interval

EXACT_TOL = 1e-8
DEFAULT_BOX_FACTOR = 2

TAIL_SIDES = ("UpperExp", "LowerGauss", "UpperLD")


def prop_box(x, box_factor=DEFAULT_BOX_FACTOR):
    """Default computation box [-F|x|_1, F|x|_1]^d for 'unrestricted' costs."""
    x = as_point(x)
    radius = int(math.ceil(box_factor * norms(x)[0]))
    return BoxRegion.centered(radius, len(x))


def origin_cost(field, region, x):
    """a_V(0, x) on the field, V the region."""
    origin = (0,) * len(x)
    return travel_weight(field, region, origin, x).cost_at(origin)


def box_return_probability(d, r):
    """Probability the zero-potential walk returns to 0 before leaving the
    box [-r, r]^d: p = 1 - 1/G(0, 0), with G(0, 0) from the Dirichlet
    eigen-sum over k in {1..L}^d, L = 2r + 1, theta = pi/(L + 1): the sum of
    prod_i (2/(L+1)) sin^2(k_i (r+1) theta) / (1 - mean_i cos(k_i theta)).
    sin^2(k (r+1) theta) = sin^2(k pi/2) is 1 for odd k and 0 for even k."""
    L = 2 * r + 1
    cos = np.cos(np.arange(1, L + 1, 2) * math.pi / (L + 1))
    mean_cos = reduce(np.add.outer, [cos] * d) / d
    green = (2.0 / (L + 1)) ** d * float(np.sum(1.0 / (1.0 - mean_cos)))
    return 1.0 - 1.0 / green


@lru_cache(maxsize=None)
def pinned_return_probability(d):
    """Return probability of the free walk, pinned by Richardson
    extrapolation of exact finite-box values before any experiment uses it.

    For d = 2 the walk is recurrent and the value is exactly 1 (this is why
    the d = 2 experiments need a strictly positive potential floor). Above
    d = 5 it raises ParameterError: the eigen-sums hold 33^d doubles, 313 MB
    at d = 5 and 10.3 GB at d = 6."""
    if d < 2:
        raise ParameterError("d must be >= 2")
    if d > 5:
        raise ParameterError(f"d = {d}: the return probability is pinned for d <= 5 only")
    if d == 2:
        return 1.0
    small = box_return_probability(d, 16)
    large = box_return_probability(d, 32)
    # finite-box error decays like 1/L: eliminate the leading term
    return 2.0 * large - small


def require_assumptions(spec, needed, d, override=False):
    """Gate an experiment on its moment hypotheses; raise naming the failed
    assumption unless override is set. In d = 2 the positivity floor (A3) is
    required on top of whatever the experiment asks for."""
    report = assumption_report(spec)
    needed = set(needed)
    if d == 2:
        needed.add("A3")
    holds = {"A1": report.a1_ok(), "A2": report.a2_ok, "A3": report.a3_ok}
    failed = [name for name in sorted(needed) if not holds[name]]
    if failed and not override:
        name = failed[0]
        detail = {
            "A1": "finite exponential moment E[exp(gamma*omega)]",
            "A2": "finite second moment",
            "A3": "strictly positive essential infimum" + (
                ", required when d=2" if d == 2 and name == "A3" else ""),
        }[name]
        raise AssumptionError(name, f"hypothesis ({name}) fails: {detail}")
    return report


def cost_samples(spec, x, samples, key, box_factor=DEFAULT_BOX_FACTOR):
    """a_V(0, x) on the default box, on sample_fields' fields of the key,
    solved in stacks by travel_costs."""
    x = as_point(x)
    region = prop_box(x, box_factor)
    return travel_costs(sample_fields(lambda fld: fld, spec, region, key, samples),
                        region, (0,) * len(x), x)


# ---------------------------------------------------------------------------
# Tail experiments


@dataclass(eq=False)
class TailReport:
    x: tuple
    side: str
    t_grid: tuple
    empirical: tuple  # ((tail, ci_lo, ci_hi), ...)
    reference_shape: tuple  # fitted per-t reference values (or empty)
    fitted_rate: object  # fitted decay constant, None when unfittable
    centered_by: float  # sample mean of a(0, x)
    mean_se: float
    alpha_ref: object
    samples: int
    asymptotics_note: str = (
        "desk-scale x may be pre-asymptotic; only shape and monotonicity of "
        "the tail are meaningful, fitted constants are informational"
    )

    def tails(self):
        return np.asarray([e[0] for e in self.empirical])


def tail_experiment(spec, x, side, samples, t_grid, seed,
                    box_factor=DEFAULT_BOX_FACTOR, alpha_ref=None,
                    override=False):
    if side not in TAIL_SIDES:
        raise ParameterError(f"side must be one of {TAIL_SIDES}")
    x = as_point(x)
    d = len(x)
    needed = {"UpperExp": {"A1"}, "LowerGauss": {"A2"}, "UpperLD": {"A1"}}[side]
    require_assumptions(spec, needed, d, override)
    if side == "UpperLD" and alpha_ref is None:
        raise ParameterError("UpperLD needs alpha_ref (an alpha_hat estimate)")
    a = cost_samples(spec, x, samples, (seed,), box_factor)
    mean, se, _ = mean_ci(a)
    l1 = norms(x)[0]
    scale = math.sqrt(l1)
    t_grid = tuple(float(t) for t in t_grid)
    emp = []
    for t in t_grid:
        # the true mean is unknown: centering at the sample mean, thresholds
        # are inflated by the mean's standard error to stay conservative
        if side == "UpperExp":
            k = int(np.sum(a - mean >= t * scale + se))
        elif side == "LowerGauss":
            k = int(np.sum(a - mean <= -(t * scale + se)))
        else:  # UpperLD
            k = int(np.sum(a - alpha_ref * l1 >= t * l1))
        lo, hi = wilson_interval(k, samples)
        emp.append((k / samples, lo, hi))
    tails = np.asarray([e[0] for e in emp])
    # fit the side's reference decay on the strictly positive tail points
    xfit = {"UpperExp": np.asarray(t_grid),
            "LowerGauss": np.asarray(t_grid) ** 2,
            "UpperLD": np.asarray(t_grid)}[side]
    fitted = None
    ref = ()
    if int(np.sum(tails > 0)) >= 2:
        slope, intercept = log_tail_slope(xfit, tails)
        fitted = -slope
        ref = tuple(float(np.exp(intercept + slope * v)) for v in xfit)
    return TailReport(x, side, t_grid, tuple(emp), ref, fitted,
                      mean, se, alpha_ref, samples)


def write_tail_report(report: TailReport, csv_path, json_path):
    rows = []
    for t, (tail, lo, hi), ref in zip(
            report.t_grid, report.empirical,
            report.reference_shape or (float("nan"),) * len(report.t_grid)):
        rows.append((t, tail, lo, hi, ref if report.reference_shape else "nan"))
    write_csv(csv_path, ("t", "tail", "ci_lo", "ci_hi", "ref_shape"), rows)
    tails = report.tails()
    write_json(json_path, {
        "x": list(report.x),
        "side": report.side,
        "samples": report.samples,
        "centered_by": report.centered_by,
        "mean_se": report.mean_se,
        "fitted_rate": report.fitted_rate,
        "alpha_ref": report.alpha_ref,
        "tails_non_increasing": bool(np.all(np.diff(tails) <= 1e-12)),
        "asymptotics_note": report.asymptotics_note,
    })


def variance_scaling(spec, samples, seed, n_small=8, n_large=16, d=2,
                     box_factor=DEFAULT_BOX_FACTOR):
    """Var(a(0, n e1)) at two scales; the concentration scale sqrt(|x|_1)
    predicts a ratio near n_large/n_small."""
    e1 = (1,) + (0,) * (d - 1)
    out = {}
    for tag, n in (("small", n_small), ("large", n_large)):
        x = tuple(n * v for v in e1)
        a = cost_samples(spec, x, samples, (derive_seed(seed, n),), box_factor)
        out[tag] = {"n": n, "mean": float(a.mean()), "var": float(a.var(ddof=1))}
    out["ratio"] = out["large"]["var"] / out["small"]["var"]
    return out


# ---------------------------------------------------------------------------
# Restricted-cost comparison and truncation


def compare_restricted(spec, x, box_factor_grid, samples, seed, threads=1):
    """Costs across nested boxes on common fields: per-sample monotonicity is
    exact; the 'large box beats small box by more than log 2' event should be
    (exponentially) rare and is counted.

    threads is accepted and ignored: samples are drawn serially, and
    perfbench/workloads.py still passes threads=. Each field is solved on
    its own by travel_weight, not stacked by travel_costs: the benchmark
    records every sample's costs by wrapping travel_weight, keyed on the
    field's seed."""
    x = as_point(x)
    factors = [float(f) for f in box_factor_grid]
    if len(factors) < 2 or factors != sorted(factors) or factors[0] < 1:
        raise ParameterError("box_factor_grid must hold at least two increasing factors >= 1")
    regions = [prop_box(x, f) for f in factors]
    costs = np.asarray(sample_fields(
        lambda fld: [origin_cost(fld, reg, x) for reg in regions],
        spec, regions[-1], (seed,), samples))
    gaps = costs[:, :-1] - costs[:, -1:]  # a_small - a_large per column pair
    log2_event = int(np.sum(costs[:, -1] < costs[:, 0] - math.log(2.0)))
    return {
        "box_factors": factors,
        "samples": samples,
        "monotone_violations": int(np.sum(np.diff(costs, axis=1) > 1e-10)),
        "log2_event_count": log2_event,
        "log2_event_freq": log2_event / samples,
        "mean_gap_small_vs_large": float(gaps[:, 0].mean()),
        "mean_costs": [float(c) for c in costs.mean(axis=0)],
    }


def truncation_gap(spec, x, gamma, samples, seed, override=False):
    """Cost gap between the raw field and its capped version. The cap only
    lowers the potential, so the gap is nonnegative pathwise; its tail should
    decay at rate >= gamma/2."""
    x = as_point(x)
    if spec.exp_moment(gamma) == math.inf and not override:
        raise AssumptionError(
            "A1", f"hypothesis (A1) fails at gamma={gamma}: "
                  f"E[exp(gamma*omega)] diverges")
    region = prop_box(x)

    def biting(fld):
        capped = fld.truncated(x, gamma)
        # cap inactive: identical system, gap exactly zero, nothing to solve
        return None if np.array_equal(fld.values, capped.values) else (fld, capped)

    pairs = sample_fields(biting, spec, region, (seed,), samples)
    bites = [i for i, pair in enumerate(pairs) if pair is not None]
    gaps = np.zeros(samples)
    if bites:
        costs = travel_costs([pairs[i][k] for k in (0, 1) for i in bites],
                             region, (0,) * len(x), x)
        gaps[bites] = costs[:len(bites)] - costs[len(bites):]
    positive = gaps[gaps > 0]
    fitted = None
    if len(positive) >= 10:
        u_grid = np.quantile(positive, [0.0, 0.3, 0.6, 0.85])
        tails = [float(np.mean(gaps >= u)) for u in u_grid]
        try:
            slope, _ = log_tail_slope(u_grid, tails)
            fitted = -slope
        except ValueError:
            fitted = None
    return {
        "gamma": gamma,
        "samples": samples,
        "negative_gap_count": int(np.sum(gaps < -EXACT_TOL)),
        "min_gap": float(gaps.min()),
        "max_gap": float(gaps.max()),
        "positive_gap_count": int(len(positive)),
        "fitted_tail_rate": fitted,
        "target_rate": gamma / 2.0,
        "gaps": gaps,
    }


# ---------------------------------------------------------------------------
# Rank-one perturbation


@dataclass(eq=False)
class PerturbationRecord:
    y: tuple
    omega_y: float
    sigma_y: float
    delta: float
    bound_q: float
    bound_site: float

    def violates(self, tol=EXACT_TOL):
        return not (-tol <= self.delta <= min(self.bound_q, self.bound_site) + tol)


def rank_one_verify(spec, x, n_trials, seed, box_factor=DEFAULT_BOX_FACTOR):
    """Raise one site's potential and compare the exact cost change (in
    closed form, from the unperturbed operator: solver.raise_site) against
    the two bounds: the visit-probability bound -log Q(H(x) <= H(y)) and the
    per-site bound sigma - omega + 1/(1 - min(e^{-omega(y)}, p_return))."""
    x = as_point(x)
    d = len(x)
    region = prop_box(x, box_factor)
    origin = (0,) * d
    p_return = pinned_return_probability(d)
    a3 = assumption_report(spec).a3_ok
    sites = region.sites()
    records = []
    for trial in range(n_trials):
        sub = derive_seed(seed, trial)
        fld = sample_field(spec, region, sub)
        y, sub = _draw_site(sites, sub, (trial, 0xA11CE), (origin, x))
        w_y = fld.value_at(y)
        sigma_y = w_y + fresh_site_value(spec, sub, y, trial)
        _, q_y, delta = raise_site(fld, region, x, y, sigma_y)
        bound_q = math.inf if q_y >= 1.0 else -math.log1p(-q_y)
        m = min(math.exp(-w_y), p_return)
        if d == 2 and not a3 and m >= 1.0:
            # recurrent walk with zero-potential floor: the site bound
            # degenerates, only the visit bound is informative
            bound_site = math.inf
        else:
            bound_site = sigma_y - w_y + (math.inf if m >= 1.0 else 1.0 / (1.0 - m))
        records.append(PerturbationRecord(y, w_y, sigma_y, delta, bound_q, bound_site))
    return records


def _draw_site(sites, seed, counter, avoid):
    """A uniform site of the (n, d) array not in avoid, and the seed after
    it: draw k reads seed_k at the counter, and seed_{k+1} =
    derive_seed(seed_k, 1). ParameterError if every site is in avoid."""
    if all(tuple(int(v) for v in s) in avoid for s in sites):
        raise ParameterError(f"no site to draw: every site is one of {sorted(set(avoid))}")
    while True:
        u = counter_uniform(seed, np.asarray(counter, dtype=np.int64))
        y = tuple(int(v) for v in sites[int(u * len(sites)) % len(sites)])
        seed = derive_seed(seed, 1)
        if y not in avoid:
            return y, seed


# ---------------------------------------------------------------------------
# Entropy machinery


@dataclass(eq=False)
class EntropyRecord:
    lam: float
    ent_value: float
    rhs_bound: float  # lambda^2 * E_y[e^{lambda U} ((U_y - U)_+)^2]
    psi_value: float
    y: tuple
    u_values: tuple  # U per support value of the marginal


def entropy_fn(weights, values):
    """Ent(X) = E[X log X] - E[X] log E[X] for a finite-support X >= 0."""
    w = np.asarray(weights, dtype=float)
    v = np.asarray(values, dtype=float)
    ex = float(w @ v)
    with np.errstate(divide="ignore", invalid="ignore"):
        xlogx = np.where(v > 0, v * np.log(v), 0.0)
    return float(w @ xlogx - ex * math.log(ex))


def entropy_suite(marginal, field_rest, x, lambda_grid, seed, y=None):
    """Exact one-site entropy inequality on a frozen environment.

    All sites except y keep the values of field_rest; the y-marginal must
    have finite support so that Ent_y(e^{lambda U}) and the comparison bound
    lambda^2 E_y[e^{lambda U}((U_y - U)_+)^2] are exact finite sums (U_y is
    an independent resampling of site y only).
    """
    support = marginal.finite_support()
    if support is None:
        raise AssumptionError(
            "finite-support",
            "entropy_suite requires a finite-support marginal: the per-site "
            "inequality is asserted exactly, not statistically")
    x = as_point(x)
    region = field_rest.region
    origin = (0,) * len(x)
    if y is None:
        y, _ = _draw_site(region.sites(), seed, (0xE27, 0), (origin, x))
    y = as_point(y)
    probs = np.asarray([p for _, p in support])
    u_vals = np.asarray([origin_cost(field_rest.with_value(y, v), region, x)
                         for v, _ in support])
    records = []
    for lam in lambda_grid:
        lam = float(lam)
        if lam > 0:
            raise ParameterError("lambda_grid must be nonpositive")
        ex_u = np.exp(lam * u_vals)
        ent = entropy_fn(probs, ex_u)
        diff_plus = np.clip(u_vals[None, :] - u_vals[:, None], 0.0, None)
        rhs = lam * lam * float(
            (probs[:, None] * probs[None, :] * ex_u[:, None] * diff_plus ** 2).sum())
        psi = math.log(float(probs @ ex_u)) - lam * float(probs @ u_vals)
        records.append(EntropyRecord(lam, ent, rhs, psi, y, tuple(u_vals)))
    return records


def entropy_global_probe(spec, x, lambda_grid, samples, seed,
                         box_factor=DEFAULT_BOX_FACTOR, threads=1):
    """Monte Carlo probe of the global inequality
    Ent(e^{lambda a}) <= C lambda^2 E[e^{lambda a} E_Q[#A]]: reports the
    implied C per lambda (expected bounded across the grid).

    threads is accepted and ignored: samples are drawn serially, and
    perfbench/workloads.py still passes threads=. Each field is solved on
    its own by weighted_functionals: the benchmark records every sample's
    cost and range by wrapping travel_weight and weighted_functionals,
    keyed on the field's seed, and the Green diagonal of a field is not a
    stacked solve."""
    x = as_point(x)
    region = prop_box(x, box_factor)

    def cost_and_range(fld):
        wf = weighted_functionals(fld, region, x)
        return wf.cost, wf.expected_range

    pairs = np.asarray(sample_fields(cost_and_range, spec, region, (seed,), samples))
    a, rng = pairs[:, 0], pairs[:, 1]
    w = np.full(samples, 1.0 / samples)
    out = []
    for lam in lambda_grid:
        lam = float(lam)
        if lam == 0.0:
            out.append({"lambda": 0.0, "ent": 0.0, "rhs_core": 0.0,
                        "implied_c": 0.0})
            continue
        ex_a = np.exp(lam * a)
        ent = entropy_fn(w, ex_a)
        core = lam * lam * float(np.mean(ex_a * rng))
        out.append({"lambda": lam, "ent": ent, "rhs_core": core,
                    "implied_c": ent / core if core > 0 else math.inf})
    return {"x": list(x), "samples": samples, "per_lambda": out}


def psi_herbst(spec, x_grid, lambda_grid, samples, seed,
               box_factor=DEFAULT_BOX_FACTOR, lambda_max=0.5):
    """psi(lambda) = log E[e^{lambda a}] - lambda E[a] on the sample measure;
    nonnegative by Jensen, with psi/(lambda^2 |x|_1) expected bounded."""
    for lam in lambda_grid:
        if not (-lambda_max <= lam <= 0):
            raise ParameterError(
                f"lambda_grid must lie in [-{lambda_max}, 0] to control the "
                f"Monte Carlo variance of exp(lambda a)")
    rows = []
    for k, x in enumerate(x_grid):
        x = as_point(x)
        l1 = norms(x)[0]
        a = cost_samples(spec, x, samples, (derive_seed(seed, k),), box_factor)
        for lam in lambda_grid:
            lam = float(lam)
            psi = float(np.log(np.mean(np.exp(lam * a))) - lam * a.mean())
            ratio = psi / (lam * lam * l1) if lam != 0.0 else 0.0
            rows.append({"x": x, "lambda": lam, "psi": psi, "ratio": ratio,
                         "l1": l1})
    return {"rows": rows, "samples": samples,
            "psi_min": min(r["psi"] for r in rows),
            "ratio_max": max(r["ratio"] for r in rows)}


# ---------------------------------------------------------------------------
# Martingale-difference diagnostics

MARTINGALE_MAX_SITES = 49


@dataclass(eq=False)
class MartingaleDiagnostics:
    site_order: tuple
    delta_i_hat: np.ndarray
    u_i: np.ndarray
    u_sum: float
    c_fitted: float
    telescope_sum: float
    telescope_target: float  # a_hat(actual) - mean over fresh fields
    expected_range: float


def martingale_diagnostics(spec, x, nested_samples, seed, gamma=1.0,
                           region=None):
    """Doob-decomposition diagnostics for the truncated cost a_hat.

    Sites are revealed one at a time in lexicographic order; the increment
    of E[a_hat | first i sites] is estimated by nested Monte Carlo with a
    *shared* set of suffix resamplings, which makes the telescoping identity
    sum_i delta_i = a_hat(actual) - mean_fresh(a_hat) exact by construction.
    """
    x = as_point(x)
    d = len(x)
    if region is None:
        region = BoxRegion.centered(3, d) if d == 2 else BoxRegion.centered(1, d)
    if region.site_count > MARTINGALE_MAX_SITES:
        raise CapacityError(
            f"nested Monte Carlo limited to {MARTINGALE_MAX_SITES} sites, "
            f"got {region.site_count}")
    sites = region.sites()  # row-major = lexicographic
    M = len(sites)
    actual = sample_field(spec, region, derive_seed(seed, 0xAC7))
    fresh = sample_fields(lambda fld: fld, spec, region, (seed, 0xF4E), nested_samples)

    def cost_of(values):
        fld = PotentialField(region, values.reshape(region.shape), spec, 0)
        return origin_cost(fld.truncated(x, gamma), region, x)

    actual_flat = actual.values.ravel()
    e_hat = np.empty(M + 1)
    for i in range(M + 1):
        vals = np.empty(M)
        acc = 0.0
        for k in range(nested_samples):
            vals[:i] = actual_flat[:i]
            vals[i:] = fresh[k].values.ravel()[i:]
            acc += cost_of(vals.copy())
        e_hat[i] = acc / nested_samples
    delta = np.diff(e_hat)
    l1 = norms(x)[0]
    c_fitted = float(np.abs(delta).max() / math.log(l1)) if l1 >= 2 else float(
        np.abs(delta).max())
    wf = weighted_functionals(actual.truncated(x, gamma), region, x)
    q = np.asarray([wf.q_at(tuple(int(v) for v in z)) for z in sites])
    scale = c_fitted if c_fitted > 0 else 1.0
    u_i = scale * q
    return MartingaleDiagnostics(
        site_order=tuple(tuple(int(v) for v in z) for z in sites),
        delta_i_hat=delta,
        u_i=u_i,
        u_sum=float(u_i.sum()),
        c_fitted=c_fitted,
        telescope_sum=float(delta.sum()),
        telescope_target=float(e_hat[M] - e_hat[0]),
        expected_range=wf.expected_range,
    )


def write_perturbation_report(records, csv_path, json_path):
    write_csv(csv_path,
              tuple(f"y{i+1}" for i in range(len(records[0].y)))
              + ("omega_y", "sigma_y", "delta", "bound_q", "bound_site"),
              [tuple(r.y) + (r.omega_y, r.sigma_y, r.delta,
                             r.bound_q if math.isfinite(r.bound_q) else "inf",
                             r.bound_site if math.isfinite(r.bound_site) else "inf")
               for r in records])
    write_json(json_path, {
        "trials": len(records),
        "violations": sum(1 for r in records if r.violates()),
        "max_delta": max(r.delta for r in records),
    })
