"""Potential laws and configurations on a box: sampling, mutation,
validation.

Each kind of law is one entry of _LAWS: its parameters, their range check,
its inverse CDF and either its finite support (Constant, TwoPoint), over
which every moment, tail and hypothesis is a sum, or its closed forms. A
moment past the largest float is math.inf. Only LogNormal reads
scipy.special, which it imports on first use.
Fields are immutable after creation; mutating operations return copies.
Each site's value is a pure function of (seed, site coordinates), so the
same site has the same value regardless of traversal order. Many fields are
drawn in one hashing pass over their seeds, in stacks of at most
STACK_SITES sites.
"""

import json
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .lattice import BoxRegion, as_point, norms
from .rng import counter_uniform, counter_uniforms, derive_seed

# the sites of one stack of fields drawn in one hashing pass: 2^13, or 64 KB
# per array of its scratch (28 fields of 289 sites, 3 of 2401)
STACK_SITES = 2 ** 13


@dataclass(frozen=True)
class _Law:
    """One kind of law. Each function takes the parameters, in the order of
    params, after its own argument if it has one. A law gives support, its
    atoms [(value, prob), ...], when it has finite support, and its closed
    forms otherwise."""

    params: tuple  # the parameter names, in the order its factory takes them
    check: object  # the message of the first range check failed, else None
    sample: object  # (u, ...): the inverse CDF at uniforms u in (0, 1)
    support: object = None
    mean: object = None
    second_moment: object = None
    exp_neg_moment: object = None
    exp_moment: object = None  # (gamma, ...), gamma > 0; math.inf when divergent
    tail_prob: object = None  # (kappa, ...)
    essential_infimum: object = None
    a1_gamma: object = None  # a gamma > 0 with a finite exp_moment, else None


def _log_normal_exp_neg(mu, sigma):
    # trapezoid rule in the standard normal variable z on [-12, 12];
    # where exp(omega) overflows, exp(-exp(omega)) is 0
    z = np.linspace(-12.0, 12.0, 4801)
    with np.errstate(over="ignore"):
        f = np.exp(-np.exp(mu + sigma * z) - z * z / 2)
    return float(np.trapezoid(f, z)) / math.sqrt(2 * math.pi)


def _log_normal_sample(u, mu, sigma):
    from scipy.special import ndtri
    return np.exp(mu + sigma * ndtri(u))


def _log_normal_tail(k, mu, sigma):
    from scipy.special import ndtr
    return 1.0 if k <= 0 else float(ndtr((mu - math.log(k)) / sigma))


# The kinds of law, in the order of the tag save_field writes.
_LAWS = {
    "Constant": _Law(
        ("c",), lambda c: "constant value must be nonnegative" if c < 0 else None,
        sample=lambda u, c: np.full_like(u, c), support=lambda c: [(c, 1.0)]),
    "TwoPoint": _Law(
        ("v_lo", "v_hi", "p_hi"),
        lambda lo, hi, p: ("two-point law requires 0 <= v_lo <= v_hi" if not 0 <= lo <= hi
                           else "p_hi must lie in [0, 1]" if not 0 <= p <= 1 else None),
        sample=lambda u, lo, hi, p: np.where(u < p, hi, lo),
        support=lambda lo, hi, p: [(lo, 1.0)] if lo == hi else [(lo, 1.0 - p), (hi, p)]),
    "Exponential": _Law(
        ("rate",), lambda r: "rate must be positive" if r <= 0 else None,
        sample=lambda u, r: -np.log(u) / r,
        mean=lambda r: 1.0 / r, second_moment=lambda r: 2.0 / (r * r),
        exp_neg_moment=lambda r: r / (r + 1.0),
        exp_moment=lambda g, r: r / (r - g) if g < r else math.inf,
        tail_prob=lambda k, r: math.exp(-r * max(k, 0.0)),
        essential_infimum=lambda r: 0.0, a1_gamma=lambda r: r / 2.0),
    "ShiftedExponential": _Law(
        ("shift", "rate"),
        lambda s, r: "shift must be >= 0 and rate > 0" if s < 0 or r <= 0 else None,
        sample=lambda u, s, r: s - np.log(u) / r,
        mean=lambda s, r: s + 1.0 / r,
        second_moment=lambda s, r: s * s + 2 * s / r + 2.0 / (r * r),
        exp_neg_moment=lambda s, r: math.exp(-s) * r / (r + 1.0),
        exp_moment=lambda g, s, r: math.exp(g * s) * r / (r - g) if g < r else math.inf,
        tail_prob=lambda k, s, r: 1.0 if k <= s else math.exp(-r * (k - s)),
        essential_infimum=lambda s, r: s, a1_gamma=lambda s, r: r / 2.0),
    "LogNormal": _Law(
        ("mu", "sigma"), lambda mu, sigma: "sigma must be positive" if sigma <= 0 else None,
        sample=_log_normal_sample,
        mean=lambda mu, sigma: math.exp(mu + sigma ** 2 / 2),
        # 2 (mu + sigma^2), as 2 mu + 2 sigma^2 can be -inf + inf = nan
        second_moment=lambda mu, sigma: math.exp(2 * (mu + sigma ** 2)),
        exp_neg_moment=_log_normal_exp_neg,
        exp_moment=lambda g, mu, sigma: math.inf,
        tail_prob=_log_normal_tail,
        essential_infimum=lambda mu, sigma: 0.0, a1_gamma=lambda mu, sigma: None),
}
_KINDS = tuple(_LAWS)


@dataclass(frozen=True)
class DistributionSpec:
    """The common law of the i.i.d. site potentials (nonnegative)."""

    kind: str
    params: tuple  # ((name, value), ...)

    def __post_init__(self):
        """ParameterError unless the kind is a law's, params names its
        parameters in order and every value is finite and in its range."""
        law = _LAWS.get(self.kind)
        if law is None:
            raise ParameterError(f"unknown distribution kind {self.kind!r}")
        if tuple(name for name, _ in self.params) != law.params:
            raise ParameterError(f"{self.kind} takes the parameters {law.params}, "
                                 f"got {self.params!r}")
        if not all(map(math.isfinite, self._values())):
            raise ParameterError(f"{self.kind} parameters must be finite, got {self.params!r}")
        message = law.check(*self._values())
        if message:
            raise ParameterError(message)

    @classmethod
    def _checked(cls, kind, *args):
        """The law of the kind with these parameters, once they pass its
        range check; warns when the law is almost surely 0."""
        spec = cls(kind, tuple(zip(_LAWS[kind].params, map(float, args))))
        if spec.is_almost_surely_zero():
            warnings.warn("potential law is almost surely 0; travel costs degenerate")
        return spec

    @classmethod
    def constant(cls, c):
        return cls._checked("Constant", c)

    @classmethod
    def two_point(cls, v_lo, v_hi, p_hi):
        return cls._checked("TwoPoint", v_lo, v_hi, p_hi)

    @classmethod
    def exponential(cls, rate):
        return cls._checked("Exponential", rate)

    @classmethod
    def shifted_exponential(cls, shift, rate):
        return cls._checked("ShiftedExponential", shift, rate)

    @classmethod
    def log_normal(cls, mu, sigma):
        return cls._checked("LogNormal", mu, sigma)

    def _values(self):
        return tuple(v for _, v in self.params)

    def _form(self, closed, term, *x):
        """closed(*x, *parameters), the law's closed form at x; for a
        finite-support law, the sum of prob * term(value) over its atoms
        of positive probability instead (at most two terms, so the same
        bits as the two-term formula: 0 + t is exact and addition
        commutes). Each is in [0, inf]: see _at_most_inf."""
        support = self.finite_support()
        if support is None:
            return _at_most_inf(closed, *x, *self._values())
        return sum(q * _at_most_inf(term, v) for v, q in support if q > 0)

    def sample(self, u):
        """Map uniforms in (0,1) to potential values."""
        return _LAWS[self.kind].sample(np.asarray(u, dtype=float), *self._values())

    def finite_support(self):
        """[(value, prob), ...] when the law has finite support, else None."""
        support = _LAWS[self.kind].support
        return None if support is None else support(*self._values())

    def mean(self):
        return self._form(_LAWS[self.kind].mean, lambda v: v)

    def second_moment(self):
        return self._form(_LAWS[self.kind].second_moment, lambda v: v ** 2)

    def exp_neg_moment(self):
        """E[exp(-omega)]."""
        return self._form(_LAWS[self.kind].exp_neg_moment, lambda v: math.exp(-v))

    def exp_moment(self, gamma):
        """E[exp(gamma * omega)], math.inf when divergent."""
        if gamma <= 0:
            raise ParameterError("gamma must be positive")
        return self._form(_LAWS[self.kind].exp_moment, lambda v: math.exp(gamma * v), gamma)

    def tail_prob(self, kappa):
        """P(omega >= kappa)."""
        kappa = float(kappa)
        return self._form(_LAWS[self.kind].tail_prob, lambda v: v >= kappa, kappa)

    def essential_infimum(self):
        support = self.finite_support()
        if support is None:
            return _LAWS[self.kind].essential_infimum(*self._values())
        return min(v for v, q in support if q > 0)

    def is_almost_surely_zero(self):
        support = self.finite_support()
        return support is not None and all(v == 0 for v, q in support if q > 0)

    def to_json(self):
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_json(cls, obj):
        """The law of a spec as to_json writes it, {"kind": ..., "params":
        {name: number}}, in a config or beside a saved field. Any other
        shape, a kind's parameter missing or foreign, or one that is not a
        finite number (a bool is not one) raises ParameterError naming the
        key, such as spec.params.c."""
        if not isinstance(obj, dict) or not {"kind", "params"} <= set(obj):
            raise ParameterError("spec: must be an object with kind and params")
        kind, params = obj["kind"], obj["params"]
        if not isinstance(kind, str) or kind not in _LAWS:
            raise ParameterError(f"spec.kind: unknown distribution kind {kind!r}")
        if not isinstance(params, dict):
            raise ParameterError("spec.params: must be an object")
        names = _LAWS[kind].params
        wrong = ([f"spec.{k}: not a spec key" for k in sorted(set(obj) - {"kind", "params"})]
                 + [f"spec.params.{k}: missing from {kind}" for k in names if k not in params]
                 + [f"spec.params.{k}: not a parameter of {kind}"
                    for k in sorted(set(params) - set(names))]
                 + [f"spec.params.{k}: must be a finite number" for k in names
                    if k in params and not _finite_number(params[k])])
        if wrong:
            raise ParameterError("; ".join(wrong))
        if obj == ZERO_LAW.to_json():
            return ZERO_LAW  # a stored zero law, such as a chi witness's: no warning
        factory = {"Constant": cls.constant, "TwoPoint": cls.two_point,
                   "Exponential": cls.exponential, "ShiftedExponential": cls.shifted_exponential,
                   "LogNormal": cls.log_normal}[kind]
        return factory(*[params[k] for k in names])


def _at_most_inf(f, *args):
    """f(*args), a closed form of a nonnegative quantity, with math.inf
    where Python raises on its way past the largest float: math.exp and **
    raise OverflowError, and a denominator that underflows to 0 raises
    ZeroDivisionError. The forms are written so that either means the
    value itself overflows: a power that overflows in a denominator
    (r ** 2 in 2 / r ** 2) is a product there, which overflows to inf."""
    try:
        return f(*args)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _finite_number(v):
    """Whether a JSON value is a finite number: an int or a float, not a bool."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond every float
        return False


@dataclass(frozen=True)
class AssumptionReport:
    """Analytic classification of a law against the moment hypotheses.

    a1_gamma: a positive gamma with E[exp(gamma*omega)] finite (math.inf if
    every gamma works, None if none does). a2_ok: E[omega^2] finite.
    a3_ok: essential infimum strictly positive.
    """

    a1_gamma: object
    a2_ok: bool
    a3_ok: bool

    def a1_ok(self):
        return self.a1_gamma is not None


def assumption_report(spec: DistributionSpec) -> AssumptionReport:
    # a bounded support has every exponential moment
    a1 = (math.inf if spec.finite_support() is not None
          else _LAWS[spec.kind].a1_gamma(*spec._values()))
    return AssumptionReport(a1_gamma=a1, a2_ok=math.isfinite(spec.second_moment()),
                            a3_ok=spec.essential_infimum() > 0)


# The law of the zero potential, for fields that are zero on purpose (pure
# exit and return probabilities); built directly, so it does not warn.
ZERO_LAW = DistributionSpec("Constant", (("c", 0.0),))


# ---------------------------------------------------------------------------
# Fields


@dataclass(frozen=True, eq=False)
class PotentialField:
    """A realization omega restricted to a box, with its generating law and seed."""

    region: BoxRegion
    values: np.ndarray  # shape region.shape, row-major
    spec: DistributionSpec
    seed: int
    meta: tuple = ()

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.region.shape:
            raise ParameterError("values shape does not match region")
        if np.any(v < 0):
            raise ParameterError("potential values must be nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dimension(self):
        return self.region.dimension

    def value_at(self, p):
        p = as_point(p)
        if not self.region.contains(p):
            raise DomainError(f"site {p} outside field region")
        return float(self.values[tuple(c - l for c, l in zip(p, self.region.lo))])

    def values_at(self, sites):
        """Vectorized lookup for an (n, d) array of sites inside the region."""
        sites = np.asarray(sites, dtype=np.int64)
        rel = sites - np.asarray(self.region.lo, dtype=np.int64)
        shape = self.region.shape
        if np.any(rel < 0) or np.any(rel >= np.asarray(shape)):
            raise DomainError("some sites lie outside the field region")
        return self.values.ravel()[np.ravel_multi_index(rel.T, shape)]

    def with_value(self, y, v):
        """Copy of the field differing only at site y (rank-one perturbation input)."""
        y = as_point(y)
        if not self.region.contains(y):
            raise DomainError(f"site {y} outside field region")
        if v < 0:
            raise ParameterError("potential values must be nonnegative")
        new = self.values.copy()
        new[tuple(c - l for c, l in zip(y, self.region.lo))] = float(v)
        return PotentialField(self.region, new, self.spec, self.seed,
                              self.meta + (("set_site", y, float(v)),))

    def truncated(self, x, gamma):
        """Values capped at (4d/gamma) * log |x|_1 (the hat-potential)."""
        l1 = norms(x)[0]
        if l1 < 2:
            raise DomainError("truncation requires |x|_1 >= 2")
        if gamma <= 0:
            raise ParameterError("gamma must be positive")
        cap = (4.0 * self.dimension / gamma) * math.log(l1)
        return PotentialField(self.region, np.minimum(self.values, cap), self.spec,
                              self.seed, self.meta + (("truncate_cap", cap),))

    def is_occupied(self, kappa, sub_lo=None, sub_hi=None):
        """Whether some site (optionally within [sub_lo, sub_hi)) has omega >= kappa."""
        if sub_lo is None:
            return bool(np.any(self.values >= kappa))
        lo = np.asarray(self.region.lo)
        sl = tuple(slice(int(a - l), int(b - l)) for a, b, l in zip(sub_lo, sub_hi, lo))
        return bool(np.any(self.values[sl] >= kappa))


def _fields(spec, region, seeds):
    """The i.i.d. fields of the seeds on the region, from one hashing pass:
    counter-based, order independent."""
    u = counter_uniforms(seeds, region.sites())
    values = spec.sample(u).reshape((len(seeds),) + region.shape)
    return [PotentialField(region, v, spec, int(s)) for s, v in zip(seeds, values)]


def sample_field(spec, region, seed):
    """Draw an i.i.d. field on the region: the one-seed stack of _fields."""
    return _fields(spec, region, [seed])[0]


def seed_stacks(key, samples, sites):
    """derive_seed(*key, i) for i < samples, in lists of at most
    STACK_SITES // sites seeds (one at least): the seeds of one hashing pass
    over that many sites each."""
    per = max(1, STACK_SITES // sites)
    for j in range(0, samples, per):
        yield [derive_seed(*key, i) for i in range(j, min(samples, j + per))]


def sample_fields(fn, spec, region, key, samples):
    """[fn(field_i) for i in range(samples)], field_i seeded by
    derive_seed(*key, i), the key convention of sample_field_where.

    The sampling kernel of the Monte Carlo experiments: each result depends
    on its key and index alone. The fields are drawn by seed_stacks, a stack
    in one pass, and fn runs on each field of a stack in turn.
    """
    return [fn(fld) for seeds in seed_stacks(key, samples, region.site_count)
            for fld in _fields(spec, region, seeds)]


def sample_field_where(accept, spec, region, key, limit):
    """The first field seeded by derive_seed(*key, attempt), attempt = 0, 1,
    ..., limit, that accept admits (rejection sampling of a conditioned
    field); DomainError when none is admitted."""
    for attempt in range(limit + 1):
        field = sample_field(spec, region, derive_seed(*key, attempt))
        if accept(field):
            return field
    raise DomainError(
        f"no admissible field in {limit + 1} draws; the conditioning event "
        f"is too rare for this law")


def fresh_site_value(spec, seed, site, tag):
    """An independent draw for one site, keyed by (seed, site, tag)."""
    counters = list(as_point(site)) + [int(tag), 0x5EED]
    u = counter_uniform(seed, np.asarray(counters, dtype=np.int64))
    return float(spec.sample(np.asarray([u]))[0])


# ---------------------------------------------------------------------------
# Serialization: flat binary layout + JSON sidecar, bit-exact round trip.

_MAGIC = b"RWPF"
_FORMAT_VERSION = 1


def save_field(field, path):
    path = str(path)
    d = field.dimension
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _FORMAT_VERSION, d))
        fh.write(struct.pack(f"<{d}q", *field.region.lo))
        fh.write(struct.pack(f"<{d}q", *field.region.hi))
        fh.write(struct.pack("<Q", field.seed % (1 << 64)))
        fh.write(struct.pack("<I", _KINDS.index(field.spec.kind)))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())
    sidecar = {
        "spec": field.spec.to_json(),
        "seed": field.seed,
        "meta": [list(m) for m in field.meta],
        "format_version": _FORMAT_VERSION,
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=1,
                  default=lambda o: o.item() if hasattr(o, "item") else str(o))
        fh.write("\n")


def load_field(path):
    path = str(path)
    with open(path + ".json") as fh:
        sidecar = json.load(fh)
    spec = DistributionSpec.from_json(sidecar["spec"])
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ParameterError("not a field file")
        version, d = struct.unpack("<II", fh.read(8))
        if version != _FORMAT_VERSION:
            raise ParameterError(f"unsupported field format version {version}")
        lo = struct.unpack(f"<{d}q", fh.read(8 * d))
        hi = struct.unpack(f"<{d}q", fh.read(8 * d))
        seed = struct.unpack("<Q", fh.read(8))[0]
        fh.read(4)  # spec tag; the sidecar is authoritative
        region = BoxRegion(lo, hi)
        values = np.frombuffer(fh.read(), dtype="<f8").reshape(region.shape)
    meta = tuple(tuple(m) for m in sidecar.get("meta", []))
    return PotentialField(region, values.copy(), spec, int(seed), meta)
