"""Potential configurations on a box: sampling, mutation, validation.

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
from scipy.special import ndtr, ndtri

from .errors import DomainError, ParameterError
from .lattice import BoxRegion, as_point, norms
from .rng import counter_uniform, counter_uniforms, derive_seed

# the parameters of each kind of law, in the order its factory takes them
_PARAMS = {"Constant": ("c",), "TwoPoint": ("v_lo", "v_hi", "p_hi"), "Exponential": ("rate",),
           "ShiftedExponential": ("shift", "rate"), "LogNormal": ("mu", "sigma")}
_KINDS = tuple(_PARAMS)
# the sites of one stack of fields drawn in one hashing pass: 2^13, or 64 KB
# per array of its scratch (28 fields of 289 sites, 3 of 2401)
STACK_SITES = 2 ** 13


@dataclass(frozen=True)
class DistributionSpec:
    """The common law of the i.i.d. site potentials (nonnegative)."""

    kind: str
    params: tuple  # ((name, value), ...)

    def param(self, name):
        return dict(self.params)[name]

    @classmethod
    def constant(cls, c):
        if c < 0:
            raise ParameterError("constant value must be nonnegative")
        spec = cls("Constant", (("c", float(c)),))
        spec._warn_if_trivial()
        return spec

    @classmethod
    def two_point(cls, v_lo, v_hi, p_hi):
        if not (0 <= v_lo <= v_hi):
            raise ParameterError("two-point law requires 0 <= v_lo <= v_hi")
        if not (0 <= p_hi <= 1):
            raise ParameterError("p_hi must lie in [0, 1]")
        spec = cls("TwoPoint", (("v_lo", float(v_lo)), ("v_hi", float(v_hi)), ("p_hi", float(p_hi))))
        spec._warn_if_trivial()
        return spec

    @classmethod
    def exponential(cls, rate):
        if rate <= 0:
            raise ParameterError("rate must be positive")
        return cls("Exponential", (("rate", float(rate)),))

    @classmethod
    def shifted_exponential(cls, shift, rate):
        if shift < 0 or rate <= 0:
            raise ParameterError("shift must be >= 0 and rate > 0")
        return cls("ShiftedExponential", (("shift", float(shift)), ("rate", float(rate))))

    @classmethod
    def log_normal(cls, mu, sigma):
        if sigma <= 0:
            raise ParameterError("sigma must be positive")
        return cls("LogNormal", (("mu", float(mu)), ("sigma", float(sigma))))

    def _warn_if_trivial(self):
        if self.is_almost_surely_zero():
            warnings.warn("potential law is almost surely 0; travel costs degenerate")

    def is_almost_surely_zero(self):
        if self.kind == "Constant":
            return self.param("c") == 0.0
        if self.kind == "TwoPoint":
            lo, hi, p = self.param("v_lo"), self.param("v_hi"), self.param("p_hi")
            return (hi == 0.0) or (lo == 0.0 and p == 0.0) or (hi == lo == 0.0)
        return False

    # -- inverse-CDF sampling ------------------------------------------------

    def sample(self, u):
        """Map uniforms in (0,1) to potential values."""
        u = np.asarray(u, dtype=float)
        k = self.kind
        if k == "Constant":
            return np.full_like(u, self.param("c"))
        if k == "TwoPoint":
            return np.where(u < self.param("p_hi"), self.param("v_hi"), self.param("v_lo"))
        if k == "Exponential":
            return -np.log(u) / self.param("rate")
        if k == "ShiftedExponential":
            return self.param("shift") - np.log(u) / self.param("rate")
        if k == "LogNormal":
            return np.exp(self.param("mu") + self.param("sigma") * ndtri(u))
        raise ParameterError(f"unknown distribution kind {k!r}")

    # -- closed-form moments ---------------------------------------------------

    def mean(self):
        k = self.kind
        if k == "Constant":
            return self.param("c")
        if k == "TwoPoint":
            p = self.param("p_hi")
            return p * self.param("v_hi") + (1 - p) * self.param("v_lo")
        if k == "Exponential":
            return 1.0 / self.param("rate")
        if k == "ShiftedExponential":
            return self.param("shift") + 1.0 / self.param("rate")
        if k == "LogNormal":
            return math.exp(self.param("mu") + self.param("sigma") ** 2 / 2)
        raise ParameterError(k)

    def second_moment(self):
        k = self.kind
        if k == "Constant":
            return self.param("c") ** 2
        if k == "TwoPoint":
            p = self.param("p_hi")
            return p * self.param("v_hi") ** 2 + (1 - p) * self.param("v_lo") ** 2
        if k == "Exponential":
            return 2.0 / self.param("rate") ** 2
        if k == "ShiftedExponential":
            s, r = self.param("shift"), self.param("rate")
            return s * s + 2 * s / r + 2.0 / (r * r)
        if k == "LogNormal":
            return math.exp(2 * self.param("mu") + 2 * self.param("sigma") ** 2)
        raise ParameterError(k)

    def exp_neg_moment(self):
        """E[exp(-omega)]."""
        k = self.kind
        if k == "Constant":
            return math.exp(-self.param("c"))
        if k == "TwoPoint":
            p = self.param("p_hi")
            return p * math.exp(-self.param("v_hi")) + (1 - p) * math.exp(-self.param("v_lo"))
        if k == "Exponential":
            r = self.param("rate")
            return r / (r + 1.0)
        if k == "ShiftedExponential":
            s, r = self.param("shift"), self.param("rate")
            return math.exp(-s) * r / (r + 1.0)
        if k == "LogNormal":
            # trapezoid rule in the standard normal variable z on [-12, 12];
            # where exp(omega) overflows, exp(-exp(omega)) is 0
            z = np.linspace(-12.0, 12.0, 4801)
            with np.errstate(over="ignore"):
                f = np.exp(-np.exp(self.param("mu") + self.param("sigma") * z) - z * z / 2)
            return float(np.trapezoid(f, z)) / math.sqrt(2 * math.pi)
        raise ParameterError(k)

    def exp_moment(self, gamma):
        """E[exp(gamma * omega)], math.inf when divergent."""
        k = self.kind
        if gamma <= 0:
            raise ParameterError("gamma must be positive")
        if k == "Constant":
            return math.exp(gamma * self.param("c"))
        if k == "TwoPoint":
            p = self.param("p_hi")
            return p * math.exp(gamma * self.param("v_hi")) + (1 - p) * math.exp(gamma * self.param("v_lo"))
        if k == "Exponential":
            r = self.param("rate")
            return r / (r - gamma) if gamma < r else math.inf
        if k == "ShiftedExponential":
            s, r = self.param("shift"), self.param("rate")
            return math.exp(gamma * s) * r / (r - gamma) if gamma < r else math.inf
        if k == "LogNormal":
            return math.inf
        raise ParameterError(k)

    def tail_prob(self, kappa):
        """P(omega >= kappa)."""
        k = self.kind
        kappa = float(kappa)
        if k == "Constant":
            return 1.0 if self.param("c") >= kappa else 0.0
        if k == "TwoPoint":
            lo, hi, p = self.param("v_lo"), self.param("v_hi"), self.param("p_hi")
            return (1.0 if lo >= kappa else 0.0) * (1 - p) + (1.0 if hi >= kappa else 0.0) * p
        if k == "Exponential":
            return math.exp(-self.param("rate") * max(kappa, 0.0))
        if k == "ShiftedExponential":
            s, r = self.param("shift"), self.param("rate")
            return 1.0 if kappa <= s else math.exp(-r * (kappa - s))
        if k == "LogNormal":
            if kappa <= 0:
                return 1.0
            return float(ndtr((self.param("mu") - math.log(kappa)) / self.param("sigma")))
        raise ParameterError(k)

    def essential_infimum(self):
        k = self.kind
        if k == "Constant":
            return self.param("c")
        if k == "TwoPoint":
            return self.param("v_lo") if self.param("p_hi") < 1 else self.param("v_hi")
        if k == "Exponential":
            return 0.0
        if k == "ShiftedExponential":
            return self.param("shift")
        if k == "LogNormal":
            return 0.0
        raise ParameterError(k)

    def finite_support(self):
        """[(value, prob), ...] when the law has finite support, else None."""
        if self.kind == "Constant":
            return [(self.param("c"), 1.0)]
        if self.kind == "TwoPoint":
            lo, hi, p = self.param("v_lo"), self.param("v_hi"), self.param("p_hi")
            if lo == hi:
                return [(lo, 1.0)]
            return [(lo, 1.0 - p), (hi, p)]
        return None

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
        if not isinstance(kind, str) or kind not in _PARAMS:
            raise ParameterError(f"spec.kind: unknown distribution kind {kind!r}")
        if not isinstance(params, dict):
            raise ParameterError("spec.params: must be an object")
        names = _PARAMS[kind]
        wrong = ([f"spec.{k}: not a spec key" for k in sorted(set(obj) - {"kind", "params"})]
                 + [f"spec.params.{k}: missing from {kind}" for k in names if k not in params]
                 + [f"spec.params.{k}: not a parameter of {kind}"
                    for k in sorted(set(params) - set(names))]
                 + [f"spec.params.{k}: must be a finite number" for k in names
                    if k in params and not _finite_number(params[k])])
        if wrong:
            raise ParameterError("; ".join(wrong))
        args = [params[k] for k in names]
        if kind == "Constant" and args[0] == 0:
            return ZERO_LAW  # a stored zero law, such as a chi witness's: no warning
        factory = {"Constant": cls.constant, "TwoPoint": cls.two_point,
                   "Exponential": cls.exponential, "ShiftedExponential": cls.shifted_exponential,
                   "LogNormal": cls.log_normal}[kind]
        return factory(*args)


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
    moments: dict

    def a1_ok(self):
        return self.a1_gamma is not None


def assumption_report(spec: DistributionSpec) -> AssumptionReport:
    k = spec.kind
    if k in ("Constant", "TwoPoint"):
        a1 = math.inf  # bounded support
    elif k in ("Exponential", "ShiftedExponential"):
        a1 = spec.param("rate") / 2.0  # any gamma < rate works; report a witness
    elif k == "LogNormal":
        a1 = None
    else:
        raise ParameterError(k)
    exp_neg = spec.exp_neg_moment()
    return AssumptionReport(
        a1_gamma=a1,
        a2_ok=True,  # all offered laws have finite second moment
        a3_ok=spec.essential_infimum() > 0,
        moments={
            "mean": spec.mean(),
            "second_moment": spec.second_moment(),
            "exp_neg": exp_neg,
            "minus_log_exp_neg": -math.log(exp_neg),
        },
    )


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
