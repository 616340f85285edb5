"""Exact killed-walk functionals on finite site sets via substochastic
linear systems.

The walk pays exp(-omega) at every departure site and is killed on leaving
the region (or on a taboo site). All quantities here reduce to solves with
the matrix I - P, where P[z, z'] = exp(-omega(z))/(2d) for lattice neighbors
z, z' inside the active set; P is a substochastic M-matrix on any finite box,
so the systems are nonsingular. Every system is assembled by one operator,
_KilledWalk, and solved with its sparse LU factorization (SuperLU); only the
zero-potential return probability is solved by conjugate gradients.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg, splu

from .errors import DegenerateWeightError, DomainError, SolverError
from .lattice import BoxRegion, as_point, block_sites, norms
from .potential import ZERO_LAW, PotentialField

RESIDUAL_TOL = 1e-9


class SiteSet:
    """Explicit set of lattice sites with O(1) vectorized index lookup."""

    def __init__(self, sites):
        sites = np.asarray(sites, dtype=np.int64)
        if sites.ndim != 2 or len(sites) == 0:
            raise DomainError("site set must be a nonempty (n, d) array")
        self.sites = sites
        self.d = sites.shape[1]
        self.lo = sites.min(axis=0)
        self.shape = tuple(sites.max(axis=0) - self.lo + 1)
        flat = np.full(int(np.prod(self.shape)), -1, dtype=np.int64)
        keys = np.ravel_multi_index((sites - self.lo).T, self.shape)
        if len(np.unique(keys)) != len(sites):
            raise DomainError("duplicate sites in region")
        flat[keys] = np.arange(len(sites))
        self._flat = flat

    def __len__(self):
        return len(self.sites)

    def index(self, points):
        """Indices of points in the set, -1 where absent. points: (m, d)."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.int64))
        rel = pts - self.lo
        ok = np.all((rel >= 0) & (rel < np.asarray(self.shape)), axis=1)
        out = np.full(len(pts), -1, dtype=np.int64)
        if ok.any():
            keys = np.ravel_multi_index(rel[ok].T, self.shape)
            out[ok] = self._flat[keys]
        return out

    def index_one(self, p):
        return int(self.index(np.asarray(p, dtype=np.int64)[None, :])[0])


def region_sites(region):
    """Canonicalize a region (BoxRegion or explicit site array) to (n, d)."""
    if isinstance(region, BoxRegion):
        return region.sites()
    return np.asarray(region, dtype=np.int64)


def bounding_box(region):
    """The smallest BoxRegion containing every site of the region."""
    sites = region_sites(region)
    lo = tuple(int(v) for v in sites.min(axis=0))
    hi = tuple(int(v) + 1 for v in sites.max(axis=0))
    return BoxRegion(lo, hi)


def _clip_unit(v):
    """v clipped to [0, 1]. Rounding may leave a probability or weight just
    outside; a value further out than RESIDUAL_TOL (or NaN) means a wrong
    solve, and raises SolverError instead of being clipped away."""
    v = np.asarray(v, dtype=float)
    inside = (v >= -RESIDUAL_TOL) & (v <= 1.0 + RESIDUAL_TOL)
    if not np.all(inside):
        raise SolverError(f"value {v[~inside][0]:.3e} lies outside [0, 1] "
                          f"beyond tolerance {RESIDUAL_TOL:.0e}")
    return np.clip(v, 0.0, 1.0)


def _axis_shifts(d):
    shifts = []
    for axis in range(d):
        for sign in (1, -1):
            v = np.zeros(d, dtype=np.int64)
            v[axis] = sign
            shifts.append(v)
    return shifts


def transition_matrix(ss: SiteSet, omega):
    """(P, outside_count): substochastic step matrix and per-site count of
    neighbors falling outside the active set."""
    n = len(ss)
    w = np.exp(-np.asarray(omega, dtype=float)) / (2.0 * ss.d)
    rows, cols = [], []
    outside = np.zeros(n, dtype=np.int64)
    for shift in _axis_shifts(ss.d):
        j = ss.index(ss.sites + shift)
        hit = j >= 0
        rows.append(np.nonzero(hit)[0])
        cols.append(j[hit])
        outside += ~hit
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    P = sp.csr_matrix((w[rows], (rows, cols)), shape=(n, n))
    return P, outside


class _KilledWalk:
    """The killed-walk operator A = I - P on the sites of a region, less the
    kill site when one is given: the walk dies on exit and on the kill site.

    gauge, when given, is a log-scale g per site: P is conjugated to
    P[z, z'] e^{g(z) - g(z')} and the right-hand sides are scaled by e^{g(z)},
    so every solution comes out multiplied by e^{g}. The gauge is taken as 0
    on the kill site and outside the region. A is factored once, on first use.
    """

    def __init__(self, field, region, kill=None, gauge=None):
        sites = region_sites(region)
        if kill is not None:
            kill = as_point(kill)
            keep = ~np.all(sites == np.asarray(kill, dtype=np.int64), axis=1)
            if keep.all():
                raise DomainError(f"kill site {kill} not in region")
            sites = sites[keep]
        self.kill = kill
        self.gauge = gauge
        self.ss = SiteSet(sites)
        self.omega = field.values_at(self.ss.sites)
        P, self.outside = transition_matrix(self.ss, self.omega)
        if gauge is not None:
            P = P.tocoo()
            P.data *= np.exp(gauge[P.row] - gauge[P.col])
        self.A = sp.identity(len(self.ss), format="csc") - P.tocsc()
        self.residual = 0.0
        # factored on first use by a plain check: functools' cached property
        # takes one lock per class on Python 3.11, which would serialize the
        # factorizations of parallel_map's threads
        self._lu = None

    def _factor(self):
        if self._lu is None:
            self._lu = splu(self.A)
        return self._lu

    def solve(self, b, trans="N"):
        """A^{-1} b, or A^{-T} b for trans="T", with its residual checked."""
        return self.check(self._factor().solve(b, trans=trans), b, trans)

    def check(self, x, b, trans="N"):
        """Return x after raising SolverError if the residual of A x = b
        (A^T x = b for trans="T") exceeds RESIDUAL_TOL; record the worst."""
        A = self.A.T if trans == "T" else self.A
        resid = float(np.abs(A @ x - b).max(initial=0.0))
        if resid > RESIDUAL_TOL * max(1.0, float(np.abs(b).max(initial=0.0))):
            raise SolverError(f"residual {resid:.3e} exceeds tolerance {RESIDUAL_TOL:.0e}")
        self.residual = max(self.residual, resid)
        return x

    def kill_vector(self):
        """P[z, kill]: with it, solve gives e(z, kill), the weight of hitting
        the kill site before exiting."""
        b = np.zeros(len(self.ss))
        j = self.ss.index(np.asarray(self.kill) + np.array(_axis_shifts(self.ss.d)))
        j = j[j >= 0]
        b[j] = self._step_weight(j)
        return b

    def exit_vector(self):
        """The weight of stepping off the active sites: with it, solve gives
        the weight of exiting (the kill site counts as outside)."""
        return self._step_weight(slice(None)) * self.outside

    def _step_weight(self, ids):
        """exp(-omega(z))/(2d) at the given sites, in the gauge's frame."""
        log_w = -self.omega[ids]
        if self.gauge is not None:
            log_w = log_w + self.gauge[ids]
        return np.exp(log_w) / (2.0 * self.ss.d)

    def row(self, p):
        """G(p, .) for all active sites."""
        e = np.zeros(len(self.ss))
        e[self._idx(p)] = 1.0
        return self.solve(e, trans="T")

    def column(self, p):
        """G(., p) for all active sites."""
        e = np.zeros(len(self.ss))
        e[self._idx(p)] = 1.0
        return self.solve(e)

    def diagonal(self, ids=None):
        """G(y, y) for the given site indices (all active sites by default).
        Unchecked: an n x n residual would cost as much memory as the solve."""
        lu = self._factor()
        n = len(self.ss)
        ids = np.arange(n) if ids is None else np.asarray(ids)
        if len(ids) > 1 and n <= 5000:
            cols = lu.solve(np.eye(n)[:, ids])
            return cols[ids, np.arange(len(ids))]
        out = np.empty(len(ids))
        e = np.zeros(n)
        for k, i in enumerate(ids):
            e[i] = 1.0
            out[k] = lu.solve(e)[i]
            e[i] = 0.0
        return out

    def _idx(self, p):
        i = self.ss.index_one(as_point(p))
        if i < 0:
            raise DomainError(f"site {tuple(p)} not active in Green system")
        return i


@dataclass(eq=False)
class SolveResult:
    """Travel-weight vector e_V(z, target) for every site z of the region."""

    target: tuple
    taboo: frozenset
    siteset: SiteSet
    e_values: np.ndarray
    log_e: np.ndarray
    residual: float
    method: str

    def e_at(self, p):
        i = self.siteset.index_one(as_point(p))
        if i < 0:
            raise DomainError(f"site {tuple(p)} not in solved region")
        return float(self.e_values[i])

    def cost_at(self, p):
        """a_V(p, target) = -log e_V(p, target)."""
        i = self.siteset.index_one(as_point(p))
        if i < 0:
            raise DomainError(f"site {tuple(p)} not in solved region")
        le = self.log_e[i]
        if not np.isfinite(le):
            raise DegenerateWeightError(
                f"travel weight underflowed at {tuple(p)}; no rescaled value available"
            )
        return float(-le)

    def iter_rows(self):
        for z, e in zip(self.siteset.sites, self.e_values):
            yield tuple(int(c) for c in z), float(e)


def travel_weight(field, region, source, target, taboo=()):
    """Solve for e_V(z, target) on the region, killed on exit and on taboo sites.

    Potential is paid at departure sites k = 0, ..., H-1 (source included,
    target excluded). Returns the full vector so e_V(z, target) is available
    for every z from one solve. When the weight underflows in double
    precision the solve is repeated with an exponential rescaling so that
    costs stay available in log space.
    """
    source = as_point(source)
    target = as_point(target)
    taboo = frozenset(as_point(t) for t in taboo)
    if target in taboo:
        raise DomainError("target may not be taboo")
    if source in taboo:
        raise DomainError("source may not be taboo")
    sites = region_sites(region)
    if taboo:
        keep = np.array([tuple(z) not in taboo for z in sites])
        sites = sites[keep]
    ss = SiteSet(sites)
    it = ss.index_one(target)
    if it < 0:
        raise DomainError(f"target {target} not in region")
    isrc = ss.index_one(source)
    if isrc < 0:
        raise DomainError(f"source {source} not in region")

    # the operator's sites are ss without the target, in the same order
    kw = _KilledWalk(field, sites, kill=target)
    u = kw.solve(kw.kill_vector())
    e_values = np.insert(_clip_unit(u), it, 1.0)
    with np.errstate(divide="ignore"):
        log_e = np.log(e_values)

    if e_values[isrc] <= 0.0:
        # Underflow: solve again conjugated by exp(c * l1-distance to the
        # target), where the solution stays representable, and fill log_e
        # where the plain solve underflowed.
        c = math.log(2.0 * ss.d) + float(np.mean(kw.omega))
        gauge = c * np.abs(kw.ss.sites - np.asarray(target)).sum(axis=1)
        gw = _KilledWalk(field, sites, kill=target, gauge=gauge)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_w = np.insert(np.log(gw.solve(gw.kill_vector())) - gauge, it, 0.0)
        fill = ~np.isfinite(log_e) & np.isfinite(log_w)
        log_e[fill] = log_w[fill]
    return SolveResult(target, taboo, ss, e_values, log_e, kw.residual, "SuperLU")


def block_cost(field, xi, m, n, N):
    """Restricted cost between m*xi and n*xi inside the rotated block of
    half-width N around the segment. Subadditive in (m, n) on a common field."""
    xi = np.asarray(xi, dtype=np.int64)
    sites = block_sites(xi, m, n, N)
    ss_probe = SiteSet(sites)
    src = tuple(int(v) for v in m * xi)
    tgt = tuple(int(v) for v in n * xi)
    if ss_probe.index_one(src) < 0 or ss_probe.index_one(tgt) < 0:
        raise DomainError("block endpoints fall outside the rasterized block")
    res = travel_weight(field, sites, src, tgt)
    return res.cost_at(src)


def exit_functional(field, region, start, crossing=("exit",)):
    """E^start[exp(-sum_{k<tau} omega(S_k))] with tau the exit time of the
    region ("exit") or the first l-infinity crossing at radius r
    (("linf", r), relative to start). Value in (0, 1]."""
    start = as_point(start)
    sites = region_sites(region)
    ss_all = SiteSet(sites)
    if ss_all.index_one(start) < 0:
        raise DomainError("start not in region")
    if crossing[0] == "exit":
        active = sites
    elif crossing[0] == "linf":
        r = float(crossing[1])
        off = np.abs(sites - np.asarray(start, dtype=np.int64)).max(axis=1)
        active = sites[off < r]
        # every lattice site strictly inside the shell must carry a potential
        k = int(math.ceil(r)) - 1
        if len(active) != (2 * k + 1) ** ss_all.d:
            raise DomainError("crossing shell exits the region; enlarge the field")
    else:
        raise DomainError(f"unknown crossing {crossing!r}")
    kw = _KilledWalk(field, active)
    v = kw.solve(kw.exit_vector())
    return float(_clip_unit(v[kw.ss.index_one(start)]))


def return_probability(d, region):
    """Probability the zero-potential walk returns to 0 before exiting the
    region. Monotone increasing in the region; the d >= 3 limit is the
    classical transient return probability."""
    kw = _KilledWalk(zero_field(d, region), region, kill=(0,) * d)
    b = kw.kill_vector()
    # CG, not the operator's LU: A is symmetric positive definite at zero
    # potential, and on the 35 937-site box of pinned_return_probability splu
    # took 13.1 s and 625 MB against 0.9 s and 116 MB for CG.
    u, info = cg(kw.A, b, rtol=1e-12, atol=0.0, maxiter=10_000)
    if info != 0:
        raise SolverError(f"CG failed with info={info}")
    kw.check(u, b)
    # P is symmetric here, so b also holds the steps P[0, z] out of the origin
    return float(b @ u)


# ---------------------------------------------------------------------------
# Green-function machinery for taboo weights and the weighted measure Q.


@dataclass(eq=False)
class WeightedFunctionals:
    """Visit probabilities under the weighted path measure tilted by
    exp(-sum omega) and conditioned on hitting x before exiting."""

    x: tuple
    siteset: SiteSet  # active sites (x excluded)
    q_visit: np.ndarray
    expected_range: float

    def q_at(self, y):
        y = as_point(y)
        if y == self.x:
            return 0.0
        i = self.siteset.index_one(y)
        if i < 0:
            raise DomainError(f"site {y} not in region")
        return float(self.q_visit[i])


def _tilted_walk(field, region, x):
    """(operator killed at x, index of the origin, e_V(., x), G(0, .)): the
    pieces of q(y) = G(0, y) / G(y, y) * e_V(y, x) / e_V(0, x)."""
    origin = (0,) * len(x)
    if x == origin:
        raise DomainError("x must differ from the origin")
    kw = _KilledWalk(field, region, kill=x)
    i0 = kw.ss.index_one(origin)
    if i0 < 0:
        raise DomainError("origin not in region")
    u = kw.solve(kw.kill_vector())  # e_V(z, x) for z != x
    if u[i0] <= 0.0:
        raise DegenerateWeightError("e_V(0, x) underflowed; weighted measure undefined")
    return kw, i0, u, kw.row(origin)


def weighted_functionals(field, region, x):
    """Full visit-probability vector q(y) = Q(H(y) < H(x)) and the expected
    range of the weighted walk, E_Q[#A] = sum_y q(y)."""
    x = as_point(x)
    kw, i0, u, g = _tilted_walk(field, region, x)
    q = (g / kw.diagonal()) * u / u[i0]
    q[i0] = 1.0
    q = _clip_unit(q)
    return WeightedFunctionals(x, kw.ss, q, float(q.sum()))


def visit_probabilities(field, region, x, ys):
    """q(y) = Q(H(y) < H(x)) for selected sites y only (cheaper than the
    full diagonal when just a few sites matter)."""
    x = as_point(x)
    kw, i0, u, g = _tilted_walk(field, region, x)
    out = {}
    for y in ys:
        y = as_point(y)
        if y == x:
            out[y] = 0.0
            continue
        iy = kw.ss.index_one(y)
        if iy < 0:
            raise DomainError(f"site {y} not in region")
        if iy == i0:
            out[y] = 1.0
            continue
        gyy = kw.diagonal([iy])[0]
        out[y] = float(_clip_unit(g[iy] / gyy * u[iy] / u[i0]))
    return out


def maximal_distance(field, region, x, eta):
    """sup over the l1-ball {y : |x-y|_1 < eta*|x|_1} of
    max(a_V(x, y), a_V(y, x)), via one factorization plus per-target
    diagonal solves."""
    x = as_point(x)
    l1x = norms(x)[0]
    kw = _KilledWalk(field, region)
    ix = kw.ss.index_one(x)
    if ix < 0:
        raise DomainError("x not in region")
    radius = eta * l1x
    off = np.abs(kw.ss.sites - np.asarray(x, dtype=np.int64)).sum(axis=1)
    ball = np.nonzero(off < radius)[0]
    # the whole lattice ball must be present in the region
    expected = _l1_ball_count(kw.ss.d, radius)
    if len(ball) != expected:
        raise DomainError("l1 ball around x exits the region")
    row_x = kw.row(x)  # G(x, .)
    col_x = kw.column(x)  # G(., x)
    gxx = row_x[ix]
    diag = kw.diagonal(ball)
    best = 0.0
    for k, iy in enumerate(ball):
        if iy == ix:
            continue
        e_xy = row_x[iy] / diag[k]
        e_yx = col_x[iy] / gxx
        if e_xy <= 0 or e_yx <= 0:
            raise DegenerateWeightError("weight underflow inside maximal-distance ball")
        best = max(best, -math.log(e_xy), -math.log(e_yx))
    return best


def _l1_ball_count(d, radius):
    """Number of lattice points with |v|_1 < radius (radius real): with
    n = ceil(radius) - 1, those with k nonzero coordinates number
    C(d, k) C(n, k) 2^k."""
    n = math.ceil(radius) - 1
    if n < 0:
        return 0
    return sum(math.comb(d, k) * math.comb(n, k) * 2 ** k for k in range(d + 1))


def zero_field(d, region):
    """Convenience: omega = 0 on the bounding box of the region."""
    box = bounding_box(region)
    return PotentialField(box, np.zeros(box.shape), ZERO_LAW, 0)
