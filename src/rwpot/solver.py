"""Exact killed-walk functionals on finite site sets via substochastic
linear systems.

The walk pays exp(-omega) at every departure site and is killed on leaving
the region (or on a taboo site). All quantities here reduce to solves with
the matrix I - P, where P[z, z'] = exp(-omega(z))/(2d) for lattice neighbors
z, z' inside the active set; P is a substochastic M-matrix on any finite box,
so the systems are nonsingular. Every system is one operator, _KilledWalk:
a band over the sites in lexicographic order, factored once by banded
Cholesky for every solve and for the Green diagonal G(y, y) (by Takahashi's
selected inversion); only the gauged operator of the log-space fallback is
solved by band LU.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, solve_banded

from .errors import DegenerateWeightError, DomainError, SolverError
from .lattice import BoxRegion, as_point, block_sites, norms
from .potential import ZERO_LAW, PotentialField

RESIDUAL_TOL = 1e-9
# omega beyond this changes no entry of P in double precision: e^{-800} is 0
OMEGA_CAP = 800.0


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


class _KilledWalk:
    """The killed-walk operator A = I - P on the sites of a region, less the
    kill site when one is given: the walk dies on exit and on the kill site.

    gauge, when given, is a log-scale g per site: P is conjugated to
    P[z, z'] e^{g(z) - g(z')} and the right-hand sides are scaled by e^{g(z)},
    so every solution comes out multiplied by e^{g}. The gauge is taken as 0
    on the kill site and outside the region.

    The sites are kept in lexicographic order (a box's row-major order), and
    A is stored once, as M = e^{h} A e^{-h} in LAPACK general band storage,
    with h = g under a gauge and h = omega/2 without. Then M is the symmetric
    T = W^{-1/2} A W^{1/2}, W = diag(e^{-omega}/2d), with unit diagonal and
    T[z, z'] = -e^{-(omega(z) + omega(z'))/2}/2d; it is factored once, on
    first use, by banded Cholesky, and A x = b is solved as s T^{-1}(b / s),
    s = e^{-h}. omega is capped at OMEGA_CAP in h and the band, where
    e^{-omega}/2d is already 0. A gauged M is not symmetric: it is solved by
    band LU, and has plain solves only.
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
        self.ss = ss = SiteSet(sites[np.lexsort(sites.T[::-1])])
        self.omega = field.values_at(ss.sites)
        n = len(ss)
        # each neighbor pair (i, j) once, j = i + e_axis, so j comes after i
        nb = np.stack([ss.index(ss.sites + e) for e in np.eye(ss.d, dtype=np.int64)])
        i, j = np.nonzero(nb >= 0)[1], nb[nb >= 0]
        self.outside = (2 * ss.d - np.bincount(i, minlength=n)
                        - np.bincount(j, minlength=n))
        if gauge is None:
            w = np.minimum(self.omega, OMEGA_CAP)
            h, self.scale = w / 2, np.exp(-w / 2)
        else:
            w, h, self.scale = self.omega, gauge, np.ones(n)
        off = j - i
        self.bw = bw = int(off.max(initial=0))
        self.offsets = np.unique(off)
        # band[bw + r - c, c] = M[r, c]; rows bw.. are Cholesky's lower storage
        self.band = np.zeros((2 * bw + 1, n))
        self.band[bw] = 1.0
        self.band[bw + off, i] = -np.exp(h[j] - h[i] - w[j]) / (2.0 * ss.d)
        self.band[bw - off, j] = -np.exp(h[i] - h[j] - w[i]) / (2.0 * ss.d)
        self.residual = 0.0
        # factored on first use by a plain check: functools' cached property
        # takes one lock per class on Python 3.11, which would serialize the
        # factorizations of parallel_map's threads
        self._cholesky = None

    def _factor(self):
        if self._cholesky is None:
            self._cholesky = cholesky_banded(self.band[self.bw:], lower=True)
        return self._cholesky

    def _frame(self, trans):
        """s with A = s M s^{-1} (A^T = s M s^{-1} for trans="T")."""
        if trans == "N":
            return self.scale
        if self.gauge is not None:
            raise SolverError("a gauged operator has plain solves only")
        return 1.0 / self.scale

    def solve(self, b, trans="N"):
        """A^{-1} b, or A^{-T} b for trans="T", with its residual checked."""
        s = self._frame(trans)
        if self.gauge is None:
            v = cho_solve_banded((self._factor(), True), b / s)
        else:
            v = solve_banded((self.bw, self.bw), self.band, b, check_finite=False)
        return self.check(s * v, b, trans)

    def check(self, x, b, trans="N"):
        """Return x after raising SolverError if the residual of A x = b
        (A^T x = b for trans="T") exceeds RESIDUAL_TOL; record the worst."""
        s = self._frame(trans)
        v = x / s
        band, bw, n = self.band, self.bw, len(v)
        Mv = band[bw] * v
        for k in self.offsets:
            Mv[k:] += band[bw + k, :n - k] * v[:n - k]
            Mv[:n - k] += band[bw - k, k:] * v[k:]
        resid = float(np.abs(s * Mv - b).max(initial=0.0))
        if not resid <= RESIDUAL_TOL * max(1.0, float(np.abs(b).max(initial=0.0))):
            raise SolverError(f"residual {resid:.3e} exceeds tolerance {RESIDUAL_TOL:.0e}")
        self.residual = max(self.residual, resid)
        return x

    def kill_vector(self):
        """P[z, kill]: with it, solve gives e(z, kill), the weight of hitting
        the kill site before exiting."""
        b = np.zeros(len(self.ss))
        steps = np.eye(self.ss.d, dtype=np.int64)
        j = self.ss.index(np.asarray(self.kill) + np.vstack([steps, -steps]))
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
        return self.solve(self._unit(self._idx(p)), trans="T")

    def column(self, p):
        """G(., p) for all active sites."""
        return self.solve(self._unit(self._idx(p)))

    def _unit(self, i):
        e = np.zeros(len(self.ss))
        e[i] = 1.0
        return e

    def diagonal(self, ids=None):
        """G(y, y) for the given site indices (all active sites by default).
        One id costs one checked column solve; more come from selected
        inversion of the Cholesky factor of T, which has the diagonal of
        A^{-1}: O(n bw^2) time and O(n bw) memory."""
        if self.gauge is not None:
            raise SolverError("the Green diagonal is defined without a gauge")
        n = len(self.ss)
        ids = np.arange(n) if ids is None else np.asarray(ids)
        if len(ids) == 1:
            return self.solve(self._unit(ids[0]))[ids]
        return _takahashi_diagonal(self._factor())[ids]

    def _idx(self, p):
        i = self.ss.index_one(as_point(p))
        if i < 0:
            raise DomainError(f"site {tuple(p)} not active in Green system")
        return i


def _takahashi_diagonal(factor):
    """diag((L L^T)^{-1}) from L in lower band storage, factor[a, j] =
    L[j + a, j] (Takahashi, Fagan & Chen, 1973). With Z = (L L^T)^{-1}:

        Z[k, i] = -sum_{j > i} Z[k, j] L[j, i] / L[i, i]        (k > i)
        Z[i, i] = (1 / L[i, i] - sum_{j > i} L[j, i] Z[j, i]) / L[i, i]

    and every sum runs over the bw = len(factor) - 1 indices after i, so
    going backwards only a (bw+1)^2 window of Z is kept: Z[j, j'] sits in
    window[j % (bw+1), j' % (bw+1)]. The slot of index i holds the stale
    index i + bw + 1 until it is overwritten, and meets a zero weight. For an
    M-matrix L[j, i] <= 0 and Z >= 0, so every term adds: no cancellation."""
    m, n = factor.shape
    window = np.zeros((m, m))
    col = np.zeros(m)
    ring = np.arange(m)
    out = np.empty(n)
    for i in range(n - 1, -1, -1):
        p = i % m
        col[(p + ring) % m] = factor[:, i]
        col[p] = 0.0
        lii = factor[0, i]
        z = window @ col
        z /= -lii
        window[p] = z
        window[:, p] = z
        out[i] = window[p, p] = (1.0 / lii - col @ z) / lii
    return out


@dataclass(eq=False)
class SolveResult:
    """Travel-weight vector e_V(z, target) for every site z of the region."""

    target: tuple
    taboo: frozenset
    siteset: SiteSet
    e_values: np.ndarray
    log_e: np.ndarray
    residual: float

    def _index(self, p):
        i = self.siteset.index_one(as_point(p))
        if i < 0:
            raise DomainError(f"site {tuple(p)} not in solved region")
        return i

    def e_at(self, p):
        return float(self.e_values[self._index(p)])

    def cost_at(self, p):
        """a_V(p, target) = -log e_V(p, target)."""
        le = self.log_e[self._index(p)]
        if not np.isfinite(le):
            raise DegenerateWeightError(
                f"travel weight underflowed at {tuple(p)}; no rescaled value available"
            )
        return float(-le)


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
    if ss.index_one(target) < 0:
        raise DomainError(f"target {target} not in region")
    isrc = ss.index_one(source)
    if isrc < 0:
        raise DomainError(f"source {source} not in region")

    kw = _KilledWalk(field, sites, kill=target)
    at = ss.index(kw.ss.sites)  # the operator's sites: ss less the target
    e_values = np.ones(len(ss))
    e_values[at] = _clip_unit(kw.solve(kw.kill_vector()))
    with np.errstate(divide="ignore"):
        log_e = np.log(e_values)

    if e_values[isrc] <= 0.0:
        # Underflow: solve again conjugated by exp(c * l1-distance to the
        # target), where the solution stays representable, and fill log_e
        # where the plain solve underflowed.
        c = math.log(2.0 * ss.d) + float(np.mean(kw.omega))
        gauge = c * np.abs(kw.ss.sites - np.asarray(target)).sum(axis=1)
        gw = _KilledWalk(field, sites, kill=target, gauge=gauge)
        log_w = np.zeros(len(ss))
        with np.errstate(divide="ignore", invalid="ignore"):
            log_w[at] = np.log(gw.solve(gw.kill_vector())) - gauge
        fill = ~np.isfinite(log_e) & np.isfinite(log_w)
        log_e[fill] = log_w[fill]
    return SolveResult(target, taboo, ss, e_values, log_e, kw.residual)


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
    if SiteSet(sites).index_one(start) < 0:
        raise DomainError("start not in region")
    if crossing[0] == "exit":
        active = sites
    elif crossing[0] == "linf":
        r = float(crossing[1])
        off = np.abs(sites - np.asarray(start, dtype=np.int64)).max(axis=1)
        active = sites[off < r]
        # every lattice site strictly inside the shell must carry a potential
        k = int(math.ceil(r)) - 1
        if len(active) != (2 * k + 1) ** len(start):
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
    # P is symmetric here, so b also holds the steps P[0, z] out of the origin
    return float(b @ kw.solve(b))


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
    diag = kw.diagonal()
    # g[i0] = G(0, 0) from the residual-checked row solve vets the diagonal
    if not abs(diag[i0] - g[i0]) <= RESIDUAL_TOL * g[i0]:
        raise SolverError(f"Green diagonal G(0, 0) = {diag[i0]:.17g} disagrees "
                          f"with the row solve {g[i0]:.17g}")
    q = (g / diag) * u / u[i0]
    q[i0] = 1.0
    q = _clip_unit(q)
    return WeightedFunctionals(x, kw.ss, q, float(q.sum()))


def visit_probabilities(field, region, x, ys):
    """q(y) = Q(H(y) < H(x)) for selected sites y only (cheaper than the
    full diagonal when just a few sites matter)."""
    x = as_point(x)
    kw, i0, u, g = _tilted_walk(field, region, x)
    out = {}
    for y in map(as_point, ys):
        iy = kw.ss.index_one(y)
        if y == x:
            out[y] = 0.0
        elif iy < 0:
            raise DomainError(f"site {y} not in region")
        elif iy == i0:
            out[y] = 1.0
        else:
            out[y] = float(_clip_unit(g[iy] / kw.diagonal([iy])[0] * u[iy] / u[i0]))
    return out


def maximal_distance(field, region, x, eta):
    """sup over the l1-ball {y : |x-y|_1 < eta*|x|_1} of
    max(a_V(x, y), a_V(y, x)), from one factorization: the row and column
    of G at x and the Green diagonal over the ball."""
    x = as_point(x)
    kw = _KilledWalk(field, region)
    ix = kw.ss.index_one(x)
    if ix < 0:
        raise DomainError("x not in region")
    radius = eta * norms(x)[0]
    off = np.abs(kw.ss.sites - np.asarray(x, dtype=np.int64)).sum(axis=1)
    ball = np.nonzero(off < radius)[0]
    # the whole lattice ball must be present in the region
    if len(ball) != _l1_ball_count(kw.ss.d, radius):
        raise DomainError("l1 ball around x exits the region")
    row_x = kw.row(x)  # G(x, .)
    col_x = kw.column(x)  # G(., x)
    diag = kw.diagonal(ball)
    ys = ball != ix
    e = np.concatenate([row_x[ball[ys]] / diag[ys], col_x[ball[ys]] / row_x[ix]])
    if np.any(e <= 0):
        raise DegenerateWeightError("weight underflow inside maximal-distance ball")
    return max(0.0, -math.log(e.min(initial=1.0)))


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
