"""Exact killed-walk functionals on finite site sets via substochastic
linear systems.

The walk pays exp(-omega) at every departure site and is killed on leaving
the region (or on a taboo site). All quantities here reduce to solves with
the matrix I - P, where P[z, z'] = exp(-omega(z))/(2d) for lattice neighbors
z, z' inside the active set; P is a substochastic M-matrix on any finite box,
so the systems are nonsingular. Every system is one operator, _KilledWalk:
a grid band with a Dirichlet row (the region's sites in row-major order,
assembled from the strides of their bounding-box grid, the kill site a
decoupled unit row), factored once by banded Cholesky for every solve and
for the Green diagonal G(y, y) (by Takahashi's selected inversion); only
the gauged operator of the log-space fallback is solved by band LU.
"""

import functools
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
    """Explicit set of lattice sites, in their given order, indexed through
    the grid of their bounding box (lo, shape): keys[i] is the row-major grid
    point of site i, and index() is an O(1) vectorized lookup."""

    def __init__(self, sites):
        self.sites = sites = region_sites(sites)
        if sites.ndim != 2 or len(sites) == 0:
            raise DomainError("site set must be a nonempty (n, d) array")
        self.d = sites.shape[1]
        self.lo = sites.min(axis=0)
        self.shape = tuple(int(m) for m in sites.max(axis=0) - self.lo + 1)
        self.keys = np.ravel_multi_index((sites - self.lo).T, self.shape)
        self._flat = np.full(int(np.prod(self.shape)), -1, dtype=np.int64)
        self._flat[self.keys] = rank = np.arange(len(sites))
        if np.any(self._flat[self.keys] != rank):  # equal sites keep one point
            raise DomainError("duplicate sites in region")
        self._layout = None

    def layout(self):
        """(site, rows, bw, r, c, lo, up), built on first use, for the sites in
        row-major order: site masks the grid, site i is row rows[i], r > c are
        the rows of each neighbor pair, and lo, up the flat slots of M[r, c],
        M[c, r] in a (2 bw + 1, n) band, bw the largest gap r - c."""
        if self._layout is None:
            site, pairs, g = self._flat >= 0, [], len(self._flat)
            grid_row = np.cumsum(site) - 1
            for k, m in enumerate(self.shape):  # grid points z, z + s_k that are sites
                s = int(np.prod(self.shape[k + 1:]))
                c = np.flatnonzero(site[:g - s] & site[s:] & (np.arange(g - s) // s % m < m - 1))
                pairs.append((grid_row[c + s], grid_row[c]))
            r, c = (np.concatenate(v) for v in zip(*pairs))
            bw, n = int((r - c).max(initial=0)), len(self)
            self._layout = (site, grid_row[self.keys], bw, r, c,
                            (bw + r - c) * n + c, (bw + c - r) * n + r)
        return self._layout

    def __len__(self):
        return len(self.sites)

    def index(self, points):
        """Indices of points in the set, -1 where absent. points: (m, d)."""
        rel = np.atleast_2d(np.asarray(points, dtype=np.int64)) - self.lo
        ok = np.all((rel >= 0) & (rel < self.shape), axis=1)
        out = np.full(len(rel), -1, dtype=np.int64)
        out[ok] = self._flat[np.ravel_multi_index(rel[ok].T, self.shape)]
        return out

    def index_one(self, p):
        rel = [c - lo for c, lo in zip(p, self.lo.tolist(), strict=True)]
        inside = all(0 <= r < m for r, m in zip(rel, self.shape))
        return int(self._flat[np.ravel_multi_index(rel, self.shape)]) if inside else -1


def region_sites(region):
    """Canonicalize a region (BoxRegion or explicit site array) to (n, d)."""
    if isinstance(region, BoxRegion):
        return region.sites()
    return np.asarray(region, dtype=np.int64)


@functools.lru_cache(maxsize=4)
def _box_site_set(box):
    """A box's SiteSet with its layout, built once and shared: read-only."""
    ss = SiteSet(box)
    for a in (ss.sites, ss.lo, ss.keys, ss._flat, *ss.layout()):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return ss


def bounding_box(region):
    """The smallest BoxRegion containing every site of the region."""
    sites = region_sites(region)
    return BoxRegion(sites.min(axis=0), sites.max(axis=0) + 1)


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

    A is a grid band with a Dirichlet row. Its rows are the sites of the
    region's SiteSet ss in row-major order (keys[i] is the row of site i, so
    a box's rows are its grid), and two sites are neighbors along axis k when
    their points in the bounding-box grid differ by the stride s_k; the
    bandwidth is the largest row gap of a neighbor pair: s_0 for a box, less
    for a set thin along axis 0. The kill site keeps its row, with unit
    diagonal and zero row and column: a right-hand side vanishing there gives
    a solution vanishing there. Vectors are indexed by row.

    A is stored once, as M = e^{h} A e^{-h} in LAPACK general band storage.
    Without a gauge h = omega/2, and M is the symmetric T = W^{-1/2} A W^{1/2},
    W = diag(e^{-omega}/2d), with unit diagonal and T[z, z'] =
    -e^{-(omega(z) + omega(z'))/2}/2d; it is factored once, on first use, by
    banded Cholesky, and A x = b is solved as s T^{-1}(b / s), s = e^{-h}.
    omega is capped at OMEGA_CAP in h and the band, where e^{-omega}/2d is
    already 0. A gauge, a log-scale g per row, sets h = g and scales the
    right-hand sides by e^{g}, so every solution comes out multiplied by
    e^{g}; the gauged M is not symmetric, is solved by band LU, and has plain
    solves only.
    """

    def __init__(self, field, region, kill=None, gauge=None):
        self.ss = ss = _box_site_set(region) if isinstance(region, BoxRegion) else SiteSet(region)
        at = ss.lo - np.asarray(field.region.lo)
        if np.any(at < 0) or np.any(at + ss.shape > field.region.shape):
            raise DomainError("some sites lie outside the field region")
        site, self.keys, self.bw, r, c, lo, up = self.layout = ss.layout()
        self.omega = field.values[tuple(slice(a, a + m) for a, m in zip(at, ss.shape))].ravel()[site]
        self.active = np.ones(len(ss), dtype=bool)
        if kill is not None:
            i = ss.index_one(as_point(kill))
            if i < 0:
                raise DomainError(f"target {tuple(kill)} not in region")
            self._kill = int(self.keys[i])
            self.active[self._kill] = False
        self.gauge = gauge
        if gauge is None:
            w = np.minimum(self.omega, OMEGA_CAP)
            h, self.scale = w / 2, np.exp(-w / 2)
        else:
            w, h, self.scale = self.omega, gauge, np.ones(len(gauge))
        # band[bw + r - c, c] = M[r, c]; rows bw.. are Cholesky's lower storage
        self.band = np.zeros((2 * self.bw + 1, len(ss)))
        self.band[self.bw] = 1.0
        flat = self.band.reshape(-1)
        # only pairs of two active sites couple
        edge, dh = self.active[r] & self.active[c], h[r] - h[c]
        flat[lo] = np.where(edge, -np.exp(dh - w[r]), 0.0) / (2.0 * ss.d)
        flat[up] = np.where(edge, -np.exp(-dh - w[c]), 0.0) / (2.0 * ss.d)
        self.residual = 0.0
        self._cholesky = None  # factored on first use, by _factor

    def _factor(self):
        if self._cholesky is None:
            self._cholesky = cholesky_banded(self.band[self.bw:], lower=True,
                                             check_finite=False)
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
        _, _, bw, r, c, lo, up = self.layout
        flat, n = self.band.reshape(-1), len(v)
        Mv = (self.band[bw] * v + np.bincount(r, flat[lo] * v[c], minlength=n)
              + np.bincount(c, flat[up] * v[r], minlength=n))
        resid = float(np.abs(s * Mv - b).max(initial=0.0))
        if not resid <= RESIDUAL_TOL * max(1.0, float(np.abs(b).max(initial=0.0))):
            raise SolverError(f"residual {resid:.3e} exceeds tolerance {RESIDUAL_TOL:.0e}")
        self.residual = max(self.residual, resid)
        return x

    def kill_vector(self):
        """P[z, kill]: with it, solve gives e(z, kill), the weight of hitting
        the kill site before exiting."""
        r, c = self.layout[3:5]
        j = np.r_[r[c == self._kill], c[r == self._kill]]
        return np.bincount(j, self._step_weight(j), len(self.omega))

    def exit_vector(self):
        """The weight of stepping off the active sites: with it, solve gives
        the weight of exiting (the kill site counts as outside)."""
        r, c = self.layout[3:5]
        inside = np.bincount(np.r_[r, c], np.r_[self.active[c], self.active[r]], len(self.omega))
        return self._step_weight(slice(None)) * (2 * self.ss.d - inside) * self.active

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
        e = np.zeros(len(self.omega))
        e[i] = 1.0
        return e

    def diagonal(self, ids=None):
        """G(y, y) for the given rows (all of them by default; the
        Dirichlet row has 1). One id costs one checked column solve; more
        come from selected inversion of the Cholesky factor of T, which has
        the diagonal of A^{-1}: O(n bw^2) time and O(n bw) memory."""
        if self.gauge is not None:
            raise SolverError("the Green diagonal is defined without a gauge")
        ids = np.arange(len(self.omega)) if ids is None else np.asarray(ids)
        if len(ids) == 1:
            return self.solve(self._unit(ids[0]))[ids]
        return _takahashi_diagonal(self._factor())[ids]

    def _idx(self, p):
        """The row of an active site p."""
        i = self.ss.index_one(as_point(p))
        if i < 0 or not self.active[self.keys[i]]:
            raise DomainError(f"site {tuple(p)} not active in Green system")
        return int(self.keys[i])


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
                f"travel weight underflowed at {tuple(p)}; no rescaled value available")
        return float(-le)


def travel_weight(field, region, source, target, taboo=()):
    """Solve for e_V(z, target) on the region, killed on exit and on taboo sites.

    Potential is paid at departure sites k = 0, ..., H-1 (source included,
    target excluded). Returns the full vector so e_V(z, target) is available
    for every z from one solve. When the weight underflows in double
    precision the solve is repeated with an exponential rescaling so that
    costs stay available in log space.
    """
    source, target = as_point(source), as_point(target)
    taboo = frozenset(as_point(t) for t in taboo)
    if target in taboo:
        raise DomainError("target may not be taboo")
    if source in taboo:
        raise DomainError("source may not be taboo")
    if taboo:
        sites = region_sites(region)
        region = sites[np.array([tuple(z) not in taboo for z in sites])]
    kw = _KilledWalk(field, region, kill=target)
    ss = kw.ss  # the one index: results, and the operator's rows
    itgt, isrc = ss.index_one(target), ss.index_one(source)
    if isrc < 0:
        raise DomainError(f"source {source} not in region")
    e_values = _clip_unit(kw.solve(kw.kill_vector())[kw.keys])
    e_values[itgt] = 1.0
    with np.errstate(divide="ignore"):
        log_e = np.log(e_values)

    if e_values[isrc] <= 0.0:
        # Underflow: solve again conjugated by exp(c * l1-distance to the
        # target), where the solution stays representable, and fill log_e
        # where the plain solve underflowed.
        c = math.log(2.0 * ss.d) + float(np.mean(kw.omega[kw.active]))
        gauge = np.empty(len(ss))
        gauge[kw.keys] = c * np.abs(ss.sites - target).sum(axis=1)
        gw = _KilledWalk(field, region, kill=target, gauge=gauge)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_w = (np.log(gw.solve(gw.kill_vector())) - gauge)[kw.keys]
        fill = ~np.isfinite(log_e) & np.isfinite(log_w)
        log_e[fill] = log_w[fill]
    return SolveResult(target, taboo, ss, e_values, log_e, kw.residual)


def block_cost(field, xi, m, n, N):
    """Restricted cost between m*xi and n*xi inside the rotated block of
    half-width N around the segment. Subadditive in (m, n) on a common field;
    DomainError when an endpoint falls outside the rasterized block."""
    xi = np.asarray(xi, dtype=np.int64)
    src = tuple(int(v) for v in m * xi)
    return travel_weight(field, block_sites(xi, m, n, N), src, n * xi).cost_at(src)


def exit_functional(field, region, start, crossing=("exit",)):
    """E^start[exp(-sum_{k<tau} omega(S_k))] with tau the exit time of the
    region ("exit") or the first l-infinity crossing at radius r
    (("linf", r), relative to start). Value in (0, 1]."""
    start = as_point(start)
    if crossing[0] == "linf":
        # the box strictly inside the shell, every site of which the region holds
        k = int(math.ceil(float(crossing[1]))) - 1
        shell = BoxRegion([c - k for c in start], [c + k + 1 for c in start])
        if np.any(SiteSet(region).index(shell.sites()) < 0):
            raise DomainError("crossing shell exits the region; enlarge the field")
        region = shell
    elif crossing[0] != "exit":
        raise DomainError(f"unknown crossing {crossing!r}")
    kw = _KilledWalk(field, region)
    v = kw.solve(kw.exit_vector())
    return float(_clip_unit(v[kw._idx(start)]))


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
    """(operator killed at x, row of the origin, e_V(., x), G(0, .)):
    the pieces of q(y) = G(0, y) / G(y, y) * e_V(y, x) / e_V(0, x)."""
    origin = (0,) * len(x)
    if x == origin:
        raise DomainError("x must differ from the origin")
    kw = _KilledWalk(field, region, kill=x)
    i0 = kw._idx(origin)
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
    active = kw.active[kw.keys]  # the region's sites but x, in its order
    q = _clip_unit(q[kw.keys[active]])
    return WeightedFunctionals(x, SiteSet(kw.ss.sites[active]), q, float(q.sum()))


def visit_probabilities(field, region, x, ys):
    """(a_V(0, x), {y: q(y)}) from one factorization: the cost and the visit
    probabilities q(y) = Q(H(y) < H(x)) of selected sites y only (cheaper
    than the full diagonal when just a few sites matter)."""
    x = as_point(x)
    kw, i0, u, g = _tilted_walk(field, region, x)
    out = {}
    for y in map(as_point, ys):
        iy = None if y == x else kw._idx(y)
        out[y] = 0.0 if iy is None else 1.0 if iy == i0 else float(
            _clip_unit(g[iy] / kw.diagonal([iy])[0] * u[iy] / u[i0]))
    return float(-np.log(_clip_unit(u[i0]))), out


def maximal_distance(field, region, x, eta):
    """sup over the l1-ball {y : |x-y|_1 < eta*|x|_1} of
    max(a_V(x, y), a_V(y, x)), from one factorization: the row and column
    of G at x and the Green diagonal over the ball."""
    x = as_point(x)
    kw = _KilledWalk(field, region)
    ix = kw._idx(x)
    radius = eta * norms(x)[0]
    off = np.abs(kw.ss.sites - np.asarray(x, dtype=np.int64)).sum(axis=1)
    ball = kw.keys[off < radius]
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
