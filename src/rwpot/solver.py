"""Exact killed-walk functionals on finite site sets via substochastic
linear systems.

The walk pays exp(-omega) at every departure site and is killed on leaving
the region (or on a taboo site). All quantities here reduce to solves with
the matrix I - P, where P[z, z'] = exp(-omega(z))/(2d) for lattice neighbors
z, z' inside the active set; P is a substochastic M-matrix on any finite box,
so the systems are nonsingular. Every system is one operator, _KilledWalk:
a grid band with a Dirichlet row (the region's sites in row-major order,
neighbors at the strides of their bounding-box grid, the kill site a
decoupled unit row). The lattice is bipartite, so the symmetrized operator
has an identity block on each colour (the parity of the coordinate sum),
and the exact Schur complement S on one colour has half the rows at the
same bandwidth. S is factored, on first use, by banded Cholesky (LAPACK's
dpbtrf, and dpbtrs for each solve), for every plain solve and for the Green
diagonal G(y, y) of both colours: Takahashi's selected inversion of S in
blocked form, n/(bw+1) steps of one (bw+1)-square triangular inverse and
four products, O(n bw^2) time, every product on scipy's BLAS (numpy's @
would bring a second OpenBLAS thread pool into the loop). Z = S^{-1} on the
band is written over the Cholesky factor, as LAPACK's dpotri overwrites its
own: the kernel needs O(bw^2) memory besides the factor's band, and a solve
after it factors S again. So a field's weighted functionals hold one
band-sized array, not two whose freeing hands them back to the OS to be
faulted in again by the next field. The log-space fallback solves its
gauged complement by band LU (dgbsv).

Those six routines (dpbtrf, dpbtrs, dtrtri, dgemm, dtrmm, dgbsv) are called
through ctypes from the library of scipy's BLAS extension,
scipy/linalg/_fblas, which the module opens by its path: scipy's bundled
OpenBLAS, the library scipy.linalg itself calls, so the bits are scipy's.
No run imports a scipy module (scipy.linalg alone would take over half of
a CLI run's start-up); a routine the library lacks raises ImportError.

What depends on the site set alone is built once and kept on its SiteSet:
the band layout and its colours, and, per kill, the active mask, the
neighbor pairs the kill cuts and the rows next to it (kill_parts). An
operator's own work is then the field's: its couplings, S and the solves.

Many small systems of one shape are solved as one block-diagonal band:
travel_costs (the costs of many fields on one box) and exit_functionals
(the crossing shells of many starts) put the boxes side by side along axis
0, an empty layer between neighbours, in stacks of at most
STACK_BAND_ENTRIES, so that a stack costs one assembly, one factorization,
one solve and one residual check.

Importing the module sets scipy's bundled OpenBLAS to one thread, unless
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is set (then
OpenBLAS keeps the count it read) or scipy runs on another BLAS. On one
thread the band factorizations run no slower and the Green-diagonal
kernel's 50 x 50 dtrmm about twice as fast, and no second thread waits for
a CPU that another process holds; only the kernel at d=3 widths (bw 169)
runs about a quarter slower on an idle machine. numpy's own OpenBLAS, which
no solve calls, is left alone.
"""

import ctypes
import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightError, DomainError, SolverError
from .lattice import BoxRegion, as_point
from .potential import PotentialField

RESIDUAL_TOL = 1e-9
# omega beyond this changes no entry of P in double precision: e^{-800} is 0
OMEGA_CAP = 800.0
# the size of one stacked system, of exit_functionals' shells or of
# travel_costs' boxes, counted as (2 bw + 1) rows for a box's grid
# bandwidth bw: 2^18 (2 MB of doubles)
STACK_BAND_ENTRIES = 2 ** 18
# the most kills whose bookkeeping one SiteSet keeps (SiteSet.kill_parts)
KILLS_KEPT = 8


def _scipy_blas_library():
    """The library of scipy's BLAS extension, scipy/linalg/_fblas, opened
    with ctypes from its path, which find_spec reads without importing
    scipy. The loader then searches the libraries it links, whatever was
    imported first: scipy's bundled OpenBLAS, or the BLAS and LAPACK it was
    built on."""
    spec = importlib.util.find_spec("scipy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if spec else ():
        path = os.path.join(spec.submodule_search_locations[0], "linalg", "_fblas" + suffix)
        if os.path.exists(path):
            return ctypes.CDLL(path)
    raise ImportError("scipy's BLAS extension scipy/linalg/_fblas was not found")


_BLAS = _scipy_blas_library()
_OPENBLAS = _BLAS if hasattr(_BLAS, "scipy_openblas_set_num_threads") else None
if _OPENBLAS is not None and not any(
        os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _OPENBLAS.scipy_openblas_set_num_threads(1)


def blas_threads():
    """The thread count scipy's OpenBLAS reports, or None under another BLAS."""
    return None if _OPENBLAS is None else _OPENBLAS.scipy_openblas_get_num_threads()


def _routine(name):
    """The Fortran routine name of scipy's BLAS library: scipy's OpenBLAS
    exports it as scipy_<name>_, a plain BLAS and LAPACK as <name>_."""
    for symbol in (f"scipy_{name}_", f"{name}_"):
        if hasattr(_BLAS, symbol):
            fn = getattr(_BLAS, symbol)
            fn.restype = None
            return fn
    raise ImportError(f"scipy's BLAS library exports no {name}")


# Fortran calling convention: every argument by reference, and after them
# the hidden length of each character argument (gfortran's size_t), here 1.
# No argtypes: every argument is already a ctypes pointer (_int, _ptr,
# byref), bytes or _LEN, which ctypes passes as they are; declaring them
# costs about 1.5 us a call, five calls a block of the Green-diagonal
# kernel: a sixth more time at bw 49
_DPBTRF, _DPBTRS, _DTRTRI, _DGEMM, _DTRMM, _DGBSV = map(
    _routine, ("dpbtrf", "dpbtrs", "dtrtri", "dgemm", "dtrmm", "dgbsv"))
_LEN = ctypes.c_size_t(1)
_PLUS, _MINUS, _NIL = (ctypes.byref(ctypes.c_double(v)) for v in (1.0, -1.0, 0.0))


def _int(v):
    """A Fortran INTEGER argument: a pointer to a C int holding v."""
    return ctypes.byref(ctypes.c_int(v))


def _ptr(a):
    """The address of a writeable contiguous array a of either order (a
    quarter of the cost of a.ctypes.data)."""
    return ctypes.byref(ctypes.c_char.from_buffer(a if a.flags.c_contiguous else a.T))


def _fortran(a, keep, ndim=(2,)):
    """a itself when keep is set and a is a writeable Fortran-ordered
    float64 array, else a Fortran-ordered float64 copy of a; ValueError
    unless a has one of the numbers of dimensions ndim."""
    a = np.asarray(a)
    if a.ndim not in ndim:
        raise ValueError(f"array of shape {a.shape} where {ndim} dimensions are expected")
    if keep and a.dtype == np.float64 and a.flags.f_contiguous and a.flags.writeable:
        return a
    return np.array(a, dtype=np.float64, order="F")


def _rhs(b, n, keep):
    """The right-hand side b, (n,) or (n, nrhs), as _fortran gives it, and
    nrhs: LAPACK would read past the end of a shorter one."""
    x = _fortran(b, keep, (1, 2))
    if len(x) != n:
        raise ValueError(f"right-hand side of {len(x)} rows for {n} unknowns")
    return x, _int(1 if x.ndim == 1 else x.shape[1])


def dpbtrf(ab, lower=0, overwrite_ab=0):
    """LAPACK's dpbtrf on the symmetric band ab, (kd + 1, n): (its Cholesky
    factor, info), as scipy.linalg.lapack.dpbtrf returns them."""
    c, info = _fortran(ab, overwrite_ab), ctypes.c_int()
    _DPBTRF(b"L" if lower else b"U", _int(c.shape[1]), _int(c.shape[0] - 1), _ptr(c),
            _int(c.shape[0]), ctypes.byref(info), _LEN)
    return c, info.value


def dpbtrs(cb, b, lower=0, overwrite_b=0):
    """LAPACK's dpbtrs: (x, info) with x solving the band whose Cholesky
    factor dpbtrf wrote in cb, for b of shape (n,) or (n, nrhs), as
    scipy.linalg.lapack.dpbtrs returns them."""
    cb, info = _fortran(cb, True), ctypes.c_int()
    (x, nrhs), n = _rhs(b, cb.shape[1], overwrite_b), _int(cb.shape[1])
    _DPBTRS(b"L" if lower else b"U", n, _int(cb.shape[0] - 1), nrhs, _ptr(cb), _int(cb.shape[0]),
            _ptr(x), n, ctypes.byref(info), _LEN)
    return x, info.value


def solve_banded(l_and_u, ab, b):
    """x with A x = b, A the general band ab[u + i - j, j] = A[i, j] of l
    lower and u upper diagonals, by LAPACK's dgbsv (band LU with partial
    pivoting), as scipy.linalg.solve_banded runs it for l + u > 1; a
    singular A raises SolverError."""
    (kl, ku), n = l_and_u, ab.shape[1]
    if len(ab) != kl + ku + 1:
        raise ValueError(f"a band of {len(ab)} rows for {kl} + {ku} + 1 diagonals")
    lu = np.zeros((2 * kl + ku + 1, n), order="F")  # dgbsv's fill-in rows on top
    lu[kl:] = ab
    (x, nrhs), pivots, info = _rhs(b, n, False), np.empty(n, dtype=np.intc), ctypes.c_int()
    _DGBSV(_int(n), _int(kl), _int(ku), nrhs, _ptr(lu), _int(len(lu)), _ptr(pivots), _ptr(x),
           _int(n), ctypes.byref(info))
    if info.value != 0:
        raise SolverError(f"general band is singular (dgbsv info {info.value})")
    return x


class SiteSet:
    """Explicit set of lattice sites, in their given order, indexed through
    the grid of their bounding box (lo, shape), both tuples of ints: keys[i]
    is the row-major grid point of site i, index() is an O(1) vectorized
    lookup and index_one() the same for one point, on Python ints."""

    def __init__(self, sites):
        self.sites = sites = region_sites(sites)
        if sites.ndim != 2 or len(sites) == 0:
            raise DomainError("site set must be a nonempty (n, d) array")
        self.d = sites.shape[1]
        self.lo = tuple(int(v) for v in sites.min(axis=0))
        self.shape = tuple(int(m) for m in sites.max(axis=0) - self.lo + 1)
        self.keys = np.ravel_multi_index((sites - self.lo).T, self.shape)
        self._flat = np.full(int(np.prod(self.shape)), -1, dtype=np.int64)
        self._flat[self.keys] = rank = np.arange(len(sites))
        if np.any(self._flat[self.keys] != rank):  # equal sites keep one point
            raise DomainError("duplicate sites in region")
        self._layout = self._colours = None
        self._kills = {}

    def layout(self):
        """(at, rows, a, o), built on first use with colours(), for the
        sites in row-major order: row j is the grid point at[j], site i is
        row rows[i], and a, o are the rows of each neighbor pair, a of row
        0's colour (the parity of the coordinate sum) and o of the other."""
        if self._layout is None:
            n, order = len(self), np.argsort(self.keys)
            rows = np.empty(n, dtype=np.int64)
            rows[order] = np.arange(n)
            at, by_row, pairs = self.keys[order], self.sites[order] - self.lo, []
            for k, m in enumerate(self.shape):  # rows z whose z + e_k is a site
                c = np.flatnonzero(by_row[:, k] < m - 1)
                i = self._flat[at[c] + math.prod(self.shape[k + 1:])]
                pairs.append((rows[i[i >= 0]], c[i >= 0]))  # i = -1: no site
            r, c = (np.concatenate(v) for v in zip(*pairs))
            axis = np.repeat(np.arange(self.d), [len(p[1]) for p in pairs])
            par = by_row.sum(axis=1) & 1
            first = par == par[0]
            seen = np.cumsum(first)
            rank = np.where(first, seen - 1, np.arange(n) - seen)  # in its colour
            up = first[r]  # the pair's first-colour end is r
            a, o = np.where(up, r, c), np.where(up, c, r)
            pe, po = rank[a], rank[o]
            # each od row's pairs, one column per direction (axis, side), and
            # the paths through it: two of its columns, both holding a pair
            table = np.full((n - int(seen[-1]), 2 * self.d), len(r))
            table[po, 2 * axis + up] = np.arange(len(r))
            k1, k2 = np.array(list(itertools.combinations(range(2 * self.d), 2))).T
            e1, e2 = table[:, k1].ravel(), table[:, k2].ravel()
            keep = np.maximum(e1, e2) < len(r)
            e1, e2 = e1[keep], e2[keep]
            i, j = pe[e1], pe[e2]
            gap = np.abs(i - j)
            bw = int(gap.max(initial=0))
            self._layout = (at, rows, a, o)
            self._colours = (np.flatnonzero(first), np.flatnonzero(~first), pe, po, bw, e1, e2,
                             gap + np.minimum(i, j) * (bw + 1))
        return self._layout

    def colours(self):
        """(ev, od, pe, po, bw, e1, e2, slot), built on first use with
        layout(). The lattice is bipartite: ev are the rows of row 0's
        colour, od the others, both ascending, and neighbor pair p of the
        layout joins a[p] = ev[pe[p]] and o[p] = od[po[p]]. The two-step
        paths ev[i] - o - ev[j], i != j, through a row o of od are the pairs
        e1 - e2, each listed once (i < j or i > j), and slot is the flat slot
        of S[max(i, j), min(i, j)] in the Fortran-ordered lower band
        (bw + 1, len(ev)) of a matrix S on ev: bw is the paths' widest gap."""
        self.layout()
        return self._colours

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
        """The index of the one point p in the set, -1 where absent; a point
        of another dimension raises ValueError."""
        key = 0
        for c, lo, m in zip(p, self.lo, self.shape, strict=True):
            if not 0 <= c - lo < m:
                return -1
            key = key * m + c - lo
        return int(self._flat[key])

    def kill_parts(self, kill):
        """(active, cut, adj) of the operator killed at kill, a tuple of
        points (empty for no kill), on the rows of layout(): active is False
        on the kill sites' rows, cut are the ids of the neighbor pairs that
        touch a kill site, and adj the row of each such pair's other end,
        the a ends first (kill_vector's rows). Built once per kill and kept,
        read-only, for the last KILLS_KEPT kills; DomainError names the
        first kill site outside the set."""
        parts = self._kills.get(kill)
        if parts is None:
            i = [self.index_one(p) for p in kill]
            if min(i, default=0) < 0:
                raise DomainError(f"target {kill[i.index(-1)]} not in region")
            _, rows, a, o = self.layout()
            active = np.ones(len(self), dtype=bool)
            active[rows[i]] = False
            at_a, at_o = active[a], active[o]
            parts = active, np.flatnonzero(~(at_a & at_o)), np.concatenate([a[~at_o], o[~at_a]])
            for v in parts:
                v.flags.writeable = False
            if len(self._kills) >= KILLS_KEPT:
                self._kills.clear()
            self._kills[kill] = parts
        return parts


def region_sites(region):
    """Canonicalize a region (BoxRegion or explicit site array) to (n, d)."""
    if isinstance(region, BoxRegion):
        return region.sites()
    return np.asarray(region, dtype=np.int64)


def _site_set(region):
    """The region's SiteSet; a box's is built once and shared, and a
    SiteSet is its own."""
    if isinstance(region, SiteSet):
        return region
    return _box_site_set(region) if isinstance(region, BoxRegion) else SiteSet(region)


def _frozen(ss):
    """ss with its layout built and every array read-only, to be shared."""
    for a in (ss.sites, ss.lo, ss.keys, ss._flat, *ss.layout(), *ss.colours()):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return ss


@functools.lru_cache(maxsize=4)
def _box_site_set(box):
    """A box's SiteSet with its layout, built once and shared: read-only."""
    return _frozen(SiteSet(box))


def _box_stack(shape, count):
    """count copies of the box [0, shape) side by side along axis 0, one
    empty layer between neighbours, as one SiteSet (read-only): its operator
    is block diagonal, one block per box, with a box's bw. Box j's sites are
    rows j |box| .. (j + 1) |box| - 1, in the box's row-major order."""
    d = len(shape)
    box = BoxRegion((0,) * d, shape).sites()
    shift = np.zeros((count, 1, d), dtype=np.int64)
    shift[:, 0, 0] = np.arange(count) * (shape[0] + 1)
    return _frozen(SiteSet((box + shift).reshape(-1, d)))


# exit_functionals' stacks, shared across calls: one call stacks at most two
# counts, full chunks and the rest; one stack at the STACK_BAND_ENTRIES
# bound holds about 5 MB
_shell_stack = functools.lru_cache(maxsize=2)(_box_stack)


def _per_stack(shape):
    """How many boxes of the shape one stack holds: STACK_BAND_ENTRIES over
    (2 bw + 1) band entries per site, bw the box's grid bandwidth, and one
    at least."""
    return max(1, STACK_BAND_ENTRIES // ((2 * math.prod(shape[1:]) + 1) * math.prod(shape)))


def _stacked_field(blocks, ss, field):
    """The blocks of omega, (count, *shape), on the stack ss of
    _box_stack(shape, count), zero on its empty layers, as one field with
    field's law and seed."""
    count, m = blocks.shape[:2]
    values = np.zeros((count, m + 1) + blocks.shape[2:])
    values[:, :m] = blocks
    return PotentialField(BoxRegion((0,) * len(ss.shape), ss.shape),
                          values.reshape((-1,) + blocks.shape[2:])[:ss.shape[0]],
                          field.spec, field.seed)


def bounding_box(region):
    """The smallest BoxRegion containing every site of the region."""
    sites = region_sites(region)
    return BoxRegion(sites.min(axis=0), sites.max(axis=0) + 1)


def _clip_unit(v):
    """v clipped to [0, 1]. Rounding may leave a probability or weight just
    outside; a value further out than RESIDUAL_TOL (or NaN) means a wrong
    solve, and raises SolverError instead of being clipped away."""
    v = np.asarray(v, dtype=float)
    # a NaN makes min or max NaN, and fails the test
    if not (v.min(initial=0.0) >= -RESIDUAL_TOL and v.max(initial=1.0) <= 1.0 + RESIDUAL_TOL):
        inside = (v >= -RESIDUAL_TOL) & (v <= 1.0 + RESIDUAL_TOL)
        raise SolverError(f"value {v[~inside][0]:.3e} lies outside [0, 1] "
                          f"beyond tolerance {RESIDUAL_TOL:.0e}")
    return np.clip(v, 0.0, 1.0)


def _window(field, lo, shape):
    """The field's values on the box lo + [0, shape), a view."""
    at = [i - j for i, j in zip(lo, field.region.lo, strict=True)]
    if not all(0 <= i and i + m <= h for i, m, h in zip(at, shape, field.region.shape)):
        raise DomainError("some sites lie outside the field region")
    return field.values[tuple(slice(i, i + m) for i, m in zip(at, shape))]


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

    A is held as the symmetric T = e^{h} A e^{-h} = W^{-1/2} A W^{1/2} = I - K,
    h = omega/2, W = diag(e^{-omega}/2d), by its pair weights: coupling[p] =
    K[a, o] = K[o, a] = e^{-(omega(a) + omega(o))/2}/2d for the neighbor pair
    p = (a, o) of two active sites. A x = b is solved as s T^{-1}(b / s),
    s = e^{-h}. omega is capped at OMEGA_CAP in h and K, where e^{-omega}/2d
    is already 0.

    Neighbors differ in colour (the parity of the coordinate sum), so on the
    colours of SiteSet.colours, e that of row 0 and o the other,
    T = [[I, -K_eo], [-K_oe, I]]. T u = f is solved through the Schur
    complement S = I - K_eo K_oe on the rows of e, which keeps T's bandwidth
    in half its rows: S u_e = f_e + K_eo f_o, then u_o = f_o + K_oe u_e. S is
    assembled and factored once, on first use, by banded Cholesky. The
    log-space fallback, log_kill_weight, conjugates A by a log-scale of its
    own, a nonsymmetric B, and solves B's Schur complement by LU instead.

    kill is one site (a tuple) or an (m, d) array of them; either way its
    active mask, cut pairs and kill_vector rows come from the SiteSet's
    kill_parts, built once per kill, and the cut pairs' couplings are set
    to 0.
    """

    def __init__(self, field, region, kill=None):
        self.ss = ss = _site_set(region)
        grid, self.keys, a, o = self.layout = ss.layout()
        self.colours = ss.colours()
        self.omega = _window(field, ss.lo, ss.shape).ravel()[grid]
        if kill is None:
            kill = ()
        elif isinstance(kill, tuple):  # one site
            kill = (kill,)
        else:  # an (m, d) array of sites
            kill = tuple(map(tuple, np.asarray(kill).tolist()))
        self.active, cut, self._adj = ss.kill_parts(kill)
        w = np.minimum(self.omega, OMEGA_CAP)
        self.scale = np.exp(-w / 2)
        self.coupling = np.exp(-(w[a] + w[o]) / 2) / (2.0 * ss.d)
        self.coupling[cut] = 0.0  # only pairs of two active sites couple
        self.residual = 0.0
        self._cholesky = None  # factored on first use, by _factor

    def _factor(self):
        """The banded Cholesky factor of S = I - K_eo K_oe, factored in place
        in its Fortran-ordered lower band: S[a, a] = 1 - sum K_ao^2 over the
        pairs at a, and S[a, b] = -sum K_ao K_ob over the paths a - o - b."""
        if self._cholesky is None:
            ev, _, pe, _, bw, e1, e2, slot = self.colours
            k = self.coupling
            # float even with no path, when bincount would give ints
            flat = np.bincount(slot, -(k[e1] * k[e2]), len(ev) * (bw + 1)).astype(float, copy=False)
            flat[::bw + 1] = 1.0 - np.bincount(pe, k * k, len(ev))
            factor, info = dpbtrf(flat.reshape(-1, bw + 1).T, lower=1, overwrite_ab=1)
            if info != 0:
                raise SolverError(f"Schur complement is not positive definite (dpbtrf info {info})")
            self._cholesky = factor
        return self._cholesky

    def _cho_solve(self, r):
        """S^{-1} r from S's Cholesky factor, written over r."""
        x, info = dpbtrs(self._factor(), r, lower=1, overwrite_b=1)
        if info != 0:
            raise SolverError(f"band solve failed (dpbtrs info {info})")
        return x

    def _frame(self, trans):
        """s with A = s T s^{-1} (A^T = s T s^{-1} for trans="T")."""
        return self.scale if trans == "N" else 1.0 / self.scale

    def solve(self, b, trans="N"):
        """A^{-1} b, or A^{-T} b for trans="T", with its residual checked."""
        s, k = self._frame(trans), self.coupling
        v = self._eliminate(b / s, k, k, self._cho_solve)
        return self.check(s * v, b, trans)

    def _eliminate(self, f, eo, oe, solve):
        """u with (I - N) u = f, N[a, o] = eo and N[o, a] = oe at each pair
        (a, o) and 0 elsewhere: solve(f_e + N_eo f_o) gives u_e on the
        Schur complement I - N_eo N_oe, and u_o = f_o + N_oe u_e. No finite
        check: the residual check rejects a NaN or inf solution."""
        ev, od, pe, po = self.colours[:4]
        u = f.copy()
        u[ev] = solve(f[ev] + np.bincount(pe, eo * f[od][po], len(ev)))
        u[od] += np.bincount(po, oe * u[ev][pe], len(od))
        return u

    def check(self, x, b, trans="N"):
        """Return x after raising SolverError if the residual of A x = b
        (A^T x = b for trans="T") exceeds RESIDUAL_TOL; record the worst."""
        return self._check(self._frame(trans), x, b, self.coupling, self.coupling)

    def _check(self, s, x, b, eo, oe):
        """check for the operator s (I - N) s^{-1}, N as in _eliminate."""
        v = x / s
        a, o = self.layout[2:]
        n = len(v)
        Mv = (v - np.bincount(a, eo * v[o], minlength=n)
              - np.bincount(o, oe * v[a], minlength=n))
        resid = float(np.abs(s * Mv - b).max(initial=0.0))
        if not resid <= RESIDUAL_TOL * max(1.0, float(np.abs(b).max(initial=0.0))):
            raise SolverError(f"residual {resid:.3e} exceeds tolerance {RESIDUAL_TOL:.0e}")
        self.residual = max(self.residual, resid)
        return x

    def log_kill_weight(self, g):
        """log e(., kill) by row, from B = e^{g} A e^{-g} (omega uncapped)
        solved for e^{g} e(., kill): a log-scale g per row that tracks the
        decay of e keeps that solution representable where e underflows. B
        is not symmetric: its Schur complement is solved as a general band
        by LU, then each row once more from its pairs, so that the absolute
        residual check reads the rounding of its own sums on the large rows."""
        ev, od, pe, po, bw, e1, e2, _ = self.colours
        a, o = self.layout[2:]
        edge, dh, d2 = self.active[a] & self.active[o], g[a] - g[o], 2.0 * self.ss.d
        i, j, m, n = pe[e1], pe[e2], 2 * bw + 1, len(ev)
        # a gauge too steep for the field overflows to inf and NaN here,
        # which the residual check then refuses
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            eo = np.where(edge, np.exp(dh - self.omega[a]), 0.0) / d2
            oe = np.where(edge, np.exp(-dh - self.omega[o]), 0.0) / d2
            # I - N_eo N_oe, its [i, j] at bw + i - j of row j of a (len(ev), 2 bw + 1) band
            flat = np.bincount(np.r_[np.arange(n) * m, j * m + i - j, i * m + j - i] + bw,
                               np.r_[1.0 - np.bincount(pe, eo * oe, n),
                                     -eo[e1] * oe[e2], -eo[e2] * oe[e1]], n * m)
            b = self.kill_vector(g)
            band = flat.reshape(n, m).T
            u = self._eliminate(b, eo, oe, lambda r: solve_banded((bw, bw), band, r))
            # one sweep of each colour, summed in the order _check sums them
            u[ev] = b[ev] + np.bincount(pe, eo * u[od][po], n)
            u[od] = b[od] + np.bincount(po, oe * u[ev][pe], len(od))
            return np.log(self._check(1.0, u, b, eo, oe)) - g

    def kill_vector(self, g=None):
        """P[z, kill] (times e^{g(z)} for a log-scale g), summed over the
        kill sites: with it, solve gives e(z, kill), the weight of hitting a
        kill site before exiting."""
        j = self._adj
        log_w = -self.omega[j] if g is None else g[j] - self.omega[j]
        return np.bincount(j, np.exp(log_w) / (2.0 * self.ss.d), len(self.omega))

    def exit_vector(self):
        """The weight of stepping off the active sites: with it, solve gives
        the weight of exiting (the kill site counts as outside)."""
        a, o = self.layout[2:]
        inside = np.bincount(np.r_[a, o], np.r_[self.active[o], self.active[a]], len(self.omega))
        return np.exp(-self.omega) / (2.0 * self.ss.d) * (2 * self.ss.d - inside) * self.active

    def row(self, p):
        """G(p, .) for all active sites."""
        return self.solve(self._unit(self._idx(p)), trans="T")

    def _unit(self, i):
        e = np.zeros(len(self.omega))
        e[i] = 1.0
        return e

    def diagonal(self, ids=None):
        """G(y, y) for the given rows (all of them by default; the
        Dirichlet row has 1). No ids cost nothing and leave the factor
        alone; one id costs one checked column solve. More come from
        Z = S^{-1} on the band of S's Cholesky factor, by one selected
        inversion, since T^{-1} = [[Z, Z K_eo], [K_oe Z,
        I + K_oe Z K_eo]]: G(a, a) = Z[a, a] on the rows of e, and on a row
        o of the other colour G(o, o) = 1 + sum K_oa K_ob Z[a, b] over the
        neighbors a, b of o, every Z[a, b] of which is in the band: a = b
        once for each pair at o, and a != b twice for each path a - o - b.
        Z is written over the factor, so a call of more than one id uses it
        up: a later solve on this operator factors S again."""
        ids = np.arange(len(self.omega)) if ids is None else np.asarray(ids)
        if len(ids) == 0:
            return np.empty(0)
        if len(ids) == 1:
            return self.solve(self._unit(ids[0]))[ids]
        ev, od, pe, po, _, e1, e2, slot = self.colours
        factor, self._cholesky = self._factor(), None
        z, k = _selected_inverse(factor), self.coupling
        paths = k[e1] * k[e2] * z.ravel(order="F")[slot]
        g = np.empty(len(self.omega))
        g[ev] = z[0]
        g[od] = (1.0 + np.bincount(po, k * k * z[0, pe], len(od))
                 + 2.0 * np.bincount(po[e1], paths, len(od)))
        return g[ids]

    def _idx(self, p):
        """The row of an active site p."""
        i = self.ss.index_one(as_point(p))
        if i < 0 or not self.active[self.keys[i]]:
            raise DomainError(f"site {tuple(p)} not active in Green system")
        return int(self.keys[i])


def _selected_inverse(factor):
    """Z = (L L^T)^{-1} on the band of L, in L's lower band storage
    factor[a, j] = L[j + a, j], by blocked selected inversion (Takahashi,
    Fagan & Chen, 1973; Erisman & Tinney, 1975), written over a
    Fortran-ordered factor as LAPACK's dpotri overwrites its Cholesky
    factor (any other factor is copied first). In blocks of m = bw + 1
    rows (the last may be short) L is block lower bidiagonal: lower
    triangular diagonal blocks D_i and strictly upper triangular blocks
    B_i = L[i+1, i] below them. Going backwards with X_i = D_i^{-1} and
    W_i = Z_{i+1,i+1} B_i X_i, the blocks of Z that meet the band are

        Z_{i+1,i} = -W_i,
        Z_ii = X_i^T (X_i + B_i^T W_i),     Z_KK = X_K^T X_K,

    that is X_i^T (I + B_i^T Z_{i+1,i+1} B_i) X_i. A block costs five BLAS
    calls: dtrtri for X_i, a dgemm and a dtrmm for W_i, and a dgemm (onto
    X_i) and a dtrmm for Z_ii. So O(n bw^2) time, and only Z_{i+1,i+1}
    carried: O(bw^2) working memory besides the factor's own band. Of each
    block only its entries in the band are read and written: the lower
    triangle of D_i and Z_ii, the strict upper one of B_i and Z_{i+1,i}.
    Block i reads its band columns [D_i; B_i] before it writes [Z_ii;
    Z_{i+1,i}] to the same slots, and no later block reads them, so Z can
    take the factor's place. For an M-matrix
    X >= 0, B <= 0 and Z >= 0, so W <= 0 and every term of X + B^T W adds:
    no cancellation.

    Every product runs on scipy's BLAS, none on numpy's @: numpy and scipy
    each bundle their own OpenBLAS with its own thread pool, and the two
    pools fight when calls alternate. On 2 vCPUs at bw = 169 (2197 sites)
    this kernel took 17 ms on scipy's BLAS alone, and 164 to 472 ms with
    numpy's @ in place of dgemm and dtrmm. That BLAS runs on one thread
    (see the module docstring): a 50 x 50 dtrmm took 6 to 9 us on one
    thread and 14 to 16 us on two.

    The routines are called through ctypes on buffers and arguments set up
    once per call: X_i is inverted in place of D_i, W_i is formed in the
    slot of Z_{i+1,i} and Z_ii in its own, so that no routine allocates its
    output and each costs its ctypes dispatch alone (about 1 us)."""
    m, n = factor.shape
    flat = factor.ravel(order="F")  # a view: Z is written over the factor
    # columns s.. s + m - 1 of the column-major band are the entries on and
    # below the diagonal of the stack [D_i; B_i], [c, a] its row c + a of
    # column c: a block's band entries, and only those. The stack is held
    # as two column-major m x m halves, so BLAS reads each in place: row
    # c + a of column c is at c (m + 1) + a, or m^2 - m further on in B
    col, a = np.arange(m)[:, None], np.arange(m)
    skew = col * (m + 1) + a + (col + a >= m) * (m * m - m)
    stack, zstack = np.zeros((2, m, m)), np.zeros((2, m, m))  # [D_i; B_i], [Z_ii; Z_{i+1,i}]
    d, zd = stack[0].T, zstack[0].T  # column-major views
    pd, pb, pz, pw = map(_ptr, (*stack, *zstack))
    mm, kk, kz, info = ctypes.c_int(m), ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
    rm, rk, rz, ri = map(ctypes.byref, (mm, kk, kz, info))
    for s in range((n - 1) // m * m, -1, -m):
        kz.value, kk.value = kk.value, min(m, n - s)  # Z_{i+1,i+1} is kz x kz
        k = kk.value
        stack.ravel()[skew[:k]] = flat[s * m:(s + k) * m].reshape(k, m)
        _DTRTRI(b"L", b"N", rk, pd, rm, ri, _LEN, _LEN)  # X_i over D_i
        if info.value != 0:
            raise SolverError(f"Cholesky block at row {s} is singular (dtrtri info {info.value})")
        if kz.value:  # k = m: only the last block is short
            # -W_i = -(Z_{i+1,i+1} B_i) X_i, in the slot of Z_{i+1,i}
            _DGEMM(b"N", b"N", rz, rm, rz, _PLUS, pz, rm, pb, rm, _NIL, pw, rm, _LEN, _LEN)
            _DTRMM(b"R", b"L", b"N", b"N", rz, rm, _MINUS, pd, rm, pw, rm, _LEN, _LEN, _LEN, _LEN)
            zd[:] = d  # X_i, plus B_i^T W_i
            _DGEMM(b"T", b"N", rm, rm, rz, _MINUS, pb, rm, pw, rm, _PLUS, pz, rm, _LEN, _LEN)
        else:
            zd[:k, :k] = d[:k, :k]
        # Z_ii = X_i^T (X_i + B_i^T W_i)
        _DTRMM(b"L", b"L", b"T", b"N", rk, rk, _PLUS, pd, rm, pz, rm, _LEN, _LEN, _LEN, _LEN)
        flat[s * m:(s + k) * m] = zstack.ravel()[skew[:k]].ravel()
    return flat.reshape(n, m).T


@dataclass(eq=False)
class SolveResult:
    """Travel-weight vector e_V(z, target) for every site z of the region,
    the factored operator that solved it, and the source's index."""

    target: tuple
    taboo: frozenset
    siteset: SiteSet
    e_values: np.ndarray
    walk: _KilledWalk
    source_index: int

    @property
    def residual(self):
        """The worst residual of the solves on the operator so far."""
        return self.walk.residual

    @functools.cached_property
    def log_e(self):
        """log e_V(., target), built on first read (cost_at reads it). Where
        the source's weight underflowed, the plain solve's -inf are filled
        from the log-space solve at the log-scale c * l1-distance to the
        target: only a caller of log values pays for that second solve."""
        with np.errstate(divide="ignore"):
            log_e = np.log(self.e_values)
        if self.e_values[self.source_index] <= 0.0:
            kw, ss = self.walk, self.siteset
            c = math.log(2.0 * ss.d) + float(np.mean(kw.omega[kw.active]))
            gauge = np.empty(len(ss))
            gauge[kw.keys] = c * np.abs(ss.sites - self.target).sum(axis=1)
            log_w = kw.log_kill_weight(gauge)[kw.keys]
            fill = ~np.isfinite(log_e) & np.isfinite(log_w)
            log_e[fill] = log_w[fill]
        return log_e

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
    precision, the result's log_e (and so cost_at) is filled, on first
    read, from a solve with an exponential rescaling, so that costs stay
    available in log space; a caller of e_values alone never runs it.
    """
    source, target = as_point(source), as_point(target)
    taboo = frozenset(as_point(t) for t in taboo)
    if target in taboo:
        raise DomainError("target may not be taboo")
    if source in taboo:
        raise DomainError("source may not be taboo")
    if taboo:
        sites = region_sites(region)
        if any(len(t) != sites.shape[1] for t in taboo):
            raise DomainError("taboo sites must have the region's dimension")
        region = sites[SiteSet(list(taboo)).index(sites) < 0]
    kw = _KilledWalk(field, region, kill=target)
    ss = kw.ss  # the one index: results, and the operator's rows
    itgt, isrc = ss.index_one(target), ss.index_one(source)
    if isrc < 0:
        raise DomainError(f"source {source} not in region")
    e_values = _clip_unit(kw.solve(kw.kill_vector())[kw.keys])
    e_values[itgt] = 1.0
    return SolveResult(target, taboo, ss, e_values, kw, isrc)


def travel_costs(fields, box, source, target):
    """travel_weight(field, box, source, target).cost_at(source) for each
    field, in field order: the cost a_V(source, target) on the box V, which
    every field holds. The boxes go side by side along axis 0, an empty
    layer between neighbours, as exit_functionals' shells do, each killed at
    its own target, and are solved in stacks of at most STACK_BAND_ENTRIES:
    one assembly, factorization, solve and residual check per stack. A box
    whose source weight underflows takes its cost from travel_weight, whose
    log-space gauge reads that field's own mean omega."""
    source, target = as_point(source), as_point(target)
    for p, name in ((source, "source"), (target, "target")):
        if not box.contains(p):
            raise DomainError(f"{name} {p} not in region")
    n = box.site_count
    isrc = int(np.ravel_multi_index(np.subtract(source, box.lo), box.shape))
    per, ss, out = _per_stack(box.shape), None, np.empty(len(fields))
    for j in range(0, len(fields), per):
        chunk = fields[j:j + per]
        if ss is None or len(ss) != len(chunk) * n:  # a full stack is built once
            ss = _box_stack(box.shape, len(chunk))
        blocks = np.stack([_window(f, box.lo, box.shape) for f in chunk])
        kill = np.tile(np.subtract(target, box.lo), (len(chunk), 1))
        kill[:, 0] += np.arange(len(chunk)) * (box.shape[0] + 1)  # box i's target
        kw = _KilledWalk(_stacked_field(blocks, ss, chunk[0]), ss, kill=kill)
        e = _clip_unit(kw.solve(kw.kill_vector())[kw.keys])
        e[~kw.active[kw.keys]] = 1.0  # each target's own weight
        e = e[np.arange(len(chunk)) * n + isrc]
        with np.errstate(divide="ignore"):
            out[j:j + len(chunk)] = -np.log(e)
        for i in np.flatnonzero(e <= 0.0):
            out[j + i] = travel_weight(chunk[i], box, source, target).cost_at(source)
    return out


def exit_functional(field, region, start, crossing=("exit",)):
    """E^start[exp(-sum_{k<tau} omega(S_k))] with tau the exit time of the
    region ("exit") or the first l-infinity crossing at radius r
    (("linf", r), relative to start). Value in (0, 1]. The one-start case
    of exit_functionals."""
    return float(exit_functionals(field, region, [start], crossing)[0])


def exit_functionals(field, region, starts, crossing=("exit",)):
    """exit_functional at every start, in start order. ("exit",) reads all
    starts from one solve. ("linf", r) solves the box strictly inside each
    start's shell, [start - k, start + k]^d with k = ceil(r) - 1, every
    site of which the region must hold: the boxes are translates of one, so
    they go side by side along axis 0, an empty layer between neighbours,
    on a field holding each box's window of omega. Its operator is block
    diagonal with one box's bandwidth, and is solved in stacks of at most
    STACK_BAND_ENTRIES, their size counted as (2 bw + 1) rows."""
    d = field.dimension
    starts = np.asarray([as_point(s) for s in starts], dtype=np.int64).reshape(-1, d)
    if crossing[0] == "exit":
        kw = _KilledWalk(field, region)
        v = kw.solve(kw.exit_vector())
        return _clip_unit(v[[kw._idx(s) for s in starts]])
    if crossing[0] != "linf":
        raise DomainError(f"unknown crossing {crossing!r}")
    k = int(math.ceil(float(crossing[1]))) - 1
    shape = (2 * k + 1,) * d
    box = BoxRegion((-k,) * d, (k + 1,) * d).sites()
    per = _per_stack(shape)
    inside, out = _site_set(region), []
    for j in range(0, len(starts), per):
        chunk = starts[j:j + per]
        sites = (chunk[:, None] + box).reshape(-1, d)
        if np.any(inside.index(sites) < 0):
            raise DomainError("crossing shell exits the region; enlarge the field")
        ss = _shell_stack(shape, len(chunk))
        kw = _KilledWalk(_stacked_field(field.values_at(sites).reshape((len(chunk),) + shape),
                                        ss, field), ss)
        # box j is rows j |box| .. (j + 1) |box| - 1, its start the middle one
        mid = np.arange(len(chunk)) * len(box) + len(box) // 2
        out.append(kw.solve(kw.exit_vector())[mid])
    return _clip_unit(np.concatenate(out))


# ---------------------------------------------------------------------------
# Green-function machinery for taboo weights and the weighted measure Q.


@dataclass(eq=False)
class WeightedFunctionals:
    """Visit probabilities under the weighted path measure tilted by
    exp(-sum omega) and conditioned on hitting x before exiting."""

    x: tuple
    cost: float  # a_V(0, x)
    q_visit: np.ndarray  # by active site (x excluded), in the solved order
    expected_range: float
    solved: SiteSet  # the solved region's sites, x included
    active: np.ndarray  # by site of solved: not x

    @functools.cached_property
    def siteset(self):
        """The active sites, in q_visit's order, built on first read."""
        return SiteSet(self.solved.sites[self.active])

    def q_at(self, y):
        y = as_point(y)
        if y == self.x:
            return 0.0
        i = self.siteset.index_one(y)
        if i < 0:
            raise DomainError(f"site {y} not in region")
        return float(self.q_visit[i])


def _origin_weight(field, region, x):
    """travel_weight's result e_V(., x) from the origin, which the weighted
    measure divides by: DegenerateWeightError where e_V(0, x) underflows."""
    origin = (0,) * len(x)
    if x == origin:
        raise DomainError("x must differ from the origin")
    res = travel_weight(field, region, origin, x)
    if res.e_values[res.source_index] <= 0.0:
        raise DegenerateWeightError("e_V(0, x) underflowed; weighted measure undefined")
    return res


def weighted_functionals(field, region, x):
    """a_V(0, x), the full visit-probability vector
    q(y) = Q(H(y) < H(x)) = G(0, y) / G(y, y) * e_V(y, x) / e_V(0, x)
    and the expected range of the weighted walk, E_Q[#A] = sum_y q(y), all
    from one operator: G(0, .) is one row solve and G(y, y) its diagonal."""
    x = as_point(x)
    res = _origin_weight(field, region, x)
    kw, u, i0 = res.walk, res.e_values, res.source_index
    g = kw.row((0,) * len(x))[kw.keys]
    diag = kw.diagonal()[kw.keys]
    _vet_diagonal(diag[i0], g[i0], "0")
    q = (g / diag) * u / u[i0]
    q[i0] = 1.0
    active = kw.active[kw.keys]  # the region's sites but x, in its order
    q = _clip_unit(q[active])
    return WeightedFunctionals(x, res.cost_at((0,) * len(x)), q, float(q.sum()),
                               res.siteset, active)


def _vet_diagonal(diag, solved, y):
    """Raise SolverError unless G(y, y) from the selected inversion, diag,
    agrees with solved, G(y, y) from a residual-checked solve (y names the
    site in the message)."""
    if not abs(diag - solved) <= RESIDUAL_TOL * solved:
        raise SolverError(f"Green diagonal G({y}, {y}) = {diag:.17g} disagrees "
                          f"with the row solve {solved:.17g}")


def raise_site(field, region, x, y, sigma):
    """(a_V(0, x), q(y), the change of a_V(0, x) when omega(y) is raised to
    sigma), from one factorization. Only departures from y change, each by
    the factor t = e^{-(sigma - omega(y))}, so by the rank-one
    (Sherman-Morrison) identity on the operator killed at x, with
    G = G(y, y) and em = 1 - t, the change is
    -log(1 - q(y) G em / (1 + (G - 1) em)). em is formed by expm1, which
    stays exact for a small raise and is 1 for a huge one. One checked
    column solve gives G(., y), so G = G(y, y) and G(0, y), and
    q(y) = G(0, y) / G(y, y) * e_V(y, x) / e_V(0, x): one factorization
    and two solves in all."""
    x, y = as_point(x), as_point(y)
    omega = field.value_at(y)
    if not sigma >= omega:
        raise DomainError(f"sigma {sigma!r} lies below omega(y) = {omega!r}")
    res = _origin_weight(field, region, x)
    if y == x:
        q, G = 0.0, 1.0
    else:
        iy, i0, kw, u = res._index(y), res.source_index, res.walk, res.e_values
        column = kw.solve(kw._unit(kw.keys[iy]))[kw.keys]
        G = float(column[iy])
        q = 1.0 if iy == i0 else float(_clip_unit(column[i0] / G * u[iy] / u[i0]))
    em = -math.expm1(-(sigma - omega))
    lost = q * G * em / (1.0 + (G - 1.0) * em)  # the share of e_V(0, x) lost
    return res.cost_at((0,) * len(x)), q, math.inf if lost >= 1.0 else -math.log1p(-lost)
