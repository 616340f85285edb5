"""Independent brute-force oracles used only by the tests.

Most deliberately avoid the library's own algorithms: connectivity is
checked by flood fill over explicit subsets, travel weights are
accumulated path by path (by recursion, or by walking one episode and one
step at a time, which shares only the counter-based randomness with the
library's lockstep walk), and so are crossing traces, which dump_traces
writes one JSON line each. Two run the solver the slow way its batched
paths replace: one operator per crossing shell, and one factorization per
field for a raised site; the Green diagonal is also inverted the slow
way, one index at a time, and the blocked inversion once more on
scipy.linalg's own BLAS and LAPACK wrappers.

The rest are library functionals that no experiment runs, kept as
references for the tests: the zero-potential return probability (the
reference of concentration.box_return_probability), the cost across a
rotated block with the block's rasterization, the maximal distance around x, the zero field, and the
self-normalized importance-sampling mean.
"""

import json
import math
from itertools import combinations

import numpy as np

from rwpot.errors import (CapacityError, DegenerateWeightError, DomainError, FeasibilityError,
                          ParameterError)
from rwpot.lattice import BoxRegion, as_point, norms
from rwpot.potential import ZERO_LAW, PotentialField
from rwpot.rng import counter_uniform
from rwpot.solver import (_KilledWalk, _vet_diagonal, bounding_box, region_sites,
                          travel_weight, weighted_functionals)


def _l1_neighbors(cell):
    out = []
    for axis in range(len(cell)):
        for sign in (1, -1):
            nb = list(cell)
            nb[axis] += sign
            out.append(tuple(nb))
    return out


def flood_fill_connected(cells):
    cells = set(cells)
    start = next(iter(cells))
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for nb in _l1_neighbors(cur):
            if nb in cells and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return seen == cells


def brute_force_fixed_animal_count(d, size):
    """Count translate-classes of connected site sets of the given size by
    exhausting subsets whose lexicographic minimum is the origin."""
    origin = (0,) * d
    if size == 1:
        return 1
    # every cell of such a set lies in the l1 ball of radius size-1 and is
    # lexicographically >= the origin
    radius = size - 1
    ball = []

    def grow(prefix, remaining):
        if not remaining:
            ball.append(tuple(prefix))
            return
        for v in range(-radius, radius + 1):
            if sum(abs(c) for c in prefix) + abs(v) <= radius:
                grow(prefix + [v], remaining - 1)

    grow([], d)
    candidates = [c for c in ball if c > origin]
    count = 0
    for extra in combinations(candidates, size - 1):
        cells = set(extra) | {origin}
        if flood_fill_connected(cells):
            count += 1
    return count


def enumerate_paths_dfs(field, region, x, taboo=(), L=12):
    """Literal recursive path enumeration. Exponential in L; only usable on
    tiny instances, where it cross-validates enumerate_paths path by path."""
    x = as_point(x)
    taboo = frozenset(as_point(t) for t in taboo)
    sites = region_sites(region)
    allowed = {tuple(int(c) for c in z) for z in sites} - taboo
    if x not in allowed:
        raise DomainError("x must lie in the region off the taboo set")
    d = len(x)
    if len(allowed) * (2 * d) ** L > 5 * 10 ** 8:
        raise CapacityError("DFS budget exceeded; use enumerate_paths")
    inv2d = 1.0 / (2 * d)
    total = 0.0
    origin = (0,) * d

    def walk(z, weight, steps_left):
        nonlocal total
        if steps_left == 0:
            return
        step_w = weight * math.exp(-field.value_at(z)) * inv2d
        for axis in range(d):
            for sign in (1, -1):
                nb = z[:axis] + (z[axis] + sign,) + z[axis + 1:]
                if nb == x:
                    total += step_w
                elif nb in allowed:
                    walk(nb, step_w, steps_left - 1)

    walk(origin, 1.0, L)
    return total


def reference_walk(field, allowed, x, seed, episode):
    """One episode of the walk from 0, one step at a time, with step t of
    the episode keyed by (seed, episode, t). Returns the hit flag, the log
    weight (sum of -omega over departure sites) and the path: the origin
    first, x last on a hit, the exit point left out."""
    d = len(x)
    pos = (0,) * d
    path = [pos]
    logw = 0.0
    t = 0
    while True:
        logw -= field.value_at(pos)
        u = float(counter_uniform(seed, [episode, t]))
        k = min(int(u * 2 * d), 2 * d - 1)
        axis, sign = k // 2, 1 - 2 * (k % 2)
        pos = pos[:axis] + (pos[axis] + sign,) + pos[axis + 1:]
        t += 1
        if pos == x:
            path.append(pos)
            return True, logw, path
        if pos not in allowed:
            return False, 0.0, path
        path.append(pos)


def reference_crossings(field, sites, x, l, n_samples, seed,
                        include_rejected=False, max_attempts=None):
    """Crossing traces by rejection, one reference_walk episode at a time,
    as (accepted, weight, tau_times, visited_cubes, range_size, l) tuples.
    Episodes are consumed in order up to the n-th acceptance; the attempt
    budget doubles when spent unless the acceptance rate is below 1e-6."""
    allowed = {tuple(int(c) for c in z) for z in sites}
    if max_attempts is None:
        max_attempts = max(200_000, 50 * n_samples)
    out, accepted, episode = [], 0, 0
    while accepted < n_samples:
        if episode >= max_attempts:
            rate = accepted / episode
            if rate < 1e-6:
                raise FeasibilityError(
                    f"acceptance rate {rate:.2e} below 1e-6 after {episode} attempts")
            max_attempts *= 2
        ok, logw, path = reference_walk(field, allowed, x, seed, episode)
        episode += 1
        if ok:
            taus, anchor = [0], path[0]
            for k, p in enumerate(path[1:], 1):
                if max(abs(a - b) for a, b in zip(p, anchor)) >= 3 * l / 4:
                    taus.append(k)
                    anchor = p
            visited = set(path[:-1])
            cubes = tuple(sorted({tuple((c + l // 2) // l for c in p)
                                  for p in visited}))
            out.append((True, math.exp(logw), tuple(taus), cubes, len(visited), l))
            accepted += 1
        elif include_rejected:
            out.append((False, 0.0, (), (), len(set(path)), l))
    return out


def dump_traces(traces, path):
    """One JSON object per episode, one line each."""
    with open(str(path), "w") as fh:
        for tr in traces:
            fh.write(json.dumps({
                "accepted": tr.accepted,
                "weight": tr.weight,
                "range_size": tr.range_size,
                "animal_size": tr.animal_size,
                "tau_count": len(tr.tau_times),
            }, sort_keys=True))
            fh.write("\n")


def reference_exit_functionals(field, region, starts, crossing):
    """exit_functionals one start at a time, each on its own operator: the
    region's for ("exit",), that of the box strictly inside the start's
    l-infinity shell for ("linf", r)."""
    out = []
    for start in starts:
        own = region
        if crossing[0] == "linf":
            k = math.ceil(crossing[1]) - 1
            own = BoxRegion([c - k for c in start], [c + k + 1 for c in start])
        kw = _KilledWalk(field, own)
        out.append(kw.solve(kw.exit_vector())[kw._idx(start)])
    return np.asarray(out)


def two_solve_delta(field, region, x, y, sigma):
    """(a(0, x) after raising omega(y) to sigma, minus a(0, x); q(y)): the
    cost change from two factorizations, the field's and the raised one's,
    and q(y) read from the field's full Green diagonal (weighted_functionals)
    rather than from the one column solve that raise_site makes."""
    origin = (0,) * len(x)
    wf = weighted_functionals(field, region, x)
    raised = travel_weight(field.with_value(y, sigma), region, origin, x)
    return raised.cost_at(origin) - wf.cost, wf.q_at(y)


def reference_green_diagonal(factor):
    """diag((L L^T)^{-1}) from L in lower band storage, factor[a, j] =
    L[j + a, j], one index at a time (Takahashi, Fagan & Chen, 1973). With
    Z = (L L^T)^{-1}:

        Z[k, i] = -sum_{j > i} Z[k, j] L[j, i] / L[i, i]        (k > i)
        Z[i, i] = (1 / L[i, i] - sum_{j > i} L[j, i] Z[j, i]) / L[i, i]

    and every sum runs over the bw = len(factor) - 1 indices after i, so
    going backwards only a (bw+1)^2 window of Z is kept: Z[j, j'] sits in
    window[j % (bw+1), j' % (bw+1)]. The slot of index i holds the stale
    index i + bw + 1 until it is overwritten, and meets a zero weight."""
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


def f2py_selected_inverse(factor):
    """The blocked selected inversion of solver._selected_inverse, on
    scipy.linalg's own wrappers of dtrtri, dgemm and dtrmm: each call
    allocates its output, and X_i, W_i and Z_ii are arrays of their own.
    Takes a copy of the factor and returns Z in the factor's band layout,
    so the bits of the in-place kernel can be compared with it."""
    from scipy.linalg.blas import dgemm, dtrmm
    from scipy.linalg.lapack import dtrtri

    m, n = factor.shape
    flat = np.array(factor, order="F").ravel(order="F")
    col, a = np.arange(m)[:, None], np.arange(m)
    skew = col * (m + 1) + a + (col + a >= m) * (m * m - m)
    stack, zstack = np.zeros((2, m, m)), np.zeros((2, m, m))
    d, b = stack[0].T, stack[1].T
    z = None
    for s in range((n - 1) // m * m, -1, -m):
        k = min(m, n - s)
        stack.ravel()[skew[:k]] = flat[s * m:(s + k) * m].reshape(k, m)
        x, info = dtrtri(d[:k, :k], lower=1)
        assert info == 0
        c = x
        if z is not None:
            bz = b[:len(z)]
            w = dtrmm(-1.0, x, dgemm(1.0, z, bz), side=1, lower=1, overwrite_b=1)
            zstack[1].T[:len(z)] = w
            c = dgemm(-1.0, bz, w, beta=1.0, c=x, trans_a=1)
        z = dtrmm(1.0, x, c, lower=1, trans_a=1)
        zstack[0].T[:k, :k] = z
        flat[s * m:(s + k) * m] = zstack.ravel()[skew[:k]].ravel()
    return flat.reshape(n, m).T


def transition_matrix(ss, omega):
    """Dense substochastic step matrix P[z, z'] = exp(-omega(z))/(2d)
    between lattice neighbours z, z' of the SiteSet ss, in its order."""
    n = len(ss)
    P = np.zeros((n, n))
    w = np.exp(-np.asarray(omega, dtype=float)) / (2.0 * ss.d)
    for e in np.kron(np.eye(ss.d, dtype=np.int64), [[1], [-1]]):  # +e1, -e1, +e2, ...
        nb = ss.index(ss.sites + e)
        z = np.flatnonzero(nb >= 0)
        P[z, nb[z]] = w[z]
    return P


def zero_field(d, region):
    """omega = 0 on the bounding box of the region."""
    box = bounding_box(region)
    return PotentialField(box, np.zeros(box.shape), ZERO_LAW, 0)


def return_probability(d, region):
    """Probability the zero-potential walk returns to 0 before exiting the
    region. Monotone increasing in the region; the d >= 3 limit is the
    classical transient return probability."""
    kw = _KilledWalk(zero_field(d, region), region, kill=(0,) * d)
    b = kw.kill_vector()
    # P is symmetric here, so b also holds the steps P[0, z] out of the origin
    return float(b @ kw.solve(b))


def rotation_to_direction(xi):
    """An orthogonal matrix R with R @ e1 = xi/|xi|_2.

    Built by Gram-Schmidt from xi and the standard basis; the remaining
    columns are an arbitrary (but deterministic) completion.
    """
    xi = np.asarray(xi, dtype=float)
    d = xi.shape[0]
    n = np.linalg.norm(xi)
    if n == 0:
        raise ParameterError("direction must be nonzero")
    cols = [xi / n]
    for i in range(d):
        v = np.zeros(d)
        v[i] = 1.0
        for c in cols:
            v = v - (v @ c) * c
        nv = np.linalg.norm(v)
        if nv > 1e-12:
            cols.append(v / nv)
        if len(cols) == d:
            break
    return np.column_stack(cols)


def block_sites(xi, m, n, N, edge_tol=1e-9):
    """Rasterize the rotated block around the segment [m*xi, n*xi].

    A site z belongs to the block iff R^-1 z lies in
    [m|xi|_2 - N, n|xi|_2 + N] x [-N, N]^(d-1), with a small inclusive
    tolerance at the faces. Returns an (n_sites, d) int64 array.
    """
    xi = np.asarray(xi, dtype=np.int64)
    d = xi.shape[0]
    if n <= m or m < 0:
        raise ParameterError("block requires n > m >= 0")
    R = rotation_to_direction(xi)
    xi2 = float(np.linalg.norm(xi))
    lo_r = np.array([m * xi2 - N] + [-N] * (d - 1), dtype=float)
    hi_r = np.array([n * xi2 + N] + [N] * (d - 1), dtype=float)
    # Bounding box in lattice coordinates from the rotated corner images.
    corners = np.stack(np.meshgrid(*zip(lo_r, hi_r), indexing="ij"), axis=-1).reshape(-1, d)
    images = corners @ R.T
    lo = np.floor(images.min(axis=0) - edge_tol).astype(np.int64)
    hi = np.ceil(images.max(axis=0) + edge_tol).astype(np.int64) + 1
    cand = BoxRegion(tuple(lo), tuple(hi)).sites()
    back = cand.astype(float) @ R
    inside = np.all((back >= lo_r - edge_tol) & (back <= hi_r + edge_tol), axis=1)
    return cand[inside]


def block_cost(field, xi, m, n, N):
    """Restricted cost between m*xi and n*xi inside the rotated block of
    half-width N around the segment. Subadditive in (m, n) on a common field;
    DomainError when an endpoint falls outside the rasterized block."""
    xi = np.asarray(xi, dtype=np.int64)
    src = tuple(int(v) for v in m * xi)
    return travel_weight(field, block_sites(xi, m, n, N), src, n * xi).cost_at(src)


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
    col_x = kw.solve(kw._unit(ix))  # G(., x)
    diag = kw.diagonal(ball)
    ys = ball != ix
    if len(ball) > 1:  # one id is already a checked column solve
        _vet_diagonal(diag[~ys][0], row_x[ix], "x")
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


def weighted_mean_se(weights, values):
    """Self-normalized importance-sampling mean and its linearized SE."""
    w = np.asarray(weights, dtype=float)
    v = np.asarray(values, dtype=float)
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must have positive sum")
    wn = w / total
    m = float(wn @ v)
    se = float(math.sqrt(np.sum(wn ** 2 * (v - m) ** 2)))
    return m, se
