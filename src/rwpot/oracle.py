"""Independent verification oracles for the linear solver.

Two independent routes to the travel weight e_V(0, x):

* exact summation over all walk paths of length <= L (with a rigorous
  remainder bound for the omitted longer paths), and
* Monte Carlo episodes of the actual walk with the exp(-sum omega) weight.

Neither route touches the linear-algebra solver, so agreement is evidence,
not tautology. The module also samples path-level coarse-graining statistics
(crossing times and visited-cube animals). One lockstep walk kernel, `_walk`,
runs the episodes of both Monte Carlo samplers.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, FeasibilityError, ParameterError
from .lattice import as_point, coarse_index
from .rng import last_word_uniform, prefix_state
from .solver import SiteSet, region_sites

ENUM_MAX_SITES = 49
ENUM_MAX_STEPS = 30
CROSSING_BATCH = 1024  # episodes walked in lockstep per sample_crossings batch


@dataclass(eq=False)
class PathEnumResult:
    """Exact weight of all paths of length <= L from 0 that hit x first.

    The true travel weight is sandwiched:
    partial_weight <= e_V(0, x) <= partial_weight + remainder_bound.
    """

    partial_weight: float
    remainder_bound: float
    L: int
    kappa_min: float
    per_step_weight: np.ndarray  # contribution of paths of exactly k steps


def enumerate_paths(field, region, x, taboo=(), L=ENUM_MAX_STEPS):
    """Sum exp(-sum omega) * (1/2d)^len over every path from 0 reaching x
    within L steps, before exiting the region or touching a taboo site.

    The sum over all paths of a fixed length k is propagated exactly as a
    vector recursion (one multiply-add per site and step), which equals the
    literal path-by-path accumulation but stays feasible at L = 30 where
    explicit enumeration (4^30 paths) would not.

    The remainder is bounded by the total weighted mass still alive after L
    steps: every omitted path extends an alive prefix by factors <= 1. When
    the potential is bounded below by kappa_min > 0 the geometric bound
    s^L / (1 - s), s = exp(-kappa_min), is also applied and the smaller of
    the two is reported.
    """
    x = as_point(x)
    taboo = frozenset(as_point(t) for t in taboo)
    sites = region_sites(region)
    if len(sites) > ENUM_MAX_SITES:
        raise CapacityError(
            f"enumeration limited to {ENUM_MAX_SITES} sites, got {len(sites)}"
        )
    if L > ENUM_MAX_STEPS or L < 0:
        raise CapacityError(f"enumeration limited to {ENUM_MAX_STEPS} steps, got {L}")
    if taboo:
        keep = np.array([tuple(z) not in taboo for z in sites])
        sites = sites[keep]
    ss = SiteSet(sites)
    ix = ss.index_one(x)
    i0 = ss.index_one((0,) * ss.d)
    if ix < 0 or i0 < 0:
        raise DomainError("0 and x must lie in the region (and off the taboo set)")
    if i0 == ix:
        raise DomainError("x must differ from the origin")
    omega = field.values_at(ss.sites)
    kappa_min = float(omega.min())
    # the steps (src, tgt) between neighbours of the site set, by source
    steps = np.kron(np.eye(ss.d, dtype=np.int64), [[1], [-1]])  # +e1, -e1, +e2, ...
    nb = np.stack([ss.index(ss.sites + e) for e in steps], axis=1)
    src, tgt = np.nonzero(nb >= 0)[0], nb[nb >= 0]
    w = np.exp(-omega) / (2.0 * ss.d)  # the weight of a step, paid at its source
    # on the sites but x, renumbered in order: steps into x absorb, the rest continue
    n = len(ss) - 1
    row = np.cumsum(np.arange(len(ss)) != ix) - 1
    into, on = tgt == ix, (src != ix) & (tgt != ix)
    to_x = np.zeros(n)
    to_x[row[src[into]]] = w[src[into]]
    i, j, wi = row[src[on]], row[tgt[on]], w[src[on]]

    v = np.zeros(n)
    v[row[i0]] = 1.0
    per_step = np.zeros(L + 1)
    total = 0.0
    for k in range(1, L + 1):
        per_step[k] = float(v @ to_x)  # paths hitting x at exactly step k
        total += per_step[k]
        # push v one step: each target sums its sources in increasing order
        v = np.bincount(j, wi * v[i], n)
    alive = float(np.abs(v).sum())
    remainder = alive
    if kappa_min > 0.0:
        s = math.exp(-kappa_min)
        remainder = min(remainder, s ** L / (1.0 - s) if s < 1.0 else remainder)
    return PathEnumResult(total, remainder, L, kappa_min, per_step)


# ---------------------------------------------------------------------------
# Monte Carlo episodes


@dataclass(eq=False)
class WalkWeightResult:
    estimate: float
    std_error: float
    weights: np.ndarray
    n_hit: int
    n_exit: int

    def __iter__(self):  # allows (estimate, std_error) unpacking
        yield self.estimate
        yield self.std_error


def _walk(field, ss, x, seed, episodes, record=False):
    """Run the consecutive episode ids `episodes` of the walk from 0 in
    lockstep, each until it hits x or leaves ss, paying exp(-omega) at every
    departure site. Step t of episode k is keyed by (seed, k, t), so an
    episode's path never depends on the batch it runs in.

    Returns the per-episode hit flags and log weights (meaningful on hits)
    and, with record, each episode's rows of ss in step order: from the
    origin up to x on a hit, the exit point left out.

    A live episode is a flat key into ss's bounding-box grid padded by one
    layer on every side, so a step is one add and never leaves the grid:
    row_of[key] is the episode's row of ss, -1 on the pad and on holes. The
    (seed, k) words of every episode's counters are hashed once.
    """
    d, first, n = ss.d, int(episodes[0]), len(episodes)
    shape = tuple(m + 2 for m in ss.shape)
    row_of = np.full(math.prod(shape), -1, dtype=np.int64)
    row_of[np.ravel_multi_index((ss.sites - ss.lo + 1).T, shape)] = np.arange(len(ss))
    step = np.kron([math.prod(shape[k + 1:]) for k in range(d)], [1, -1])  # +e1, -e1, ...
    key0, key_x = np.ravel_multi_index((np.array([(0,) * d, x]) - ss.lo + 1).T, shape)
    omega = field.values_at(ss.sites)
    hit_all, logw_all = np.zeros(n, dtype=bool), np.zeros(n)
    key = np.full(n, key0)
    rows = row_of[key]
    logw = np.zeros(n)
    state = prefix_state(seed, episodes[:, None])
    out, tmp = np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64)
    trail = [(episodes, rows)] if record else None
    t = 0
    while len(episodes):
        m = len(episodes)
        logw -= omega[rows]  # pay at the departure site
        u = last_word_uniform(state, 1, t, out[:m], tmp[:m])
        dirs = np.minimum((u * 2 * d).astype(np.int64), 2 * d - 1)
        key += step[dirs]
        t += 1
        hit = key == key_x
        rows = row_of[key]
        if hit.any():
            hit_all[episodes[hit] - first] = True
            logw_all[episodes[hit] - first] = logw[hit]
        if record:
            inside = rows >= 0
            trail.append((episodes[inside], rows[inside]))
        alive = (rows >= 0) & ~hit
        episodes, key, rows, logw, state = (
            a[alive] for a in (episodes, key, rows, logw, state))
    if not record:
        return hit_all, logw_all
    ids, rows = (np.concatenate(a) for a in zip(*trail))
    counts = np.bincount(ids - first, minlength=n)
    paths = np.split(rows[np.argsort(ids, kind="stable")], np.cumsum(counts)[:-1])
    return hit_all, logw_all, paths


def sample_walk_weight(field, region, x, n_samples, seed):
    """Direct Monte Carlo estimate of e_V(0, x).

    Each episode runs the simple walk from 0, multiplying exp(-omega) at
    every departure site, until it hits x (weight kept) or leaves the region
    (weight zero). Episode randomness is keyed by (seed, episode, step), so
    the result is identical however episodes are ordered or batched.
    """
    x = as_point(x)
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    ss = SiteSet(region_sites(region))
    if ss.index_one(x) < 0 or ss.index_one((0,) * ss.d) < 0:
        raise DomainError("0 and x must lie in the region")
    hit, logw = _walk(field, ss, x, seed, np.arange(n_samples, dtype=np.int64))
    weights = np.zeros(n_samples)
    weights[hit] = np.exp(logw[hit])
    n_hit = int(hit.sum())
    mean = float(weights.mean())
    se = float(weights.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return WalkWeightResult(mean, se, weights, n_hit, n_samples - n_hit)


@dataclass(eq=False)
class CrossingTrace:
    """Crossing-time skeleton and visited-cube animal of one episode."""

    accepted: bool
    weight: float  # exp(-sum omega) importance weight (0 if rejected)
    tau_times: tuple
    visited_cubes: tuple  # the animal: C-scheme cube indices at scale l
    range_size: int  # number of distinct sites visited
    l: int

    @property
    def animal_size(self):
        return len(self.visited_cubes)


def _crossing_skeleton(path, l):
    """tau times: successive first exits of the l-infinity ball of radius
    3l/4 around the previous crossing point."""
    threshold = 3 * l / 4
    taus = [0]
    anchor = path[0]
    for k in range(1, len(path)):
        if max(abs(a - b) for a, b in zip(path[k], anchor)) >= threshold:
            taus.append(k)
            anchor = path[k]
    return tuple(taus)


def sample_crossings(field, region, x, l, n_samples, seed,
                     include_rejected=False, max_attempts=None):
    """Episodes of the walk conditioned on hitting x before exiting the
    region, by plain rejection; each accepted trace carries the importance
    weight exp(-sum omega) so weighted means estimate expectations under the
    tilted-and-conditioned path measure. Episodes run in lockstep batches of
    CROSSING_BATCH consecutive ids and are consumed in id order, so the
    traces do not depend on the batch size."""
    if l < 4 or l % 2:
        raise ParameterError("l must be even and >= 4")
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    x = as_point(x)
    ss = SiteSet(region_sites(region))
    if ss.index_one(x) < 0 or ss.index_one((0,) * ss.d) < 0:
        raise DomainError("0 and x must lie in the region")
    if max_attempts is None:
        max_attempts = max(200_000, 50 * n_samples)
    traces = []
    accepted = 0
    for first in itertools.count(0, CROSSING_BATCH):
        batch = np.arange(first, first + CROSSING_BATCH, dtype=np.int64)
        walked = _walk(field, ss, x, seed, batch, record=True)
        # episode ids count from 0, so an episode's id is the attempts before it
        for attempts, ok, logw, rows in zip(batch.tolist(), *walked):
            if attempts >= max_attempts:
                rate = accepted / attempts
                if rate < 1e-6:
                    raise FeasibilityError(
                        f"acceptance rate {rate:.2e} below 1e-6 after {attempts} attempts"
                    )
                max_attempts *= 2
            if ok:
                path = [tuple(p) for p in ss.sites[rows].tolist()]
                taus = _crossing_skeleton(path, l)
                # the range A = {S_k : 0 <= k < H(x)} excludes the endpoint x
                visited = set(path[:-1])
                cubes = tuple(sorted({coarse_index(p, "C", l) for p in visited}))
                tr = CrossingTrace(True, math.exp(logw), taus, cubes, len(visited), l)
                assert tr.range_size <= (3 * l) ** ss.d * tr.animal_size
                traces.append(tr)
                accepted += 1
                if accepted == n_samples:
                    return traces
            elif include_rejected:
                traces.append(CrossingTrace(False, 0.0, (), (), len(set(rows.tolist())), l))
