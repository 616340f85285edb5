"""Geometry of Z^d: norms, boxes, coarse-graining indices and
lattice-animal enumeration."""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError

# Enumeration caps are configuration, not constants: animal counts explode
# combinatorially, so callers may raise them explicitly.
DEFAULT_ANIMAL_CAPS = {2: 8, 3: 5}


def as_point(p):
    """Coerce to a tuple of Python ints."""
    return tuple(int(c) for c in p)


def norms(p):
    """(l1, l2, linf) norms of the coordinate vector."""
    a = np.asarray(p, dtype=np.int64)
    ab = np.abs(a)
    return int(ab.sum()), float(np.sqrt((a.astype(float) ** 2).sum())), int(ab.max(initial=0))


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned box of lattice sites: lo inclusive, hi exclusive per axis."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", as_point(self.lo))
        object.__setattr__(self, "hi", as_point(self.hi))
        if len(self.lo) != len(self.hi):
            raise ParameterError("lo and hi must have the same dimension")
        if not all(l < h for l, h in zip(self.lo, self.hi)):
            raise ParameterError("BoxRegion requires lo < hi componentwise")

    @property
    def dimension(self):
        return len(self.lo)

    @property
    def shape(self):
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def site_count(self):
        return int(np.prod(self.shape))

    def contains(self, p):
        return all(l <= c < h for c, l, h in zip(p, self.lo, self.hi))

    def sites(self):
        """All sites as an (n, d) int64 array, row-major order."""
        return np.indices(self.shape, dtype=np.int64).reshape(self.dimension, -1).T + self.lo

    @staticmethod
    def centered(radius, d):
        """The box [-radius, radius]^d (inclusive on both ends)."""
        r = int(radius)
        return BoxRegion((-r,) * d, (r + 1,) * d)


def coarse_index(p, scheme, scale):
    """Coarse-graining cell index of p.

    scheme "B": boxes M*q + [0, M)^d, scale = M >= 1.
    scheme "C": cubes l*q + [-l/2, l/2)^d, scale = l even and >= 2.
    """
    p = np.asarray(p, dtype=np.int64)
    scale = int(scale)
    if scheme == "B":
        if scale < 1:
            raise ParameterError("B-scheme requires M >= 1")
        return tuple(int(v) for v in np.floor_divide(p, scale))
    if scheme == "C":
        if scale < 2 or scale % 2:
            raise ParameterError("C-scheme requires l even and >= 2")
        return tuple(int(v) for v in np.floor_divide(p + scale // 2, scale))
    raise ParameterError(f"unknown coarse scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Lattice animals


@dataclass(frozen=True)
class AnimalSpec:
    dimension: int
    size: int
    connectivity: str = "L1"  # "L1" or "Linf"
    anchored: bool = False

    def __post_init__(self):
        if self.size < 1:
            raise ParameterError("animal size must be >= 1")
        if self.connectivity not in ("L1", "Linf"):
            raise ParameterError("connectivity must be 'L1' or 'Linf'")


def _moves(d, connectivity):
    if connectivity == "L1":
        return [tuple(v) for v in np.vstack([np.eye(d, dtype=int), -np.eye(d, dtype=int)])]
    deltas = np.stack(np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij"), axis=-1).reshape(-1, d)
    return [tuple(v) for v in deltas if any(v)]


def canonical_form(cells):
    """Sorted coordinate tuple translated so the lexicographic minimum is the origin."""
    cells = sorted(as_point(c) for c in cells)
    base = cells[0]
    return tuple(tuple(c - b for c, b in zip(cell, base)) for cell in cells)


def enumerate_animals(spec: AnimalSpec, cap=None):
    """Enumerate lattice animals of the given size exactly once.

    Unanchored animals are fixed-translate classes in canonical form;
    anchored enumeration yields every translate containing the origin.
    Returns (list of site-set tuples, count).
    """
    cap = DEFAULT_ANIMAL_CAPS.get(spec.dimension, 4) if cap is None else int(cap)
    if spec.size > cap:
        raise CapacityError(
            f"animal size {spec.size} exceeds cap {cap} for d={spec.dimension}"
        )
    animals = list(_animals(spec.dimension, spec.connectivity, spec.size, spec.anchored))
    return animals, len(animals)


@functools.cache
def _animals(d, connectivity, size, anchored):
    """enumerate_animals' animals, sorted, enumerated once per process: the
    fixed animals of a size grow from those of the size below, and the
    anchored ones are the fixed ones translated to put each cell at the
    origin."""
    if anchored:
        return tuple(sorted({
            tuple(sorted(tuple(c - b for c, b in zip(other, cell)) for other in animal))
            for animal in _animals(d, connectivity, size, False) for cell in animal}))
    if size == 1:
        return (((0,) * d,),)
    moves = _moves(d, connectivity)
    grown = set()
    for animal in _animals(d, connectivity, size - 1, False):
        cells = set(animal)
        for cell in animal:
            for mv in moves:
                nb = tuple(c + m for c, m in zip(cell, mv))
                if nb not in cells:
                    grown.add(canonical_form(cells | {nb}))
    return tuple(sorted(grown))
