"""Counter-based deterministic random numbers.

Every random quantity in the package is a pure function of a 64-bit seed and
an integer counter tuple (site coordinates, episode index, step index, ...).
This makes sampled fields independent of traversal order and worker count:
permuting the order in which sites or episodes are drawn never changes any
value.

The mixer is the splitmix64 finalizer applied per counter word.
"""

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0**-53)
_MASK = (1 << 64) - 1


def _mix(h):
    h = (h ^ (h >> np.uint64(30))) * _M1
    h = (h ^ (h >> np.uint64(27))) * _M2
    return h ^ (h >> np.uint64(31))


def counter_hash(seed, counters):
    """64-bit hash of (seed, counters).

    Parameters
    ----------
    seed : int
        Interpreted modulo 2**64.
    counters : array_like of int, shape (..., k)
        The trailing axis is the counter tuple; leading axes broadcast.

    Returns
    -------
    uint64 ndarray of shape counters.shape[:-1].
    """
    c = np.ascontiguousarray(np.asarray(counters, dtype=np.int64)).view(np.uint64)
    if c.ndim == 0:
        raise ValueError("counters must have at least one axis")
    h = np.full(c.shape[:-1], np.uint64(seed % (1 << 64)) ^ _GAMMA, dtype=np.uint64)
    with np.errstate(over="ignore"):  # modular 2**64 wraparound is the point
        for j in range(c.shape[-1]):
            tweak = np.uint64((0x9E3779B97F4A7C15 * (j + 1)) % (1 << 64))
            h = _mix(h + tweak + c[..., j])
        return _mix(h)


def counter_uniform(seed, counters):
    """Uniform float64 in the open interval (0, 1), one per counter tuple."""
    h = counter_hash(seed, counters)
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53


def _mix_int(h):
    """_mix on one word held in a Python int."""
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK
    return h ^ (h >> 31)


def derive_seed(seed, *tags):
    """A fresh 64-bit seed for a named substream (e.g. per sample index):
    int(counter_hash(seed, tags)) for int64 tags, computed on Python ints,
    which is several times faster than numpy arrays for one tuple."""
    h = seed % (1 << 64) ^ 0x9E3779B97F4A7C15
    for j, tag in enumerate(map(int, tags), start=1):
        if not -(1 << 63) <= tag < 1 << 63:
            raise OverflowError(f"tag {tag} does not fit in int64")
        h = _mix_int(h + 0x9E3779B97F4A7C15 * j + tag & _MASK)
    return _mix_int(h)
