"""Counter-based deterministic random numbers.

Every random quantity in the package is a pure function of a 64-bit seed and
an integer counter tuple (site coordinates, episode index, step index, ...).
This makes sampled fields independent of traversal order and worker count:
permuting the order in which sites or episodes are drawn never changes any
value.

The mixer is the splitmix64 finalizer applied per counter word, in place.
Counters that share their leading words (one walk episode's steps) can
absorb them once with prefix_state and draw each last word with
last_word_uniform, bit for bit as counter_uniform would.
"""

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0**-53)
_MASK = (1 << 64) - 1


def _mix(h, tmp):
    """The splitmix64 finalizer on the uint64 array h, in place; tmp is
    scratch of h's shape."""
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(h, np.uint64(shift), out=tmp)
        h ^= tmp
        h *= mult
    np.right_shift(h, np.uint64(31), out=tmp)
    h ^= tmp


def _absorb(h, j, word, tmp):
    """Fold counter word j into the hash state h, in place."""
    h += np.uint64(0x9E3779B97F4A7C15 * (j + 1) & _MASK)
    h += word
    _mix(h, tmp)


def prefix_state(seed, prefixes):
    """The hash state of (seed, prefix) for each prefix tuple (the trailing
    axis of `prefixes`), to be extended by last_word_uniform: the words a
    batch of counters shares are absorbed once."""
    c = np.ascontiguousarray(np.asarray(prefixes, dtype=np.int64)).view(np.uint64)
    if c.ndim == 0:
        raise ValueError("counters must have at least one axis")
    h = np.full(c.shape[:-1], np.uint64(seed % (1 << 64)) ^ _GAMMA, dtype=np.uint64)
    tmp = np.empty_like(h)
    for j in range(c.shape[-1]):
        _absorb(h, j, c[..., j], tmp)
    return h


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
    h = prefix_state(seed, counters)
    _mix(h, np.empty_like(h))
    return h[()]  # one counter tuple gives a scalar


def _unit(h):
    """Uniform float64 in (0, 1) from the hashes h, which are shifted in place."""
    h >>= np.uint64(11)
    return (h.astype(np.float64) + 0.5) * _INV_2_53


def counter_uniform(seed, counters):
    """Uniform float64 in the open interval (0, 1), one per counter tuple."""
    return _unit(counter_hash(seed, counters))


def last_word_uniform(state, k, word, out, tmp):
    """counter_uniform(seed, (*prefix, word)) for every state of
    prefix_state(seed, prefixes) with k-word prefixes, bit for bit; out
    and tmp are uint64 scratch of state's shape, so a caller that draws
    many words allocates them once."""
    np.copyto(out, state)
    _absorb(out, k, np.uint64(int(word) & _MASK), tmp)
    _mix(out, tmp)
    return _unit(out)


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
