"""Counter-based keyed random numbers.

Every draw is a pure function of an integer key tuple, so consumers can
evaluate decisions in any order (or in parallel) and still reproduce the
exact same values.  The mixer is the splitmix64 finalizer chained over the
key components; it passes the calibration tests in the mask suite, which
is all this package asks of it.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *keys: int) -> int:
    """Collapse (seed, k1, k2, ...) into one well-mixed 64-bit value: the
    child seed of a named stream, e.g. (seed, epoch, frame index)."""
    h = _mix64(int(seed) + _GOLDEN)
    for k in keys:
        h = _mix64(h + _GOLDEN + (int(k) & _MASK64))
    return h


def uniform_array(seed: int, *key_arrays: np.ndarray) -> np.ndarray:
    """Deterministic draws in [0, 1): one per row of the broadcast key
    arrays, the top 53 bits of derive_seed(seed, *row) scaled by 2**-53.

    Each positional array (or scalar) supplies one key component; all are
    broadcast against each other.  Leading scalar keys, such as a stream
    salt, fold into the seed once; the rest mix in place on an at least
    1-d uint64 array, whose wraparound is silent where numpy scalars' warns.
    """
    keys = [np.asarray(a) for a in key_arrays]
    shape = np.broadcast_shapes(*(a.shape for a in keys))
    lead = next((i for i, a in enumerate(keys) if a.ndim), len(keys))
    h = np.full(shape or 1, derive_seed(seed, *keys[:lead]), dtype=np.uint64)
    golden, m1, m2 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
    for a in keys[lead:]:
        h += golden
        h += a.astype(np.uint64)
        h ^= h >> np.uint64(30)
        h *= m1
        h ^= h >> np.uint64(27)
        h *= m2
        h ^= h >> np.uint64(31)
    u = (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    return u.reshape(shape)
