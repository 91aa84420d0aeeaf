"""Deterministic, implementation-portable random stream.

The generator is counter based: output ``k`` of stream ``seed`` is
``mix64(seed + (k + 1) * GOLDEN)`` where ``mix64`` is the splitmix64
finalizer.  Uniform doubles take the top 53 bits; normal deviates come
from Box-Muller pairs.  The same (seed, counter) pair therefore yields
the same values in any language, which is why this exists instead of
``numpy.random``.
"""

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _mix64(z):
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def box_muller(words: np.ndarray, count: int) -> np.ndarray:
    """``count`` normal deviates from each row of 2 * pairs raw words.

    The first half of a row gives the radii, the second half the angles,
    and the cosines come before the sines, so a (K, 2 * pairs) block of
    consecutive words gives row by row what K ``normals(count)`` calls do.
    """
    pairs = words.shape[-1] // 2
    u = (words >> np.uint64(11)) * 2.0**-53
    # shift into (0, 1] so the log never sees zero
    r = np.sqrt(-2.0 * np.log(u[..., :pairs] + 2.0**-54))
    theta = 2.0 * np.pi * u[..., pairs:]
    out = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    return out[..., :count]


class Stream:
    """Splitmix64 counter stream with a persistent cursor."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit words."""
        idx = np.arange(self._counter + 1, self._counter + count + 1, dtype=np.uint64)
        self._counter += count
        with np.errstate(over="ignore"):
            return _mix64(self._seed + idx * _GOLDEN)

    def uniforms(self, count: int) -> np.ndarray:
        """Doubles in [0, 1)."""
        return (self.raw(count) >> np.uint64(11)) * 2.0**-53

    def normals(self, count: int) -> np.ndarray:
        """Standard normal deviates via Box-Muller."""
        return box_muller(self.raw(2 * ((count + 1) // 2)), count)

    def complex_normals(self, count: int) -> np.ndarray:
        z = self.normals(2 * count)
        return z[:count] + 1j * z[count:]
