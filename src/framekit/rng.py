"""Deterministic, implementation-portable random stream.

The generator is counter based: output ``k`` of stream ``seed`` is
``mix64(seed + (k + 1) * GOLDEN)`` where ``mix64`` is the splitmix64
finalizer.  Uniform doubles take the top 53 bits; normal deviates come
from Box-Muller pairs.  The same (seed, counter) pair therefore yields
the same values in any language, which is why this exists instead of
``numpy.random``.  Many streams (``counter_words``) or a run of unit
vectors from one stream (``unit_vectors``) are drawn in one block, with
the values that one-at-a-time draws give.
"""

import numpy as np

from . import matcore

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _mix64(z):
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def counter_words(seeds, start: int, count: int) -> np.ndarray:
    """Raw words ``start .. start + count - 1`` of each stream in ``seeds``.

    ``seeds`` is one seed or an array of them; the result has shape
    ``seeds.shape + (count,)``, all mixed in one ``_mix64`` call.
    """
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    # every operand is an array, so the uint64 products wrap silently; only
    # numpy scalar arithmetic reports overflow
    return _mix64(np.asarray(seeds, dtype=np.uint64)[..., None] + idx * _GOLDEN)


def seed_words(seeds) -> np.ndarray:
    """Integer seeds of any size reduced to the streams' 64-bit words."""
    return np.array([int(s) & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64)


def normal_words(count: int, cplx: bool) -> int:
    """Raw words one ``normals(count)`` (or ``complex_normals``) call draws."""
    if cplx:
        count *= 2
    return 2 * ((count + 1) // 2)


def word_uniforms(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from raw words: the top 53 bits of each."""
    return (words >> np.uint64(11)) * 2.0**-53


def box_muller(words: np.ndarray, count: int) -> np.ndarray:
    """``count`` normal deviates from each row of 2 * pairs raw words.

    The first half of a row gives the radii, the second half the angles,
    and the cosines come before the sines, so a (K, 2 * pairs) block of
    consecutive words gives row by row what K ``normals(count)`` calls do.
    """
    pairs = words.shape[-1] // 2
    u = word_uniforms(words)
    # shift into (0, 1] so the log never sees zero
    r = np.sqrt(-2.0 * np.log(u[..., :pairs] + 2.0**-54))
    theta = 2.0 * np.pi * u[..., pairs:]
    out = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    return out[..., :count]


class Stream:
    """Splitmix64 counter stream with a persistent cursor."""

    def __init__(self, seed: int):
        self._seed = seed_words([seed])[0]
        self._counter = 0

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit words."""
        words = counter_words(self._seed, self._counter, count)
        self._counter += count
        return words

    def uniforms(self, count: int) -> np.ndarray:
        """Doubles in [0, 1)."""
        return word_uniforms(self.raw(count))

    def normals(self, count: int) -> np.ndarray:
        """Standard normal deviates via Box-Muller."""
        return box_muller(self.raw(normal_words(count, False)), count)

    def complex_normals(self, count: int) -> np.ndarray:
        z = self.normals(2 * count)
        return z[:count] + 1j * z[count:]


def unit_rows(words: np.ndarray, n: int, cplx: bool) -> np.ndarray:
    """Unit vectors from a (k, normal_words(n, cplx)) block of raw words.

    Row i is the vector that ``normals(n)`` (or ``complex_normals(n)``),
    divided by its ``np.linalg.norm``, gives on that row's words.
    """
    z = box_muller(words, 2 * n if cplx else n)
    if cplx:
        z = z[:, :n] + 1j * z[:, n:]
    return z / matcore.row_norms(z)[:, None]


def unit_vectors(stream: Stream, k: int, n: int, cplx: bool) -> np.ndarray:
    """k unit vectors of dimension n from one ``raw`` draw, shape (k, n).

    Sample i is what the i-th of k successive ``normals(n)`` (or
    ``complex_normals(n)``) calls, normalised, would give, and the stream
    ends where they would leave it, so sample i does not depend on k.
    """
    w = normal_words(n, cplx)
    return unit_rows(stream.raw(k * w).reshape(k, w), n, cplx)
