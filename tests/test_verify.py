"""The package's exact rank oracle against the tests' own one.

``verify.rational_rank`` is fraction-free integer (Bareiss) elimination
with complex matrices taken through their real embedding;
``oracles.rational_rank_exact`` is Gaussian elimination over Fractions
with complex arithmetic.  Two algorithms, so each checks the other.
"""

import numpy as np
import pytest

from framekit.verify import rational_rank

from oracles import rational_rank_exact


def _binary_exact(rng, rows, cols, cplx):
    a = rng.integers(-3, 4, (rows, cols)).astype(float)
    if cplx:
        a = a + 1j * rng.integers(-3, 4, (rows, cols))
    return a


@pytest.mark.parametrize("cplx", [False, True])
def test_random_shapes_against_fraction_elimination(cplx):
    rng = np.random.default_rng(401 + cplx)
    for _ in range(300):
        rows, cols = rng.integers(0, 7, 2)
        a = _binary_exact(rng, rows, cols, cplx) / 2.0 ** rng.integers(0, 4)
        assert rational_rank(a) == rational_rank_exact(a)


@pytest.mark.parametrize("cplx", [False, True])
def test_rank_deficient_and_zero_columns(cplx):
    rng = np.random.default_rng(403 + cplx)
    for _ in range(150):
        rows, cols = rng.integers(1, 8, 2)
        inner = int(rng.integers(1, min(rows, cols) + 1))
        a = _binary_exact(rng, rows, inner, cplx) @ _binary_exact(rng, inner, cols, cplx)
        a[:, rng.integers(0, cols)] = 0.0
        want = rational_rank_exact(a)
        assert want <= inner
        assert rational_rank(a) == want


@pytest.mark.parametrize("cplx", [False, True])
def test_extreme_binary_exponents(cplx):
    # entries 2^-1000 and 2^900 in one matrix: one common power of two makes
    # integers of about 1900 bits, which a float product would overflow
    rng = np.random.default_rng(405 + cplx)
    for _ in range(100):
        rows, cols = rng.integers(1, 6, 2)
        a = _binary_exact(rng, rows, cols, cplx)
        a = a * 2.0 ** rng.choice([-1000, -3, 0, 900], size=a.shape)
        assert rational_rank(a) == rational_rank_exact(a)


def test_hand_worked_cases():
    tiny, huge = 2.0 ** -1000, 2.0 ** 900
    assert rational_rank(np.zeros((3, 4))) == 0
    assert rational_rank(np.zeros((0, 3))) == 0
    assert rational_rank(np.zeros((3, 0))) == 0
    assert rational_rank([[huge, tiny], [tiny, 0.0]]) == 2
    assert rational_rank([[huge, huge], [tiny, tiny]]) == 1
    # rank 1 over C (row 2 = i row 1), rank 2 over R if the phases were dropped
    assert rational_rank(np.array([[1.0, 1j], [1j, -1.0]])) == 1
    assert rational_rank(np.array([[1.0, 1j], [1j, 1.0]])) == 2
    assert rational_rank(np.array([[0.5, 0.25, 0.0], [1.0, 0.5, 0.0]])) == 1
