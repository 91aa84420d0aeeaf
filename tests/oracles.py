"""Independent oracles for the test suite.

Nothing here goes through ``framekit.matcore`` or ``framekit.serialization``:
ranks come from exact rational elimination, eigenvalues and solves from
numpy's LAPACK bindings called directly or from closed forms, CSV tables
from the ``csv`` module, JSON documents from the ``json`` module with its
non-standard constants refused.
"""

import csv
import json
from fractions import Fraction

import numpy as np


def rational_rank_exact(matrix) -> int:
    """Rank over the Gaussian rationals; entries must be binary-exact."""
    m = np.asarray(matrix)
    rows = []
    for r in range(m.shape[0]):
        row = []
        for c in range(m.shape[1]):
            z = m[r, c]
            if isinstance(z, (int, np.integer)):  # complex() would round above 2^53
                row.append((Fraction(int(z)), Fraction(0)))
            else:
                z = complex(z)
                row.append((Fraction(z.real), Fraction(z.imag)))
        rows.append(row)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    top = 0
    for col in range(ncols):
        piv = next((r for r in range(top, nrows)
                    if rows[r][col][0] != 0 or rows[r][col][1] != 0), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        pre, pim = rows[top][col]
        den = pre * pre + pim * pim
        ire, iim = pre / den, -pim / den
        for r in range(top + 1, nrows):
            cre, cim = rows[r][col]
            if cre == 0 and cim == 0:
                continue
            fre = cre * ire - cim * iim
            fim = cre * iim + cim * ire
            for c in range(col, ncols):
                bre, bim = rows[top][c]
                ore, oim = rows[r][c]
                rows[r][c] = (ore - (fre * bre - fim * bim),
                              oim - (fre * bim + fim * bre))
        top += 1
        rank += 1
        if top == nrows:
            break
    return rank


def eig_desc(a) -> np.ndarray:
    """Descending eigenvalues straight from LAPACK ``eigvalsh``."""
    return np.sort(np.linalg.eigvalsh(np.asarray(a)))[::-1]


def elliptic_values_solve(vectors, candidates) -> np.ndarray:
    """w^T G^{-1} w per candidate row, w_i = |<c, phi_i>|^2, through a
    LAPACK ``solve`` in the outer Gram G = |<phi_i, phi_j>|^2."""
    vectors = np.asarray(vectors)
    w = np.abs(np.asarray(candidates) @ vectors.conj().T) ** 2
    g = np.abs(vectors.conj() @ vectors.T) ** 2
    return np.einsum("km,km->k", w, np.linalg.solve(g, w.T).T)


def eigvals_2x2_symmetric(a, b, c):
    """Closed-form eigenvalues of [[a, b], [b, c]], descending."""
    mean = (a + c) / 2.0
    radius = np.sqrt(((a - c) / 2.0) ** 2 + b * b)
    return mean + radius, mean - radius


def trace_ip(s, t):
    """Trace inner product Tr(s* t), the plain sum of the entries of
    conj(s) * t: a complex for complex operands, a float otherwise."""
    s, t = np.asarray(s), np.asarray(t)
    assert s.shape == t.shape, (s.shape, t.shape)
    value = np.sum(np.conj(s) * t)
    return complex(value) if np.iscomplexobj(value) else float(value)


def read_matrix_csv(fp) -> np.ndarray:
    """The matrix of a CSV table: a header row, then one matrix row per
    line; headers ending in ``_re`` pair each column with the next one as
    the real and imaginary parts of one complex entry."""
    header, *lines = csv.reader(fp)
    values = np.array(lines, dtype=float)
    if not header[0].endswith("_re"):
        return values
    out = values[:, 0::2].astype(complex)
    out.imag = values[:, 1::2]
    return out


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """``json.loads`` that refuses NaN, Infinity and -Infinity, as a strict
    JSON reader does."""
    return json.loads(text, parse_constant=_reject_constant)


def random_self_adjoint(rng, n, cplx):
    a = rng.standard_normal((n, n))
    if cplx:
        a = a + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_unit_vec(rng, n, cplx):
    v = rng.standard_normal(n)
    if cplx:
        v = v + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)
