"""Frames as finite vector sequences and their canonical operators.

A frame here is an ordered list of M vectors in R^N or C^N.  The four
operators (synthesis, analysis, frame operator, Gram matrix) are plain
dense matrices; frame and Riesz bounds are extreme eigenvalues of the
frame operator and Gram matrix respectively, which is why the two bound
computations have distinct failure modes (a non-spanning input is not a
frame, a dependent input is not a Riesz sequence).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matcore
from .errors import BadParam, NotAFrame, NotIndependent, NotUnitNorm, ShapeMismatch

UNIT_NORM_TOL = 1e-12
TIGHT_RELTOL = 1e-10
EQUIANGULAR_TOL = 1e-10

REAL = "real"
COMPLEX = "complex"


@dataclass(frozen=True)
class Frame:
    """Ordered vector sequence with an explicit field tag.

    vectors : (M, N) array, one vector per row
    field : "real" or "complex"
    """

    field: str
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", checked_vectors(self.vectors, self.field))

    @classmethod
    def from_vectors(cls, vectors, field=None) -> "Frame":
        return cls(field=field_of(vectors) if field is None else field, vectors=vectors)

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @property
    def is_unit_norm(self) -> bool:
        return unit_norm(self.vectors)

    def subframe(self, indices) -> "Frame":
        return Frame(field=self.field, vectors=self.vectors[list(indices)])


def field_of(vectors) -> str:
    """The field a vector array's dtype stands for: complex or real."""
    return COMPLEX if np.iscomplexobj(vectors) else REAL


def checked_vectors(vectors, field: str, ndim: int = 2) -> np.ndarray:
    """Frame vectors (ndim 2, (M, N)) or a stack of them (ndim 3, (K, M, N))
    as a read-only float64 (real field) or complex128 copy; BadParam for a
    bad field or non-finite or overflowing entries, ShapeMismatch for a
    wrong ndim or an empty axis."""
    if field not in (REAL, COMPLEX):
        raise BadParam(f"unknown field {field!r}")
    v = np.asarray(vectors)
    if v.ndim != ndim or 0 in v.shape:
        raise ShapeMismatch(f"vectors must be a non-empty {ndim}-d array, got shape {v.shape}")
    if field == REAL:
        if np.iscomplexobj(v):
            if np.any(v.imag != 0.0):
                raise BadParam("real-tagged frame has non-zero imaginary parts")
            v = v.real
        v = v.astype(np.float64)
    else:
        v = v.astype(np.complex128)
    # the largest frame's sum of squared norms; inf or NaN on a non-finite entry or an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.max((v.conj() * v).real.sum(axis=(-2, -1))))
    if not math.isfinite(total) and not np.all(np.isfinite(v)):
        raise BadParam("frame vectors have non-finite entries")
    # the outer-product Gram's Frobenius norm is at most sum_i |phi_i|^4,
    # so at most total^2 (Cauchy-Schwarz); it bounds every eigenvalue, and
    # the self-adjointness test squares it
    if not math.isfinite((total * total) * (total * total)):
        raise BadParam("frame vectors are too large: the outer-product Gram's norm overflows")
    v.flags.writeable = False
    return v


def unit_norm(v) -> bool:
    """Whether every vector row of a frame, or of an (..., M, N) stack of
    them, has norm 1 within UNIT_NORM_TOL (a norm that overflows has not)."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(v, axis=-1)
    return bool(np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL))


class BoundsReport(NamedTuple):
    """Optimal lower/upper bounds of a frame or Riesz sequence."""

    lower: float
    upper: float
    tight: bool
    parseval: bool


def _bounds_report(lower: float, upper: float) -> BoundsReport:
    tight = abs(lower - upper) <= TIGHT_RELTOL * upper
    parseval = tight and abs(upper - 1.0) <= TIGHT_RELTOL
    return BoundsReport(lower=float(lower), upper=float(upper), tight=bool(tight),
                        parseval=bool(parseval))


def synthesis(f: Frame) -> np.ndarray:
    """N x M matrix whose columns are the frame vectors."""
    return f.vectors.T


def analysis(f: Frame) -> np.ndarray:
    """M x N adjoint of synthesis; (analysis @ psi)[i] = <psi, phi_i>."""
    return f.vectors.conj()


def frame_operator(f: Frame) -> np.ndarray:
    """S = T T*, self-adjoint positive semi-definite N x N."""
    t = synthesis(f)
    return t @ t.conj().T


def vector_gram(v: np.ndarray) -> np.ndarray:
    """Gram matrices of (..., M, N) stacked vector rows; G[..., i, j] = <phi_j, phi_i>."""
    return v.conj() @ v.swapaxes(-1, -2)


def outer_gram(v: np.ndarray) -> np.ndarray:
    """The outer Gram |G|^2 of (..., M, N) vector rows, per frame: entry
    (i, j) is <phi_i phi_i*, phi_j phi_j*>_F = |<phi_j, phi_i>|^2."""
    return np.abs(vector_gram(v)) ** 2


def gram_eigenvalues(v: np.ndarray) -> tuple:
    """The descending eigenvalues of each vector Gram of (..., M, N) vector
    rows, and whether each frame's vectors are independent (the rank rule)."""
    w = matcore.hermitian_eigvalues(vector_gram(v))
    return w, matcore.rank_from_eigenvalues(w, w.shape[-1:] * 2) == v.shape[-2]


def gram(f: Frame) -> np.ndarray:
    """G = T* T; G[i, j] = <phi_j, phi_i>."""
    return vector_gram(f.vectors)


def spans(f: Frame) -> bool:
    return matcore.numerical_rank(synthesis(f)) == f.n


def frame_bounds(f: Frame) -> BoundsReport:
    """Optimal frame bounds: extreme eigenvalues of the frame operator."""
    if not spans(f):
        raise NotAFrame(f"vectors span a proper subspace of dimension < {f.n}")
    w = matcore.hermitian_eigvalues(frame_operator(f))
    return _bounds_report(w[-1], w[0])


def riesz_bounds(f: Frame) -> BoundsReport:
    """Optimal Riesz bounds: extreme eigenvalues of the Gram matrix."""
    w, independent = gram_eigenvalues(f.vectors)
    if not independent:
        raise NotIndependent("vectors are linearly dependent at tolerance")
    return _bounds_report(w[-1], w[0])


def frame_potential(f: Frame) -> float:
    """Sum of |<phi_i, phi_j>|^2 over all ordered pairs."""
    return float(np.sum(outer_gram(f.vectors)))


def inverse_frame_operator(f: Frame) -> np.ndarray:
    """S^{-1} through the eigendecomposition (S is self-adjoint PD for frames)."""
    if not spans(f):
        raise NotAFrame("frame operator is singular for non-spanning sequences")
    return matcore.spectral_inverse(matcore.hermitian_eig(frame_operator(f)))


def canonical_duals(f: Frame) -> np.ndarray:
    """Rows are S^{-1} phi_i, the canonical dual frame vectors."""
    return f.vectors @ inverse_frame_operator(f).T


def reconstruct(f: Frame, psi) -> np.ndarray:
    """Resynthesize psi from its dual-frame coefficients; the identity on frames."""
    psi = np.asarray(psi).reshape(-1)
    if psi.shape[0] != f.n:
        raise ShapeMismatch(f"psi has length {psi.shape[0]}, frame lives in dimension {f.n}")
    duals = canonical_duals(f)
    coeff = duals.conj() @ psi  # <psi, S^-1 phi_i>
    return synthesis(f) @ coeff


def is_equiangular(f: Frame):
    """Common squared inner product c of distinct vectors, or None.

    Requires unit norm.  Returns 0.0 for a single vector (vacuous case).
    """
    if not f.is_unit_norm:
        raise NotUnitNorm("equiangularity is defined for unit-norm sequences")
    if f.m < 2:
        return 0.0
    off = outer_gram(f.vectors)[~np.eye(f.m, dtype=bool)]
    if off.max() - off.min() <= EQUIANGULAR_TOL:
        return float(off.mean())
    return None
