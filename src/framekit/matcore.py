"""Dense linear algebra substrate over the real and complex fields.

Everything downstream (frame bounds, outer-product Gram spectra, the
dependence classifier) reduces to self-adjoint eigendecompositions and
numerical rank, so both live here with explicit, reportable tolerances.
Each spectral entry point is one LAPACK call through numpy (``eigh``,
``eigvalsh``, ``svd``); this module adds only the self-adjointness test,
descending order, canonical eigenvector phases and the rank threshold.
``hermitian_eig``, ``hermitian_eigvalues`` and the rank rule also take a
(..., n, n) stack and decide every matrix of it in the same LAPACK call,
with the same result per matrix as a call on that matrix alone.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import BadParam, NotSelfAdjoint, ShapeMismatch

_EPS = np.finfo(np.float64).eps

#: relative tolerance for the self-adjointness test
SELF_ADJOINT_RELTOL = 1e-12


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a self-adjoint matrix, or of each matrix of a stack.

    eigenvalues : real, sorted descending along the last axis
    eigenvectors : orthonormal columns, eigenvectors[..., :, i] pairs with
        eigenvalues[..., i]
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_stack(a) -> np.ndarray:
    """A matrix or a stack of matrices, shape (..., rows, cols)."""
    a = np.asarray(a)
    if a.ndim < 2:
        raise ShapeMismatch(f"expected a matrix or a stack of matrices, got shape {a.shape}")
    if a.dtype == complex or np.iscomplexobj(a):
        return a.astype(np.complex128, copy=False)
    return a.astype(np.float64, copy=False)


def as_matrix(a) -> np.ndarray:
    a = as_stack(a)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d array, got shape {a.shape}")
    return a


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _within_skew(a: np.ndarray, adj: np.ndarray, reltol: float) -> bool:
    """The self-adjointness rule: max|a - a*| <= reltol * ||a||_F for every
    matrix of the stack a, given its adjoint adj."""
    # the Frobenius norm exactly as numpy.linalg.norm(a, axis=(-2, -1)) forms it
    scale = np.sqrt(np.add.reduce((a.conj() * a).real, axis=(-2, -1)))
    skew = np.abs(a - adj).max(axis=(-2, -1), initial=0.0)
    return bool(np.all(skew <= reltol * scale))


def is_self_adjoint(a, reltol: float = SELF_ADJOINT_RELTOL) -> bool:
    """Whether every matrix of a matrix or stack passes the self-adjointness test."""
    a = as_stack(a)
    if a.shape[-2] != a.shape[-1]:
        return False
    return _within_skew(a, _adjoint(a), reltol)


def _canonical_phases(v: np.ndarray) -> np.ndarray:
    """First entry of each column with modulus > 1e-10 made real positive.

    ``v`` is a matrix or a stack of matrices.  A column with no such entry
    is returned unchanged.  One vectorised pass: each column is multiplied
    by conj(z) / |z| for its first large entry z, the same product a
    column-by-column loop would form (|z| as hypot, which is how numpy's
    scalar abs forms it; its array abs can differ in the last bit).
    """
    big = np.abs(v) > 1e-10
    has = big.any(axis=-2, keepdims=True)
    first = big.argmax(axis=-2)
    if v.ndim == 2:  # plain indexing: take_along_axis costs more than the rest
        z = v[first, np.arange(v.shape[1])]
    else:
        z = np.take_along_axis(v, first[..., None, :], axis=-2)
    z = np.where(has, z, 1.0)
    return np.where(has, v * (np.conj(z) / np.hypot(z.real, z.imag)), v)


def _symmetrized(a) -> np.ndarray:
    """Validated (a + a*)/2 of a matrix or stack, so LAPACK's result does not
    depend on which triangle it reads."""
    a = as_stack(a)
    if a.shape[-2] != a.shape[-1]:
        raise NotSelfAdjoint(f"matrix is {a.shape[-2]}x{a.shape[-1]}, not square")
    adj = _adjoint(a)
    if not _within_skew(a, adj, SELF_ADJOINT_RELTOL):
        raise NotSelfAdjoint("matrix is not self-adjoint within tolerance")
    return (a + adj) / 2.0


def hermitian_eig(a) -> SpectralData:
    """Full eigendecomposition of a self-adjoint matrix.

    Raises NotSelfAdjoint when max|a[i,j] - conj(a[j,i])| exceeds
    1e-12 * ||a||_F.  Eigenvalues come back descending; each eigenvector
    has its first non-negligible entry made real and positive.  A (K, n, n)
    stack gives (K, n) eigenvalues and (K, n, n) eigenvectors from one
    call, each matrix validated and decomposed as it would be alone.
    """
    w, v = np.linalg.eigh(_symmetrized(a))
    w = w[..., ::-1].copy()
    v = _canonical_phases(v[..., ::-1])
    w.flags.writeable = False
    v.flags.writeable = False
    return SpectralData(eigenvalues=w, eigenvectors=v)


def hermitian_eigvalues(a) -> np.ndarray:
    """Descending eigenvalues of a self-adjoint matrix (LAPACK ``eigvalsh``).

    A (K, n, n) stack gives a (K, n) array from one call; each matrix gets
    the same self-adjointness test as a single one.
    """
    return np.linalg.eigvalsh(_symmetrized(a))[..., ::-1]


def singular_values(a) -> np.ndarray:
    """Descending singular values (LAPACK ``svd``, no vectors).

    Bidiagonalization works on ``a`` itself rather than on a*a, so true
    zeros land near eps * sigma_max instead of sqrt(eps) * sigma_max and
    the default rank tolerance stays meaningful.
    """
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def default_rank_tol(shape: tuple[int, int], sigma_max: float) -> float:
    """max(rows, cols) * machine epsilon * largest singular value."""
    return max(shape) * _EPS * sigma_max


def env_rank_tol():
    """The FRAMEKIT_TOL override as a float, or None when it is unset.

    Raises BadParam unless the value parses as a finite number >= 0; this
    is the only place the variable is read.
    """
    env = os.environ.get("FRAMEKIT_TOL")
    if env is None:
        return None
    try:
        tol = float(env)
    except ValueError:
        raise BadParam(f"FRAMEKIT_TOL={env!r} is not a number") from None
    if not (math.isfinite(tol) and tol >= 0.0):
        raise BadParam(f"FRAMEKIT_TOL={env!r} must be finite and >= 0")
    return tol


def rank_from_singular_values(sigma, shape, tol=None):
    """Count of singular values above ``tol``, along the last axis.

    ``sigma`` is descending, or a stack of descending rows that each come
    from a matrix of ``shape``; a stack gives an integer array of ranks,
    each row judged against its own default tolerance.
    """
    sigma = np.asarray(sigma)
    if tol is None:
        tol = env_rank_tol()
    if tol is None:
        tol = default_rank_tol(shape, sigma[..., 0] if sigma.shape[-1] else 0.0)
    if sigma.ndim == 1:
        return int(np.count_nonzero(sigma > tol))
    return (sigma > np.asarray(tol)[..., None]).sum(axis=-1)


def numerical_rank(a, tol=None) -> int:
    """Count of singular values above ``tol``.

    Default tol is max(rows, cols) * eps * sigma_max, overridable by the
    FRAMEKIT_TOL environment variable.  Dependence verdicts downstream
    hinge on this count, so the threshold is explicit and reportable.
    """
    a = as_matrix(a)
    sigma = singular_values(a)
    return rank_from_singular_values(sigma, a.shape, tol)


def hadamard(a, b) -> np.ndarray:
    """Entrywise product."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"hadamard needs equal shapes, got {a.shape} and {b.shape}")
    return a * b


def kronecker(a, b) -> np.ndarray:
    """Block matrix [a[i,j] * b]."""
    return np.kron(as_matrix(a), as_matrix(b))


def frobenius_ip(s, t):
    """Trace inner product Tr(s* t); a plain sum of products over the reals."""
    s = as_matrix(s)
    t = as_matrix(t)
    if s.shape != t.shape:
        raise ShapeMismatch(f"frobenius_ip needs equal shapes, got {s.shape} and {t.shape}")
    value = np.sum(np.conj(s) * t)
    return complex(value) if np.iscomplexobj(value) else float(value)


def vectorize_outer(phi) -> np.ndarray:
    """Flatten phi phi* into the stacked blocks phi[k] * conj(phi), k = 1..N."""
    phi = np.asarray(phi).reshape(-1)
    return np.kron(phi, np.conj(phi))


def sylvester_det_check(s, t):
    """Both sides of det(I_M + S T) = det(I_N + T S)."""
    s = as_matrix(s)
    t = as_matrix(t)
    m, n = s.shape
    if t.shape != (n, m):
        raise ShapeMismatch(f"incompatible shapes {s.shape} and {t.shape}")
    left = np.linalg.det(np.eye(m, dtype=np.result_type(s, t)) + s @ t)
    right = np.linalg.det(np.eye(n, dtype=np.result_type(s, t)) + t @ s)
    if not (np.iscomplexobj(s) or np.iscomplexobj(t)):
        return float(left.real), float(right.real)
    return complex(left), complex(right)
