"""Induced outer-product sequences {phi_i phi_i*} and their geometry.

The Gram matrix of the induced outer products is the Hadamard square
|G|^2 of the vector Gram matrix, a real PSD object even over C.  Its
rank decides independence; the vectorized M x N^2 synthesis matrix gives
a second, independent rank path that is asserted against the first
rather than voted with it.
"""

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import (
    BadParam,
    DimensionMismatch,
    InternalInconsistency,
    NotABasis,
    NotIndependent,
    NotUnitNorm,
    ZeroVector,
)
from .frame import BoundsReport, Frame, _bounds_report, gram, synthesis, vector_gram

ZERO_ENTRY_TOL = 1e-12


def ambient_outer_dim(f: Frame) -> int:
    """Dimension of the real span of self-adjoint N x N matrices."""
    n = f.n
    return n * (n + 1) // 2 if f.field == "real" else n * n


@dataclass(frozen=True)
class OuterSequence:
    """A frame together with its induced rank-one projections.

    outers : tuple of N x N self-adjoint matrices phi_i phi_i*
    gram_op : M x M real matrix of |<phi_i, phi_j>|^2
    rank : numerical rank of gram_op
    ambient_dim : dim of the self-adjoint matrix space the outers live in
    gram_spectrum : cached eigendecomposition of gram_op
    """

    source: Frame
    outers: tuple
    gram_op: np.ndarray
    rank: int
    ambient_dim: int
    gram_spectrum: matcore.SpectralData

    @property
    def m(self) -> int:
        return self.source.m


def _outer_spectra(v: np.ndarray):
    """gram_op = |G|^2, its eigendecomposition and its rank for (..., M, N)
    vector rows: the one place these are formed, for a frame or a stack."""
    gram_op = np.abs(vector_gram(v)) ** 2
    gram_op.flags.writeable = False
    spectrum = matcore.hermitian_eig(gram_op)
    rank = matcore.rank_from_eigenvalues(spectrum.eigenvalues, gram_op.shape[-2:])
    return gram_op, spectrum, rank


def _outer_products(v: np.ndarray) -> np.ndarray:
    """The (M, N, N) outer products phi_i phi_i* of (M, N) vector rows."""
    return v[:, :, None] * v.conj()[:, None, :]


def _sequence(f: Frame, gram_op, spectrum, rank) -> OuterSequence:
    outers = _outer_products(f.vectors)
    outers.flags.writeable = False
    return OuterSequence(source=f, outers=tuple(outers), gram_op=gram_op,
                         rank=int(rank), ambient_dim=ambient_outer_dim(f),
                         gram_spectrum=spectrum)


def induce(f: Frame) -> OuterSequence:
    """Build the outer-product sequence induced by a frame."""
    return _sequence(f, *_outer_spectra(f.vectors))


@dataclass(frozen=True)
class OuterBatch:
    """The outer sequences of K frames of one shape and field, decided by one
    stacked eigendecomposition.

    vectors : (K, M, N) stacked frame vectors; gram_op : (K, M, M);
    ranks : (K,) integers; gram_spectrum : stacked eigenvalues (K, M) and
    eigenvectors (K, M, M).
    """

    frames: tuple
    vectors: np.ndarray
    gram_op: np.ndarray
    ranks: np.ndarray
    gram_spectrum: matcore.SpectralData

    @property
    def independent(self) -> np.ndarray:
        """Per frame, whether its outer products are independent (rank == M)."""
        return self.ranks == self.gram_op.shape[-1]

    def sequence(self, i: int) -> OuterSequence:
        """Frame i's OuterSequence, equal to ``induce(frames[i])``, from the
        batch's decomposition."""
        spectrum = matcore.SpectralData(eigenvalues=self.gram_spectrum.eigenvalues[i],
                                        eigenvectors=self.gram_spectrum.eigenvectors[i])
        return _sequence(self.frames[i], self.gram_op[i], spectrum, self.ranks[i])

    def take(self, rows) -> "OuterBatch":
        """The batch of the frames at the given rows, sliced from this one."""
        rows = np.asarray(rows, dtype=int)
        spectrum = matcore.SpectralData(eigenvalues=self.gram_spectrum.eigenvalues[rows],
                                        eigenvectors=self.gram_spectrum.eigenvectors[rows])
        return OuterBatch(frames=tuple(self.frames[i] for i in rows), vectors=self.vectors[rows],
                          gram_op=self.gram_op[rows], ranks=self.ranks[rows],
                          gram_spectrum=spectrum)


def induce_batch(frames) -> OuterBatch:
    """``induce`` for frames of one shape and field, in one LAPACK call.

    Frame i's gram_op, spectrum and rank are bit for bit those of
    ``induce(frames[i])``.
    """
    frames = tuple(frames)
    if not frames:
        raise BadParam("induce_batch needs at least one frame")
    f0 = frames[0]
    if any(f.field != f0.field or f.vectors.shape != f0.vectors.shape for f in frames):
        raise DimensionMismatch("induce_batch needs frames of one shape and field")
    vectors = np.stack([f.vectors for f in frames])
    vectors.flags.writeable = False
    gram_op, spectrum, ranks = _outer_spectra(vectors)
    return OuterBatch(frames=frames, vectors=vectors, gram_op=gram_op, ranks=ranks,
                      gram_spectrum=spectrum)


def vectorized_synthesis(f: Frame) -> np.ndarray:
    """M x N^2 matrix whose rows are the vectorized outer products."""
    return _outer_products(f.vectors).reshape(f.m, -1)


def is_independent(os_: OuterSequence) -> bool:
    """True when the outer products are linearly independent (over R).

    The gram_op rank is the verdict; the rank of the vectorized synthesis
    matrix S is recomputed as a cross-assertion and any disagreement raises
    InternalInconsistency instead of silently picking a side.  Since
    gram_op = S S*, its eigenvalues are the squared singular values of S,
    so both paths judge that one quantity by one rule: the squares go
    through the same rank threshold, with gram_op's shape.
    """
    sigma = matcore.singular_values(vectorized_synthesis(os_.source))
    vec_rank = matcore.rank_from_singular_values(sigma ** 2, os_.gram_op.shape)
    if vec_rank != os_.rank:
        raise InternalInconsistency(
            f"gram_op rank {os_.rank} != vectorized rank {vec_rank}")
    return os_.rank == os_.m


def outer_riesz_bounds(os_: OuterSequence) -> BoundsReport:
    """Riesz bounds of the outer products: extreme eigenvalues of gram_op."""
    if os_.rank < os_.m:
        raise NotIndependent("outer products are dependent at tolerance")
    w = os_.gram_spectrum.eigenvalues
    return _bounds_report(w[-1], w[0], kind="riesz")


#: The greedy scan accepts a step without an eig only when its lower bound on
#: lambda_min exceeds this multiple of an upper bound on the rank threshold.
CERTIFY_MARGIN = 2.0 ** 20

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


class _GreedyScan:
    """The greedy independence scan of a frame's outer products: K is the
    outer Gram of the kept vectors, held as W with K^{-1} = W W^T.

    ``grows(v)`` borders K with g_i = |<v, phi_i>|^2 and c = |v|^4 in O(k^2):
    z = W^T g, the Schur complement s = c - |z|^2 (c times 1 minus
    ``geometry._inverse_gram_form``'s value for v/|v|), and
    W' = [[W, -W z / sqrt(s)], [0, 1/sqrt(s)]], so that
    lambda_min(K') >= 1 / ||K'^{-1}||_F >= 1 / ||W'||_F^2.  The eig rule's
    threshold is at most (k+1) eps trace(K'), or FRAMEKIT_TOL (read once);
    a step is accepted without an eig only when the bound exceeds
    CERTIFY_MARGIN times the larger, a normal float.  Rounding: while every
    step is certified, K's condition number stays below 2^-20 / (k eps), so
    W' is the exact inverse factor of a Gram within 2^-9 sqrt(k eps) trace
    of K', and eigh's eigenvalues are within a small multiple of (k+1) eps
    trace of the exact ones: under 1/8 and about 2^-20 of the bound.

    Every other step, every reject included, is decided by the eig rule on
    the trial vectors (``_outer_spectra`` rank k + 1).  An accept there ends
    the certificates, since ||W||_F^2 and the threshold only grow as vectors
    join.  So the scan keeps what re-``induce``-ing every trial keeps.
    """

    def __init__(self, f: Frame):
        self.vectors = np.empty_like(f.vectors)  # the first k rows are kept
        self._w = np.zeros((f.m, f.m))  # None once the eig rule decides every step
        self._fro2 = self._trace = 0.0  # ||W||_F^2 and trace(K)
        self._env_tol = matcore.env_rank_tol()
        self.k = 0

    def grows(self, v) -> bool:
        """Whether v's outer product leaves the span of the kept ones; v is then kept."""
        k, rows, w = self.k, self.vectors, self._w
        rows[k] = v
        c = float(np.vdot(rows[k], rows[k]).real) ** 2
        trace = self._trace + c
        thr = max(self._env_tol or 0.0, (k + 1) * _EPS * trace)
        if w is not None and thr >= _TINY:
            z = (np.abs(rows[:k].conj() @ rows[k]) ** 2) @ w[:k, :k]
            s = c - float(z @ z)
            if s > CERTIFY_MARGIN * thr:
                with np.errstate(over="ignore"):  # an infinite ||W'||_F certifies nothing
                    y = w[:k, :k] @ z
                    fro2 = self._fro2 + (float(y @ y) + 1.0) / s
                if fro2 * CERTIFY_MARGIN * thr < 1.0:
                    w[:k, k], w[k, k] = -y / np.sqrt(s), 1.0 / np.sqrt(s)
                    self._fro2, self._trace, self.k = fro2, trace, k + 1
                    return True
        if _outer_spectra(rows[:k + 1])[2] != k + 1:
            return False
        self._w, self.k = None, k + 1
        return True


def independent_prefix(f: Frame) -> tuple:
    """Greedy indices whose outer products are independent and span the rest.

    Scans vectors in order and keeps those that strictly grow the rank of
    the running outer Gram, one ``_GreedyScan`` step each.
    """
    scan = _GreedyScan(f)
    return tuple(i for i, v in enumerate(f.vectors) if scan.grows(v))


@dataclass(frozen=True)
class DependenceCertificate:
    """A unit coefficient vector annihilating the outer products.

    split holds the indices with non-negative coefficients; the partial
    frame operators over split and its complement coincide, which is the
    checkable form of the dependence characterization.
    """

    coefficients: np.ndarray
    residual: float
    split: tuple


def dependence_certificate(os_: OuterSequence):
    """Minimal-support null coefficients of the outer products, or None.

    The first vector j the greedy scan rejects is expanded over the vectors
    before it (a solve in their outer Gram); the coefficients (c, -1 at j)
    then form the unique circuit inside {0, ..., j}, whatever null-space
    basis an eigensolver would return.
    """
    if os_.rank == os_.m:
        return None
    scan = _GreedyScan(os_.source)
    j = next(i for i, v in enumerate(os_.source.vectors) if not scan.grows(v))
    a = np.zeros(os_.m)
    a[:j] = np.linalg.solve(os_.gram_op[:j, :j], os_.gram_op[:j, j])
    a[j] = -1.0
    a /= np.linalg.norm(a)
    resid_matrix = sum(a[i] * os_.outers[i] for i in range(os_.m))
    residual = float(np.linalg.norm(resid_matrix))
    split = tuple(int(i) for i in np.flatnonzero(a >= 0.0))
    a.flags.writeable = False
    return DependenceCertificate(coefficients=a, residual=residual, split=split)


def split_frame_operators(os_: OuterSequence, cert: DependenceCertificate):
    """The two partial sums S_I and S_{I^c} named by a certificate."""
    n = os_.source.n
    dtype = os_.outers[0].dtype
    s_pos = np.zeros((n, n), dtype=dtype)
    s_neg = np.zeros((n, n), dtype=dtype)
    for i, ai in enumerate(cert.coefficients):
        if i in cert.split:
            s_pos += ai * os_.outers[i]
        else:
            s_neg += -ai * os_.outers[i]
    return s_pos, s_neg


def sparsity_check(f: Frame) -> bool:
    """Sufficient condition for independent outers via coordinate supports.

    For every coordinate k, the vectors with a non-zero k-th entry must be
    linearly independent.  True implies independence of the induced outer
    products; False decides nothing.
    """
    norms = np.linalg.norm(f.vectors, axis=1)
    if np.any(norms <= ZERO_ENTRY_TOL):
        raise ZeroVector("sparsity condition is stated for sequences without zero vectors")
    for k in range(f.n):
        idx = np.flatnonzero(np.abs(f.vectors[:, k]) > ZERO_ENTRY_TOL)
        if idx.size == 0:
            continue
        if matcore.numerical_rank(f.vectors[idx].T) < idx.size:
            return False
    return True


@dataclass(frozen=True)
class OptimalBoundReport:
    """Achieved outer Riesz bounds against the theoretical extremes.

    The upper bound of the outer products is at least M/N for every
    unit-norm frame (equality exactly for tight frames); for M > N the
    lower bound is at most M(N-1)/(N(M-1)).
    """

    upper_bound_floor: float
    lower_bound_ceiling: float | None
    achieved_upper: float
    achieved_lower: float
    upper_gap: float
    lower_gap: float | None


def optimal_bound_report(os_: OuterSequence) -> OptimalBoundReport:
    f = os_.source
    if not f.is_unit_norm:
        raise NotUnitNorm("optimal bound comparisons require unit-norm vectors")
    m, n = f.m, f.n
    floor = m / n
    ceiling = m * (n - 1) / (n * (m - 1)) if m > n else None
    w = os_.gram_spectrum.eigenvalues
    upper, lower = float(w[0]), float(w[-1])
    return OptimalBoundReport(
        upper_bound_floor=floor,
        lower_bound_ceiling=ceiling,
        achieved_upper=upper,
        achieved_lower=lower,
        upper_gap=upper - floor,
        lower_gap=(ceiling - lower) if ceiling is not None else None,
    )


def _spectral_solve(spectrum: matcore.SpectralData, b: np.ndarray) -> np.ndarray:
    v = spectrum.eigenvectors
    return v @ ((v.conj().T @ b) / spectrum.eigenvalues)


def project_onto_outer_span(os_: OuterSequence, x) -> np.ndarray:
    """Frobenius-orthogonal projection of a self-adjoint x onto span{phi_i phi_i*}."""
    if os_.rank < os_.m:
        raise NotIndependent("projection onto the span needs independent outer products")
    x = matcore.as_matrix(x)
    b = np.array([matcore.frobenius_ip(o, x) for o in os_.outers])
    coeff = _spectral_solve(os_.gram_spectrum, np.real(b))
    out = np.zeros_like(os_.outers[0], dtype=np.result_type(x, os_.outers[0]))
    for c, o in zip(coeff, os_.outers):
        out = out + c * o
    return out


def outer_duals(f: Frame) -> list:
    """Biorthogonal system for independent outer products.

    Takes the biorthogonal vectors of the frame, forms their outer
    products, and projects each onto the span of the original outers.
    Without the projection the candidates fail to lie in the span.
    """
    g = gram(f)
    if matcore.numerical_rank(g) < f.m:
        raise NotIndependent("the vectors themselves must be independent")
    os_ = induce(f)
    if os_.rank < os_.m:
        raise NotIndependent("the outer products must be independent")
    # biorthogonal vectors within the span: columns of T G^{-1}
    dual_cols = synthesis(f) @ matcore.spectral_inverse(g)
    duals = []
    for i in range(f.m):
        dv = dual_cols[:, i]
        duals.append(project_onto_outer_span(os_, np.outer(dv, dv.conj())))
    return duals


def cross_gram(f: Frame, g: Frame) -> np.ndarray:
    """Gram matrix of all cross outer products phi_i psi_j*.

    Equals kron(gram(f), gram(g).T) for the row-major ordering
    (phi_1 psi_1*, phi_1 psi_2*, ..., phi_M psi_L*).
    """
    if f.n != g.n or f.field != g.field:
        raise DimensionMismatch("cross products need a common ambient space")
    return matcore.kronecker(gram(f), gram(g).T)


def cross_duals(f: Frame, g: Frame) -> list:
    """Dual basis {dual(phi)_i dual(psi)_j*} of the cross products of two bases.

    No projection is needed here: the cross products of two bases span
    the full N x N matrix space.
    """
    if f.n != g.n or f.field != g.field:
        raise DimensionMismatch("cross products need a common ambient space")
    if f.m != f.n or g.m != g.n:
        raise NotABasis("cross duals are defined for bases (M = N)")
    for h in (f, g):
        if matcore.numerical_rank(gram(h)) < h.n:
            raise NotABasis("input vectors do not form a basis")
    fd = synthesis(f) @ matcore.spectral_inverse(gram(f))
    gd = synthesis(g) @ matcore.spectral_inverse(gram(g))
    return [np.outer(fd[:, i], gd[:, j].conj())
            for i in range(f.n) for j in range(g.n)]
