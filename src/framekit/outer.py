"""Induced outer-product sequences {phi_i phi_i*} and their geometry.

The Gram matrix of the induced outer products is the Hadamard square
|G|^2 of the vector Gram matrix, a real PSD object even over C.  Its
rank decides independence; the vectorized M x N^2 synthesis matrix S gives
a second, independent rank path that is asserted against the first
rather than voted with it.

``OuterBatch`` is the one outer state: ``induce(f)`` gives a frame's with
no leading axis, ``induce_batch`` those of K frames stacked along one.
Every sum over the outer products is one product with S: a certificate's
residual is a^T S, the split frame operators are two coefficient vectors
times S, and projections onto the span (the outer duals included) solve
one system in the outer Gram for all their right sides at once, one per
frame of a stacked batch.
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
    ShapeMismatch,
    ZeroVector,
)
from .frame import BoundsReport, Frame, _bounds_report, vector_gram

ZERO_ENTRY_TOL = 1e-12


def ambient_outer_dim(f: Frame) -> int:
    """Dimension of the real span of self-adjoint N x N matrices."""
    n = f.n
    return n * (n + 1) // 2 if f.field == "real" else n * n


def _outer_spectra(v: np.ndarray):
    """gram_op = |G|^2, its eigendecomposition and its rank for (..., M, N)
    vector rows: the one place these are formed, for a frame or a stack."""
    gram_op = np.abs(vector_gram(v)) ** 2
    gram_op.flags.writeable = False
    spectrum = matcore.hermitian_eig(gram_op)
    rank = matcore.rank_from_eigenvalues(spectrum.eigenvalues, gram_op.shape[-2:])
    return gram_op, spectrum, rank


def _outer_products(v: np.ndarray) -> np.ndarray:
    """The (..., M, N, N) outer products phi_i phi_i* of (..., M, N) vector rows."""
    return v[..., :, None] * v.conj()[..., None, :]


def _cross_products(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The (..., M L, N, N) cross products u_i w_j* of (..., M, N) and
    (..., L, N) vector rows, u_i w_j* at row i L + j."""
    n = u.shape[-1]
    out = u[..., :, None, :, None] * w.conj()[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (-1, n, n))


def _vectorized(v: np.ndarray) -> np.ndarray:
    """The (..., M, N^2) vectorized outer products of (..., M, N) vector rows."""
    return _outer_products(v).reshape(v.shape[:-1] + (-1,))


@dataclass(frozen=True)
class OuterBatch:
    """The induced outer products of one frame, or of K frames of one shape
    and field decided by one stacked eigendecomposition.

    ``induce(f)`` gives one frame's state, with no leading axis: vectors
    (M, N), gram_op (M, M) = |G|^2, rank an int, gram_spectrum its
    eigendecomposition.  ``induce_batch`` gives K frames' states stacked
    along a leading axis: vectors (K, M, N), gram_op (K, M, M), rank (K,)
    integers, gram_spectrum eigenvalues (K, M) and eigenvectors (K, M, M).
    frames holds the frames, one for ``induce``.
    """

    frames: tuple
    vectors: np.ndarray
    gram_op: np.ndarray
    gram_spectrum: matcore.SpectralData
    rank: int | np.ndarray

    @property
    def m(self) -> int:
        return self.gram_op.shape[-1]

    @property
    def outers(self) -> np.ndarray:
        """The (..., M, N, N) outer products phi_i phi_i*, read-only."""
        outers = _outer_products(self.vectors)
        outers.flags.writeable = False
        return outers

    @property
    def independent(self):
        """Whether the outer products are independent (rank == M), per frame."""
        return self.rank == self.m

    def take(self, rows) -> "OuterBatch":
        """The batch of the frames at the given rows of a stacked batch."""
        rows = np.asarray(rows, dtype=int)
        spectrum = matcore.SpectralData(eigenvalues=self.gram_spectrum.eigenvalues[rows],
                                        eigenvectors=self.gram_spectrum.eigenvectors[rows])
        return OuterBatch(frames=tuple(self.frames[i] for i in rows), vectors=self.vectors[rows],
                          gram_op=self.gram_op[rows], gram_spectrum=spectrum,
                          rank=self.rank[rows])


def induce(f: Frame) -> OuterBatch:
    """The outer products induced by a frame, with no leading axis."""
    return OuterBatch((f,), f.vectors, *_outer_spectra(f.vectors))


def induce_batch(frames) -> OuterBatch:
    """``induce`` for frames of one shape and field, in one LAPACK call.

    Frame i's gram_op, spectrum and rank are bit for bit those of
    ``induce(frames[i])``.
    """
    frames, vectors = _frame_stack(frames, "induce_batch")
    vectors.flags.writeable = False
    return OuterBatch(frames, vectors, *_outer_spectra(vectors))


def _frame_stack(frames, who: str) -> tuple:
    """The frames as a tuple and their (K, M, N) stacked vectors, for a
    non-empty run of frames of one shape and field (BadParam when empty,
    DimensionMismatch when mixed); ``who`` names the caller in the error."""
    frames = tuple(frames)
    if not frames:
        raise BadParam(f"{who} needs at least one frame")
    f0 = frames[0]
    if any(f.field != f0.field or f.vectors.shape != f0.vectors.shape for f in frames):
        raise DimensionMismatch(f"{who} needs frames of one shape and field")
    return frames, np.stack([f.vectors for f in frames])


def vectorized_synthesis(f: Frame) -> np.ndarray:
    """M x N^2 matrix whose rows are the vectorized outer products."""
    return _vectorized(f.vectors)


def is_independent(os_: OuterBatch) -> bool:
    """True when the outer products are linearly independent (over R).

    The gram_op rank is the verdict; the rank of the vectorized synthesis
    matrix S is recomputed as a cross-assertion and any disagreement raises
    InternalInconsistency instead of silently picking a side.  Since
    gram_op = S S*, its eigenvalues are the squared singular values of S,
    so both paths judge that one quantity by one rule: the squares go
    through the same rank threshold, with gram_op's shape.
    """
    sigma = matcore.singular_values(vectorized_synthesis(os_.frames[0]))
    vec_rank = matcore.rank_from_singular_values(sigma ** 2, os_.gram_op.shape)
    if vec_rank != os_.rank:
        raise InternalInconsistency(
            f"gram_op rank {os_.rank} != vectorized rank {vec_rank}")
    return os_.rank == os_.m


def outer_riesz_bounds(os_: OuterBatch) -> BoundsReport:
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
    """The greedy independence scan of the outer products of K frames of one
    shape and field, run in lockstep: per frame, K_j is the outer Gram of its
    kept vectors, held as W_j with K_j^{-1} = W_j W_j^T.

    ``grows(v, at)`` tries one vector per frame, row i of the (r, N) v at
    frame at[i] of the stack (every frame by default); the frames it names
    keep the same count k of vectors.  Each trial borders K_j with
    g_i = |<v, phi_i>|^2 and c = |v|^4 in O(k^2): z = W_j^T g, the Schur
    complement s = c - |z|^2 (c times 1 minus ``geometry._inverse_gram_form``'s
    value for v/|v|), and W' = [[W_j, -W_j z / sqrt(s)], [0, 1/sqrt(s)]], so
    that lambda_min(K') >= 1 / ||K'^{-1}||_F >= 1 / ||W'||_F^2; all r trials
    go through one stacked product.  The eig rule's threshold is at most
    (k+1) eps trace(K'), or FRAMEKIT_TOL (read once); a step is accepted
    without an eig only when the bound exceeds CERTIFY_MARGIN times the
    larger, a normal float.  Rounding: while every step of a frame is
    certified, K_j's condition number stays below 2^-20 / (k eps), so W' is
    the exact inverse factor of a Gram within 2^-9 sqrt(k eps) trace of K',
    and eigh's eigenvalues are within a small multiple of (k+1) eps trace of
    the exact ones: under 1/8 and about 2^-20 of the bound.

    Every other step, every reject included, is decided by the eig rule on
    the trial vectors (``_outer_spectra`` rank k + 1), for all the frames of
    one call that need it in one stacked eigendecomposition.  An accept there
    ends that frame's certificates, since ||W_j||_F^2 and the threshold only
    grow as vectors join.  So each frame keeps what re-``induce``-ing every
    trial keeps, whichever frames share its stack.
    """

    def __init__(self, vectors: np.ndarray):
        """Scan space for the (K, M, N) stack ``vectors`` (its shape and dtype)."""
        count, m = vectors.shape[:2]
        self.vectors = np.empty_like(vectors)  # frame j keeps its first k[j] rows
        self._w = np.zeros((count, m, m))
        self._certified = np.ones(count, dtype=bool)  # False once the eig rule decides
        self._fro2 = np.zeros(count)  # ||W_j||_F^2
        self._trace = np.zeros(count)  # trace(K_j)
        self._env_tol = matcore.env_rank_tol() or 0.0
        self.k = np.zeros(count, dtype=int)
        self._every = np.arange(count)

    def grows(self, v, at=None) -> np.ndarray:
        """Per trial, whether v's outer product leaves the span of its frame's
        kept ones; a vector that does is kept."""
        at = self._every if at is None else np.asarray(at)
        k, rows = int(self.k[at[0]]), self.vectors
        rows[at, k] = v
        grown = self._certified[at]  # narrowed below to the certified accepts
        if np.count_nonzero(grown):
            # g_i = |<v, phi_i>|^2 over the kept vectors and v itself, whose entry is c
            trials = rows[at, :k + 1]
            g = np.abs(trials.conj() @ trials[:, k, :, None]) ** 2
            c = g[:, k, 0]
            trace = self._trace[at] + c
            thr = np.maximum(self._env_tol, (k + 1) * _EPS * trace)
            w = self._w[at, :k, :k]
            z = g[:, :k].swapaxes(-1, -2) @ w
            s = c - (z @ z.swapaxes(-1, -2))[:, 0, 0]
            margin = CERTIFY_MARGIN * thr
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                # an infinite ||W'||_F certifies nothing, nor does s <= 0
                y = w @ z.swapaxes(-1, -2)
                fro2 = self._fro2[at] + ((y.swapaxes(-1, -2) @ y)[:, 0, 0] + 1.0) / s
                grown &= (thr >= _TINY) & (s > margin) & (fro2 * margin < 1.0)
            ok = grown.nonzero()[0]
            if ok.size:
                j, root = at[ok], np.sqrt(s[ok])
                self._w[j, :k, k] = -y[ok, :, 0] / root[:, None]
                self._w[j, k, k] = 1.0 / root
                self._fro2[j], self._trace[j] = fro2[ok], trace[ok]
        rest = (~grown).nonzero()[0]
        if rest.size:
            trials = rows[at[rest], :k + 1]
            if rest.size == 1:  # a lone trial goes as one matrix, hermitian_eig's cheaper path
                trials = trials[0]
            kept = rest[np.atleast_1d(_outer_spectra(trials)[2]) == k + 1]
            self._certified[at[kept]] = False
            grown[kept] = True
        self.k[at[grown]] = k + 1
        return grown


def independent_prefix(f: Frame) -> tuple:
    """Greedy indices whose outer products are independent and span the rest.

    Scans vectors in order and keeps those that strictly grow the rank of
    the running outer Gram, one ``_GreedyScan`` step each.
    """
    scan = _GreedyScan(f.vectors[None])
    return tuple(i for i, v in enumerate(f.vectors) if scan.grows(v[None])[0])


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


def dependence_certificate(os_: OuterBatch):
    """Minimal-support null coefficients of the outer products, or None.

    The first vector j the greedy scan rejects is expanded over the vectors
    before it (a solve in their outer Gram); the coefficients (c, -1 at j)
    then form the unique circuit inside {0, ..., j}, whatever null-space
    basis an eigensolver would return.
    """
    if os_.rank == os_.m:
        return None
    f = os_.frames[0]
    scan = _GreedyScan(f.vectors[None])
    j = next(i for i, v in enumerate(f.vectors) if not scan.grows(v[None])[0])
    a = np.zeros(os_.m)
    a[:j] = np.linalg.solve(os_.gram_op[:j, :j], os_.gram_op[:j, j])
    a[j] = -1.0
    a /= np.linalg.norm(a)
    residual = float(np.linalg.norm(a @ vectorized_synthesis(f)))
    split = tuple(int(i) for i in np.flatnonzero(a >= 0.0))
    a.flags.writeable = False
    return DependenceCertificate(coefficients=a, residual=residual, split=split)


def split_frame_operators(os_: OuterBatch, cert: DependenceCertificate):
    """The two partial sums S_I and S_{I^c} named by a certificate."""
    f = os_.frames[0]
    a = cert.coefficients
    in_split = np.isin(np.arange(f.m), cert.split)
    parts = np.stack([np.where(in_split, a, 0.0), np.where(in_split, 0.0, -a)])
    s_pos, s_neg = (parts @ vectorized_synthesis(f)).reshape(2, f.n, f.n)
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


def optimal_bound_report(os_: OuterBatch) -> OptimalBoundReport:
    f = os_.frames[0]
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
    """G^{-1} b from G's eigendecomposition V diag(w) V*, for G one matrix or
    a (..., M, M) stack, and b one (..., M) vector or an (..., M, K) matrix
    of K right sides per matrix."""
    v, w = spectrum.eigenvectors, spectrum.eigenvalues
    if b.ndim == w.ndim:  # one right side per matrix, solved as a column
        return _spectral_solve(spectrum, b[..., None])[..., 0]
    return v @ ((v.conj().swapaxes(-1, -2) @ b) / w[..., None])


def _projections(os_: OuterBatch, x: np.ndarray) -> np.ndarray:
    """The projections onto the outer span of (..., K, N^2) vectorized
    self-adjoint rows x, one set of K per frame of os_.

    With S the vectorized synthesis and G = S S* the outer Gram, the
    coefficients of the projections are C = G^{-1} Re(conj(S) X^T), and
    the projections are C^T S.
    """
    s = _vectorized(os_.vectors)
    b = np.real(s.conj() @ x.swapaxes(-1, -2))
    return _spectral_solve(os_.gram_spectrum, b).swapaxes(-1, -2) @ s


def project_onto_outer_span(os_: OuterBatch, x) -> np.ndarray:
    """Frobenius-orthogonal projection of a self-adjoint N x N x, or of each
    matrix of a (..., N, N) stack, onto span{phi_i phi_i*} of one frame."""
    if os_.rank < os_.m:
        raise NotIndependent("projection onto the span needs independent outer products")
    f = os_.frames[0]
    x = matcore.as_stack(x)
    if x.shape[-2:] != (f.n, f.n):
        raise ShapeMismatch(f"x has shape {x.shape}, the outer products are {f.n} x {f.n}")
    return _projections(os_, x.reshape(-1, f.n * f.n)).reshape(x.shape)


def _vector_ranks(v: np.ndarray):
    """``matcore.numerical_rank`` of the vector Gram of (..., M, N) vector
    rows, per frame, from one stacked SVD."""
    g = vector_gram(v)
    return matcore.rank_from_singular_values(matcore.stacked_singular_values(g), g.shape[-2:])


def _dual_vectors(v: np.ndarray) -> np.ndarray:
    """The (..., M, N) biorthogonal vectors within the span of independent
    (..., M, N) vector rows: the columns of T G^{-1}, per frame."""
    return (v.swapaxes(-1, -2) @ matcore.spectral_inverse(vector_gram(v))).swapaxes(-1, -2)


def outer_duals_of(os_: OuterBatch) -> np.ndarray:
    """Biorthogonal systems for independent outer products: (M, N, N) for
    ``induce(f)``, (K, M, N, N) for a stacked ``induce_batch``.

    Takes the biorthogonal vectors of each frame, forms their outer
    products, and projects them onto the span of the original outers in
    one solve per frame, all frames in stacked calls.  Without the
    projection the candidates fail to lie in the span.  NotIndependent
    when the vectors of some frame, or their outer products, are dependent.
    """
    if np.any(_vector_ranks(os_.vectors) < os_.m):
        raise NotIndependent("the vectors themselves must be independent")
    if np.any(os_.rank < os_.m):
        raise NotIndependent("the outer products must be independent")
    duals = _vectorized(_dual_vectors(os_.vectors))
    n = os_.vectors.shape[-1]
    return _projections(os_, duals).reshape(duals.shape[:-1] + (n, n))


def outer_duals(f: Frame) -> np.ndarray:
    """Biorthogonal system for independent outer products, as an (M, N, N)
    stack: ``outer_duals_of(induce(f))``."""
    return outer_duals_of(induce(f))


def _rows(f) -> np.ndarray:
    """The vector rows of a frame, or an (..., M, N) stack of them as given."""
    return f.vectors if isinstance(f, Frame) else np.asarray(f)


def _common_space(u: np.ndarray, w: np.ndarray) -> None:
    if u.shape[-1] != w.shape[-1] or np.iscomplexobj(u) != np.iscomplexobj(w):
        raise DimensionMismatch("cross products need a common ambient space")


def cross_gram(f, g) -> np.ndarray:
    """Gram matrix of all cross outer products phi_i psi_j* of two frames,
    or of each pair of frames of two (..., M, N) and (..., L, N) stacks of
    vector rows of one field.

    Equals kron(gram(f), gram(g).T) for the row-major ordering
    (phi_1 psi_1*, phi_1 psi_2*, ..., phi_M psi_L*).
    """
    u, w = _rows(f), _rows(g)
    _common_space(u, w)
    return matcore.kronecker(vector_gram(u), vector_gram(w).swapaxes(-1, -2))


def cross_duals(f, g) -> np.ndarray:
    """Dual basis {dual(phi)_i dual(psi)_j*} of the cross products of two
    bases, as an (N^2, N, N) stack in the order of ``cross_gram``; for two
    (..., N, N) stacks of basis rows, an (..., N^2, N, N) stack per pair.

    No projection is needed here: the cross products of two bases span
    the full N x N matrix space.
    """
    u, w = _rows(f), _rows(g)
    _common_space(u, w)
    n = u.shape[-1]
    if u.shape[-2] != n or w.shape[-2] != n:
        raise NotABasis("cross duals are defined for bases (M = N)")
    for h in (u, w):
        if np.any(_vector_ranks(h) < n):
            raise NotABasis("input vectors do not form a basis")
    return _cross_products(_dual_vectors(u), _dual_vectors(w))
