"""Induced outer-product sequences {phi_i phi_i*} and their geometry.

The Gram matrix of the induced outer products is the Hadamard square
|G|^2 of the vector Gram matrix, a real PSD object even over C.  Its
rank decides independence; the vectorized M x N^2 synthesis matrix S gives
a second, independent rank path that is asserted against the first
rather than voted with it.

``OuterBatch`` is the one outer state: ``induce(f)`` gives a frame's with
no leading axis, ``induce_batch`` a (K, M, N) vector stack's along one (the
functions of one frame raise ShapeMismatch on those).  Every sum over the
outer products is one product with S: a certificate's residual is a^T S,
the split frame operators are two coefficient vectors times S, and
projections onto the span (the outer duals included) are one
``matcore.spectral_solve`` in the outer Gram for all their right sides,
one Gram per frame of a stacked batch.
"""

from typing import NamedTuple

import numpy as np

from . import matcore
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    NotABasis,
    NotIndependent,
    NotUnitNorm,
    ShapeMismatch,
    ZeroVector,
)
from .frame import (BoundsReport, Frame, _bounds_report, checked_vectors, field_of, outer_gram,
                    unit_norm, vector_gram)


def ambient_outer_dim(n: int, field: str) -> int:
    """Dimension of the real span of self-adjoint n x n matrices over the
    field ("real" or "complex"): the most outer products that can be independent."""
    return n * (n + 1) // 2 if field == "real" else n * n


def _outer_spectra(v: np.ndarray):
    """gram_op = |G|^2 (``frame.outer_gram``), its eigendecomposition and its
    rank for (..., M, N) vector rows, for a frame or a stack: every
    ``OuterBatch`` and every eig-rule step of the greedy scan is decomposed here.

    The scan keeps this full decomposition although it reads only the rank:
    its prefixes, certificates and nudged frames must be those of
    re-``induce``-ing every trial.  ``eigvalsh``'s eigenvalues can differ
    from ``eigh``'s in the last bits, and on nearly parallel vectors that
    flips ranks at the threshold: a scan ranking by eigenvalues alone keeps,
    for some frames ``induce`` calls dependent, a prefix ``induce`` calls
    dependent too (``prepare`` raises NotIndependent) or every vector (no
    certificate).
    """
    gram_op = outer_gram(v)
    gram_op.flags.writeable = False
    spectrum = matcore.hermitian_eig(gram_op)
    rank = matcore.rank_from_eigenvalues(spectrum.eigenvalues, gram_op.shape[-2:])
    return gram_op, spectrum, rank


def _outer_rank(v: np.ndarray):
    """The rank of the outer Gram |G|^2 of (..., M, N) vector rows, an int
    for a frame and an array for a stack, from its eigenvalues alone
    (``eigvalsh``, no eigenvectors, phases or copies) by the one rank rule:
    for the checks that read nothing but a rank outside the greedy scan."""
    gram_op = outer_gram(v)
    return matcore.rank_from_eigenvalues(matcore.hermitian_eigvalues(gram_op),
                                         gram_op.shape[-2:])


def _outer_products(v: np.ndarray) -> np.ndarray:
    """The (..., M, N, N) outer products phi_i phi_i* of (..., M, N) vector rows."""
    return matcore.vectorize_outer(v).reshape(v.shape + v.shape[-1:])


def _cross_products(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The (..., M L, N, N) cross products u_i w_j* of (..., M, N) and
    (..., L, N) vector rows, u_i w_j* at row i L + j."""
    n = u.shape[-1]
    out = u[..., :, None, :, None] * w.conj()[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (-1, n, n))


class OuterBatch(NamedTuple):
    """The induced outer products of one frame, or of K frames of one shape
    and field decided by one stacked eigendecomposition.

    ``induce(f)`` gives one frame's state, with no leading axis: vectors
    (M, N), gram_op (M, M) = |G|^2, rank an int, gram_spectrum its
    eigendecomposition.  ``induce_batch`` gives K frames' states stacked
    along a leading axis: vectors (K, M, N), gram_op (K, M, M), rank (K,)
    integers, gram_spectrum eigenvalues (K, M) and eigenvectors (K, M, M).
    The read-only vectors are the one copy of the frames; n and field are
    read from them, as a Frame's are.
    """

    vectors: np.ndarray
    gram_op: np.ndarray
    gram_spectrum: matcore.SpectralData
    rank: int | np.ndarray

    @property
    def m(self) -> int:
        return self.gram_op.shape[-1]

    @property
    def n(self) -> int:
        return self.vectors.shape[-1]

    @property
    def field(self) -> str:
        return field_of(self.vectors)

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
        return OuterBatch(vectors=self.vectors[rows], gram_op=self.gram_op[rows],
                          gram_spectrum=self.gram_spectrum.take(rows), rank=self.rank[rows])


def induce(f: Frame) -> OuterBatch:
    """The outer products induced by a frame, with no leading axis."""
    return OuterBatch(f.vectors, *_outer_spectra(f.vectors))


def induce_batch(vectors) -> OuterBatch:
    """``induce`` for a (K, M, N) stack of K frames' vector rows, in one
    LAPACK call: validated as ``Frame.from_vectors`` validates each frame
    (``frame.checked_vectors``), frame i's gram_op, spectrum and rank are
    bit for bit those of ``induce(Frame.from_vectors(vectors[i]))``.
    """
    vectors = checked_vectors(vectors, field_of(vectors), ndim=3)
    return OuterBatch(vectors, *_outer_spectra(vectors))


def _one_frame(os_: OuterBatch, who: str) -> None:
    """ShapeMismatch naming who unless os_ is ``induce``'s batch of one frame."""
    if os_.gram_op.ndim != 2:
        raise ShapeMismatch(f"{who} takes the OuterBatch of one frame (induce), "
                            f"got a stack of {len(os_.vectors)}")


def vectorized_synthesis(f: Frame) -> np.ndarray:
    """M x N^2 matrix whose rows are the vectorized outer products."""
    return matcore.vectorize_outer(f.vectors)


def is_independent(os_: OuterBatch) -> bool:
    """True when the outer products are linearly independent (over R).

    The gram_op rank is the verdict; the rank of the vectorized synthesis
    matrix S is recomputed as a cross-assertion and any disagreement raises
    InternalInconsistency instead of silently picking a side.  Since
    gram_op = S S*, its eigenvalues are the squared singular values of S,
    so both paths judge that one quantity by one rule: the squares go
    through gram_op's rank rule, ``matcore.rank_from_eigenvalues``.
    """
    _one_frame(os_, "is_independent")
    sigma = matcore.singular_values(matcore.vectorize_outer(os_.vectors))
    vec_rank = matcore.rank_from_eigenvalues(sigma ** 2, os_.gram_op.shape)
    if vec_rank != os_.rank:
        raise InternalInconsistency(
            f"gram_op rank {os_.rank} != vectorized rank {vec_rank}")
    return os_.rank == os_.m


def outer_riesz_bounds(os_: OuterBatch) -> BoundsReport:
    """Riesz bounds of the outer products: extreme eigenvalues of gram_op."""
    _one_frame(os_, "outer_riesz_bounds")
    if os_.rank < os_.m:
        raise NotIndependent("outer products are dependent at tolerance")
    w = os_.gram_spectrum.eigenvalues
    return _bounds_report(w[-1], w[0])


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
    complement s = c - |z|^2 (c times 1 minus the elliptic value of v/|v|,
    ``matcore.weighted_norm``), W' = [[W_j, -W_j z / sqrt(s)], [0, 1/sqrt(s)]],
    so that lambda_min(K') >= 1 / ||K'^{-1}||_F >= 1 / ||W'||_F^2; all r trials
    go through one stacked product.  The eig rule's threshold is at most
    thr = (k+1) eps trace(K'); a step is accepted without an eig only when
    thr is a normal float and the bound exceeds CERTIFY_MARGIN * thr.
    Rounding: while every step of a frame is certified, K_j's condition
    number stays below 2^-20 / (k eps), so W' is the exact inverse factor of
    a Gram within 2^-9 sqrt(k eps) trace of K', and eigh's eigenvalues are
    within a small multiple of (k+1) eps trace of the exact ones: under 1/8
    and about 2^-20 of the bound.

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
        self.k = np.zeros(count, dtype=int)
        self._every = np.arange(count)

    def grows(self, v, at=None) -> np.ndarray:
        """Per trial, whether v's outer product leaves the span of its frame's
        kept ones; a vector that does is kept.  The trials no certificate
        decides, a lone one included, go through one stacked eig rule."""
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
            thr = (k + 1) * _EPS * trace
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
            kept = rest[_outer_spectra(rows[at[rest], :k + 1])[2] == k + 1]
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


class DependenceCertificate(NamedTuple):
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
    _one_frame(os_, "dependence_certificate")
    if os_.rank == os_.m:
        return None
    scan = _GreedyScan(os_.vectors[None])
    j = next(i for i, v in enumerate(os_.vectors) if not scan.grows(v[None])[0])
    a = np.zeros(os_.m)
    a[:j] = np.linalg.solve(os_.gram_op[:j, :j], os_.gram_op[:j, j])
    a[j] = -1.0
    a /= np.linalg.norm(a)
    residual = float(np.linalg.norm(a @ matcore.vectorize_outer(os_.vectors)))
    split = tuple(int(i) for i in np.flatnonzero(a >= 0.0))
    a.flags.writeable = False
    return DependenceCertificate(coefficients=a, residual=residual, split=split)


def split_frame_operators(os_: OuterBatch, cert: DependenceCertificate):
    """The two partial sums S_I and S_{I^c} named by a certificate."""
    _one_frame(os_, "split_frame_operators")
    a = cert.coefficients
    in_split = np.isin(np.arange(os_.m), cert.split)
    parts = np.stack([np.where(in_split, a, 0.0), np.where(in_split, 0.0, -a)])
    s_pos, s_neg = (parts @ matcore.vectorize_outer(os_.vectors)).reshape(2, os_.n, os_.n)
    return s_pos, s_neg


def sparsity_check(f: Frame) -> bool:
    """Sufficient condition for independent outers via coordinate supports.

    For every coordinate k, the vectors with a non-zero k-th entry must be
    linearly independent.  Supports are exact, as the condition needs: an
    entry is in its support unless it equals 0, however small it is.  True
    implies independence of the induced outer products; False decides
    nothing.  ZeroVector for an exactly zero vector.
    """
    support = f.vectors != 0
    if not support.any(axis=1).all():
        raise ZeroVector("sparsity condition is stated for sequences without zero vectors")
    for k in range(f.n):
        idx = np.flatnonzero(support[:, k])
        if idx.size and matcore.numerical_rank(f.vectors[idx].T) < idx.size:
            return False
    return True


class OptimalBoundReport(NamedTuple):
    """Achieved outer Riesz bounds against the theoretical extremes.

    The upper bound of the outer products is at least M/N for every
    unit-norm frame (equality exactly for tight frames); for M > N the
    lower bound is at most M(N-1)/(N(M-1)).
    """

    upper_bound_floor: float
    lower_bound_ceiling: float | None
    achieved_upper: float
    achieved_lower: float


def optimal_bound_report(os_: OuterBatch) -> OptimalBoundReport:
    _one_frame(os_, "optimal_bound_report")
    if not unit_norm(os_.vectors):
        raise NotUnitNorm("optimal bound comparisons require unit-norm vectors")
    m, n = os_.m, os_.n
    floor = m / n
    ceiling = m * (n - 1) / (n * (m - 1)) if m > n else None
    w = os_.gram_spectrum.eigenvalues
    return OptimalBoundReport(upper_bound_floor=floor, lower_bound_ceiling=ceiling,
                              achieved_upper=float(w[0]), achieved_lower=float(w[-1]))


def _projections(os_: OuterBatch, x: np.ndarray) -> np.ndarray:
    """The projections onto the outer span of (..., K, N^2) vectorized
    self-adjoint rows x, one set of K per frame of os_.

    With S the vectorized synthesis and G = S S* the outer Gram, the
    coefficients of the projections are C = G^{-1} Re(conj(S) X^T), and
    the projections are C^T S.
    """
    s = matcore.vectorize_outer(os_.vectors)
    b = np.real(s.conj() @ x.swapaxes(-1, -2))
    return matcore.spectral_solve(os_.gram_spectrum, b).swapaxes(-1, -2) @ s


def project_onto_outer_span(os_: OuterBatch, x) -> np.ndarray:
    """Frobenius-orthogonal projection of a self-adjoint N x N x, or of each
    matrix of a (..., N, N) stack, onto span{phi_i phi_i*} of one frame."""
    _one_frame(os_, "project_onto_outer_span")
    if os_.rank < os_.m:
        raise NotIndependent("projection onto the span needs independent outer products")
    x = matcore.as_stack(x)
    if x.shape[-2:] != (os_.n, os_.n):
        raise ShapeMismatch(f"x has shape {x.shape}, the outer products are {os_.n} x {os_.n}")
    return _projections(os_, x.reshape(-1, os_.n ** 2)).reshape(x.shape)


def _vector_spectra(v: np.ndarray) -> tuple:
    """The eigendecomposition of each vector Gram of (..., M, N) vector rows,
    and whether each frame's vectors are independent, ranked from it."""
    sd = matcore.hermitian_eig(vector_gram(v))
    return sd, matcore.rank_from_eigenvalues(sd.eigenvalues, v.shape[-2:-1] * 2) == v.shape[-2]


def _dual_vectors(v: np.ndarray, sd: matcore.SpectralData) -> np.ndarray:
    """The (..., M, N) biorthogonal vectors T G^{-1} of (..., M, N) rows of
    independent vectors, per frame, from sd, the eigendecomposition of each
    vector Gram G by which ``_vector_spectra`` ranked it."""
    return (v.swapaxes(-1, -2) @ matcore.spectral_inverse(sd)).swapaxes(-1, -2)


def _outer_duals(os_: OuterBatch, sd: matcore.SpectralData) -> np.ndarray:
    """``outer_duals_of``'s body, given sd, the spectra by which
    ``_vector_spectra`` ranked the frames' vectors independent."""
    duals = _dual_vectors(os_.vectors, sd)
    return _projections(os_, matcore.vectorize_outer(duals)).reshape(duals.shape + (os_.n,))


def outer_duals_of(os_: OuterBatch) -> np.ndarray:
    """Biorthogonal systems for independent outer products: (M, N, N) for
    ``induce(f)``, (K, M, N, N) for a stacked ``induce_batch``.

    Takes the biorthogonal vectors of each frame, forms their outer
    products, and projects them onto the span of the original outers in
    one solve per frame, all frames in stacked calls.  Without the
    projection the candidates fail to lie in the span.  NotIndependent
    when the vectors of some frame, or their outer products, are dependent.
    """
    sd, free = _vector_spectra(os_.vectors)
    if not np.all(free):
        raise NotIndependent("the vectors themselves must be independent")
    if np.any(os_.rank < os_.m):
        raise NotIndependent("the outer products must be independent")
    return _outer_duals(os_, sd)


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


def _cross_duals(u: np.ndarray, w: np.ndarray, su, sw) -> np.ndarray:
    """``cross_duals``' body, given su and sw, the spectra by which
    ``_vector_spectra`` ranked u and w bases."""
    return _cross_products(_dual_vectors(u, su), _dual_vectors(w, sw))


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
    (su, u_free), (sw, w_free) = _vector_spectra(u), _vector_spectra(w)
    if not np.all(u_free & w_free):
        raise NotABasis("input vectors do not form a basis")
    return _cross_duals(u, w, su, sw)
