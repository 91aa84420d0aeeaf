"""Geometric classification of vectors that extend an outer-product
sequence dependently.

Bordering a PSD matrix T with a column v, a row v*, and a corner 1
preserves rank exactly when v = sum(a_i sqrt(lambda_i) e_i) over the
positive eigenpairs with sum |a_i|^2 = 1.  Applied to the Gram matrix of
an independent outer-product sequence, that criterion becomes a scalar
function of the candidate vector: expand |T_analysis(candidate)|^2 in
the eigenbasis of the outer Gram and weight by reciprocal eigenvalues.
Value 1 means the extended sequence is dependent.  ``matcore.weighted_norm``
owns the criterion: the elliptic, ellipsoid and admissible values are its.

Classification runs in two steps.  ``prepare_batch`` builds, from stacked
LAPACK calls, the candidate-independent state of K independent frames of
one shape: the outer Gram G equilibrated to unit diagonal and its
spectrum.  ``prepare(f)`` is its one-frame case, on f's greedy independent
prefix when f's outers are dependent.  ``classify_batch`` (K candidates,
one frame) and ``classify_frames`` (candidate k, frame k) share one body:
one matmul gives every w_i = |<c, phi_i>|^2, and one stacked eigenvalue
call over the bordered Grams [[G, w], [w^T, 1]], whose Schur complement is
1 minus the elliptic value, cross-checks every candidate.  The check is
two-sided: an independent verdict must grow the bordered rank, and for
every candidate det([[G, w], [w^T, 1]]) / det(G) must agree with
1 - elliptic value within its backward-error bound.  ``elliptic_value``,
``quartic_residual`` and ``mu2_subset_mu4_probe`` go through one checked
body, so every value is cross-checked and comes from the equilibrated spectrum.
``ellipsoid_residual`` is the one ellipsoid computation: for a spanning
frame the analysis image of a unit candidate lies on the ellipsoid by
construction, so the classifier does not report it.  A
prepared state's ``outer`` is the ``outer.OuterBatch`` of its frames'
vector stack, with a leading frame axis even for one frame (``prepare``
builds it by ``induce_batch(f.vectors[None])``).
"""

from typing import NamedTuple

import numpy as np

from . import matcore
from .errors import (
    BadCoefficients,
    BadParam,
    InternalInconsistency,
    NotAFrame,
    NotIndependent,
    NotPsd,
    NotUnitNorm,
    RankDeficient,
    ShapeMismatch,
    TooMany,
)
from .frame import UNIT_NORM_TOL, Frame, gram, spans, unit_norm
# induce is bound here although nothing below calls it: geometry.induce is
# part of the module's namespace (perfbench's tracer and self-test read it)
from .outer import OuterBatch, ambient_outer_dim, independent_prefix, induce, induce_batch
from .rng import Stream, unit_vectors

PSD_RELTOL = 1e-10
DEFAULT_VERDICT_TOL = 1e-8

#: The classifier's determinant cross-check allows this multiple of its
#: first-order error bound (see _bordered_gram_check).  That bound assumes
#: each computed eigenvalue is off by at most (M+1) eps lambda_max, where
#: LAPACK guarantees only a modest polynomial in M.  The largest ratio of
#: error to bound seen was 0.34, over random real and complex frames up to
#: M = 80 with outer-Gram condition numbers up to 1e14.
SCHUR_SAFETY = 10.0

#: Matrix entries per stacked eigenvalue call of the classifier's
#: cross-check: batches beyond that many bordered Grams (8 MB of doubles)
#: are checked in slices, so memory stays bounded for any grid size.
STACK_ENTRIES = 1 << 20

_EPS = np.finfo(np.float64).eps


class PsdExtension(NamedTuple):
    """A validated PSD matrix with its spectrum and positive-eigenvalue index.

    It may also hold a (K, n, n) stack of matrices that share i_plus, with
    the stacked spectrum; admissible_vector, admissible_coefficients and
    extension_rank_preserved then work on every matrix at once.
    """

    t: np.ndarray
    spectrum: matcore.SpectralData
    i_plus: tuple

    @property
    def n(self) -> int:
        return self.t.shape[-1]


def _psd_violations(w: np.ndarray):
    """Whether the descending eigenvalues w of a matrix, or each row of w
    for a stack, fail the PSD rule."""
    top = np.maximum(w[..., 0], 0.0)
    return (w[..., -1] < -PSD_RELTOL * top) | ((top == 0.0) & (w[..., -1] < 0.0))


def _checked_psd(w: np.ndarray) -> None:
    """NotPsd unless the descending eigenvalues w (one row per matrix of a
    stack) are those of PSD matrices."""
    bad = _psd_violations(w)
    if np.any(bad):
        low = np.asarray(w[..., -1])[bad][0]
        raise NotPsd(f"smallest eigenvalue {low} is negative beyond tolerance")


def _positive_eigenvalues(w: np.ndarray, shape) -> np.ndarray:
    """Mask of the eigenvalues above the rank tolerance, for the descending
    eigenvalues w of a PSD matrix of the given shape (one row per matrix of
    a stack)."""
    top = np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))
    return w > np.asarray(matcore.default_rank_tol(shape, top))[..., None]


def psd_extension(t) -> PsdExtension:
    """Validate PSD-ness and precompute the spectral data used everywhere below."""
    t = matcore.as_matrix(t)
    spectrum = matcore.hermitian_eig(t)
    _checked_psd(spectrum.eigenvalues)
    i_plus = np.flatnonzero(_positive_eigenvalues(spectrum.eigenvalues, t.shape))
    return PsdExtension(t=t, spectrum=spectrum, i_plus=tuple(int(i) for i in i_plus))


def bordered(t, v) -> np.ndarray:
    """The (N+1) x (N+1) matrix [[t, v], [v*, 1]], or one per matrix of a
    (K, N, N) stack t and row of a (K, N) v."""
    t = matcore.as_stack(t)
    v = np.asarray(v)
    if t.ndim == 2:
        v = v.reshape(-1)
    n = t.shape[-1]
    if v.shape[-1] != n or t.shape[-2] != n:
        raise ShapeMismatch(f"vector length {v.shape[-1]} does not border {t.shape}")
    out = np.zeros(t.shape[:-2] + (n + 1, n + 1), dtype=np.result_type(t, v))
    out[..., :n, :n] = t
    out[..., :n, n] = v
    out[..., n, :n] = v.conj()
    out[..., n, n] = 1.0
    return out


def extension_rank_preserved(ext: PsdExtension, v):
    """Whether bordering ext's t with (v, 1) keeps the rank unchanged; for a
    stacked ext and a (K, n) v, per matrix.

    The lemma is homogeneous: for c > 0, [[t/c, v/sqrt(c)], [., 1]] is
    congruent to a multiple of [[t, v], [v*, 1]].  With c t's largest
    diagonal entry (between lambda_max / n and lambda_max), the corner 1
    has t's scale.  Both ranks come from ``matcore.rank_from_eigenvalues``
    at one threshold, that of the bordered matrix B: t's rank is the rank
    of diag(t/c, |B|) minus one, a matrix of B's shape and largest modulus.
    t's spectrum is read from ext, so t is decomposed once; B takes one
    eigvalsh.
    """
    top = np.diagonal(ext.t, axis1=-2, axis2=-1).real.max(axis=-1, keepdims=True)
    c = np.where(top > 0.0, top, 1.0)  # t = 0 takes c = 1
    w = matcore.hermitian_eigvalues(bordered(ext.t / c[..., None], np.asarray(v) / np.sqrt(c)))
    diag = np.concatenate([ext.spectrum.eigenvalues / c, np.abs(w).max(axis=-1, keepdims=True)],
                          axis=-1)
    shape = w.shape[-1:] * 2
    return matcore.rank_from_eigenvalues(w, shape) == matcore.rank_from_eigenvalues(diag, shape) - 1


def admissible_vector(ext: PsdExtension, a) -> np.ndarray:
    """The rank-preserving border sum(a_i sqrt(lambda_i) e_i) over i_plus
    (one per row of a (K, r) a for a stacked ext)."""
    a = np.asarray(a)
    if ext.t.ndim == 2:
        a = a.reshape(-1)
    if a.shape[-1] != len(ext.i_plus):
        raise BadCoefficients(
            f"need {len(ext.i_plus)} coefficients (one per positive eigenvalue), got {a.shape[-1]}")
    if np.any(np.abs(np.sum(np.abs(a) ** 2, axis=-1) - 1.0) > UNIT_NORM_TOL):
        raise BadCoefficients("coefficients must have unit l2 norm")
    idx = list(ext.i_plus)
    lam = ext.spectrum.eigenvalues[..., idx]
    vecs = ext.spectrum.eigenvectors[..., idx]
    return (vecs @ (a * np.sqrt(lam))[..., None])[..., 0]


def admissible_coefficients(ext: PsdExtension, v):
    """Recover the border coefficients of v, or None when v is off-family.

    None exactly when the bordered extension increases rank: v must lie in
    the span of the positive eigenvectors and the recovered coefficients
    must square-sum to 1.  For a stacked ext and a (K, n) v the result is a
    (K, r) array whose off-family rows are NaN.
    """
    v = np.asarray(v)
    if ext.t.ndim == 2:
        v = v.reshape(-1)
    if v.shape[-1] != ext.n:
        raise ShapeMismatch(f"vector length {v.shape[-1]} does not match {ext.n}")
    # the eigenvalues descend, so i_plus is their first len(i_plus)
    a, norm, leak = matcore.weighted_norm(ext.spectrum, v[..., None, :], len(ext.i_plus))
    off = _membership_residual(norm, leak) > DEFAULT_VERDICT_TOL
    if ext.t.ndim == 2:
        return None if off[0] else a[0]
    return np.where(off[..., None], np.nan, a)[..., 0, :]


def _membership_residual(norm, leak) -> np.ndarray:
    """|norm - 1| per ``matcore.weighted_norm`` row, or inf where leak
    exceeds DEFAULT_VERDICT_TOL^2."""
    return np.where(leak > DEFAULT_VERDICT_TOL ** 2, np.inf, np.abs(norm - 1.0))


def _inverse_gram_form(spectrum: matcore.SpectralData, w: np.ndarray) -> np.ndarray:
    """w^T G^{-1} w for each row of a (..., K, M) batch w, given the
    eigendecomposition of G (one for every row, or one per leading index):
    ``matcore.weighted_norm`` over all M eigenpairs.  With G the outer Gram
    and w = |tv|^2 for an analysis image tv, the elliptic value and the
    quartic are this one quantity, and 1 minus it is the Schur complement
    of G in [[G, w], [w^T, 1]], as is the greedy scan's s / |phi|^4.
    """
    return matcore.weighted_norm(spectrum, w, w.shape[-1])[1]


def _check_candidates(candidates, f) -> np.ndarray:
    """A validated (K, N) batch of unit candidates for an extendable frame
    of f's shape and field (f a Frame or the OuterBatch of one)."""
    candidates = np.asarray(candidates)
    if candidates.ndim != 2:
        raise ShapeMismatch(f"expected a (K, N) batch of candidates, got shape {candidates.shape}")
    if candidates.shape[1] != f.n:
        raise ShapeMismatch(
            f"candidate has length {candidates.shape[1]}, frame lives in dimension {f.n}")
    if f.field == "real" and np.iscomplexobj(candidates):
        if np.any(candidates.imag != 0.0):
            raise BadParam("a real frame takes real candidates only")
        candidates = candidates.real
    if not unit_norm(candidates):
        raise NotUnitNorm("candidate must be unit norm")
    d = ambient_outer_dim(f.n, f.field)
    if f.m + 1 > d:
        raise TooMany(f"M + 1 = {f.m + 1} exceeds the ambient self-adjoint dimension {d}")
    return candidates


def _independent(f: Frame) -> "PreparedBatch":
    """prepare(f), for a frame whose outer products must be independent."""
    prep = prepare(f)
    if prep.permutation is not None:
        raise NotIndependent("the outer products of the frame must be independent")
    return prep


def elliptic_value(f: Frame, candidate) -> float:
    """Weighted eigen-expansion of |<candidate, phi_i>|^2; equals 1 iff the
    candidate's outer product is dependent on the existing ones.

    The value classify reports, cross-checked as classify_batch checks it;
    raises NotIndependent when the frame's outers are dependent.
    """
    prep = _independent(f)
    return float(classify_batch(prep, np.asarray(candidate).reshape(1, -1)).elliptic_value[0])


def quartic_residual(f: Frame, v) -> float:
    """Distance of sum |<v o conj(v), e'_i>|^2 / lambda'_i from 1.

    Zero within tolerance exactly when v lies on the quartic membership
    manifold for the frame's outer products.  Cross-checked as classify's
    values are, so BadParam unless every |v_i|^2 is finite.
    """
    prep = _independent(f)
    v = np.asarray(v).reshape(-1)
    if v.shape[0] != f.m:
        raise ShapeMismatch(f"v has length {v.shape[0]}, expected M = {f.m}")
    if not np.all(np.abs(v) < np.sqrt(np.finfo(np.float64).max)):  # NaN fails too
        raise BadParam("quartic_residual needs v with finite squared moduli")
    value = _checked(prep, v.reshape(1, 1, -1)).elliptic_value  # one frame, one row
    return abs(float(value[0]) - 1.0)


def ellipsoid_residual(f: Frame, v) -> float:
    """Membership residual of v on the analysis image of the unit sphere.

    Expands v in the Gram eigenbasis; any component outside the positive
    eigenspace returns +inf, otherwise |sum |v_i|^2 / lambda_i - 1|.
    """
    if not spans(f):
        raise NotAFrame("the ellipsoid is defined for spanning frames")
    v = np.asarray(v).reshape(-1)
    if v.shape[0] != f.m:
        raise ShapeMismatch(f"v has length {v.shape[0]}, expected M = {f.m}")
    _, norm, leak = matcore.weighted_norm(matcore.hermitian_eig(gram(f)), v[None], f.n)
    return float(_membership_residual(norm, leak)[0])


class ClassificationReport(NamedTuple):
    """Elliptic value and verdict for one candidate vector.

    verdict is "dependent" iff |elliptic_value - 1| <= tol, the tol that
    classify was given; the verdict is always cross-checked against the
    extended outer Gram (see classify_batch).  permutation records the
    greedy independent-prefix reordering applied when the input frame
    itself had dependent outer products.
    """

    tv: np.ndarray
    elliptic_value: float
    verdict: str
    permutation: tuple | None = None


class PreparedBatch(NamedTuple):
    """The candidate-independent state of the classifier for K frames of
    one shape and field whose outers are independent, every array with a
    leading frame axis (a named tuple: it costs less at import than a
    dataclass).

    outer is the induced batch of the frames the candidates extend; its
    conjugated vectors are their analysis matrices.  scale holds
    d_i = G_ii^{-1/2} for each outer Gram G, scaled_gram is the
    equilibrated D G D with D = diag(d), and scaled_spectrum its
    eigendecomposition, the state's one decomposition.  Candidates are
    classified through them, as (D w)^T (D G D)^{-1} (D w) = w^T G^{-1} w,
    so the elliptic values and their cross-check do not depend on the
    norms of the frame's vectors.  permutation is set only by prepare, when the
    input's outers are dependent: its one frame is then the input's
    greedy independent prefix, and permutation the prefix indices.
    """

    outer: OuterBatch
    scale: np.ndarray
    scaled_gram: np.ndarray
    scaled_spectrum: matcore.SpectralData
    permutation: tuple | None


def _equilibrated(gram_op: np.ndarray) -> tuple:
    """d_i = G_ii^{-1/2} (1 for a zero outer) and D G D, for an outer Gram G
    or a stack of them."""
    diag = np.diagonal(gram_op, axis1=-2, axis2=-1)
    scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    return scale, scale[..., :, None] * gram_op * scale[..., None, :]


def prepare_batch(batch: OuterBatch) -> PreparedBatch:
    """The classifier state of every frame of an OuterBatch, from stacked
    LAPACK calls, built once for any number of candidate batches.

    Raises NotIndependent when a frame's outers are dependent: prepare
    would reorder it to a shorter prefix, which has no place in the stack,
    so callers keep the frames where batch.independent holds.
    """
    if not batch.independent.all():
        raise NotIndependent(f"frame {int(np.argmin(batch.independent))} of the batch has "
                             "dependent outer products")
    scale, scaled_gram = _equilibrated(batch.gram_op)
    return PreparedBatch(outer=batch, scale=scale, scaled_gram=scaled_gram,
                         scaled_spectrum=matcore.hermitian_eig(scaled_gram), permutation=None)


def prepare(f: Frame) -> PreparedBatch:
    """prepare_batch of the one frame f, or of its greedy independent prefix
    when f's outers are dependent (permutation then holds the prefix
    indices); NotIndependent when that prefix is empty."""
    batch = induce_batch(f.vectors[None])
    if batch.independent[0]:
        return prepare_batch(batch)
    permutation = independent_prefix(f)
    if not permutation:
        raise NotIndependent("no outer product of the frame is nonzero at the rank tolerance")
    prep = prepare_batch(induce_batch(f.vectors[None, list(permutation)]))
    return prep._replace(permutation=permutation)


class BatchClassification(NamedTuple):
    """Verdicts for a (K, N) batch of candidates against one prepared frame.

    Row k of every array belongs to candidate k, and report(k) is the
    report classify gives for that candidate alone.
    """

    tv: np.ndarray
    elliptic_value: np.ndarray
    dependent: np.ndarray
    permutation: tuple | None

    def report(self, k: int) -> ClassificationReport:
        return ClassificationReport(
            tv=self.tv[k], elliptic_value=float(self.elliptic_value[k]),
            verdict="dependent" if self.dependent[k] else "independent",
            permutation=self.permutation)


class _BorderCheck(NamedTuple):
    """Per candidate: whether it disagrees with its bordered Gram, whether
    through the rank (flat), and the Schur complement with its bound."""

    disagrees: np.ndarray
    flat: np.ndarray
    schur: np.ndarray
    bound: np.ndarray


def _bordered_gram_check(gram: np.ndarray, lam_g: np.ndarray, w: np.ndarray,
                         value: np.ndarray, dependent: np.ndarray) -> _BorderCheck:
    """Cross-check K elliptic values against the bordered Grams [[G, w], [w^T, 1]].

    w is a (K, M) batch for frames with independent outers; G is one
    (M, M) Gram for every row or a (K, M, M) stack with one per row, and
    lam_g its descending eigenvalues.  G and w are the equilibrated D G D
    and D w of a prepared frame: the congruence diag(d, 1) keeps the rank
    and the Schur complement 1 - w^T G^{-1} w of the bordered Gram, and
    without it the rank tolerance of a frame of large norm, scaled by
    lambda_max(G), would swamp the corner 1.

    A candidate disagrees where an independent verdict leaves the bordered
    rank at M, or where the Schur complement s = det(ext) / det(G), formed
    from the stacked spectrum as lambda_M(ext) exp(sum_i log(lambda_i(ext)
    / lambda_i(G))) so that neither determinant can underflow, differs
    from 1 - value by more than SCHUR_SAFETY times the first-order bound

        delta * ((2M+1) / lambda_min(G) + 1 + |w|^2 / lambda_min(G)^2),
        delta = (M+1) eps lambda_max(ext).

    If every computed eigenvalue is off by at most delta, interlacing
    moves log det(G) and log det(ext) by at most M delta / lambda_min(G)
    and M delta / lambda_min(G) + delta / lambda_min(ext), and with s <= 1,
    s / lambda_min(ext) <= 1 / lambda_min(G) + 1 + |G^{-1} w|^2.
    The rank alone cannot check a dependent verdict: it drops only below
    about delta, far under the verdict tolerance.
    """
    k, m = w.shape
    gram = np.broadcast_to(gram, (k, m, m))
    lam_g = np.broadcast_to(lam_g, (k, m))
    flat = np.zeros(k, dtype=bool)
    schur = np.empty(k)
    bound = np.empty(k)
    step = max(1, STACK_ENTRIES // (m + 1) ** 2)
    for start in range(0, k, step):
        part = slice(start, min(k, start + step))
        wb = w[part]
        lam = matcore.hermitian_eigvalues(bordered(gram[part], wb))
        rank = matcore.rank_from_eigenvalues(lam, (m + 1, m + 1))
        lam_min = lam_g[part, -1]
        # interlacing puts lam[:, i] >= lam_g[i] > 0 for i < M, so only the
        # last eigenvalue can be zero or negative, and the product of the
        # ratios is at most lam_max(ext) / lam_min(ext)
        schur[part] = lam[:, m] * np.exp(np.log(lam[:, :m] / lam_g[part]).sum(axis=1))
        bound[part] = SCHUR_SAFETY * (m + 1) * _EPS * lam[:, 0] * (
            (2 * m + 1) / lam_min + 1.0 + (wb * wb).sum(axis=1) / lam_min / lam_min)
        flat[part] = ~dependent[part] & (rank <= m)
    disagrees = flat | ~(np.abs(schur - (1.0 - value)) <= bound)
    return _BorderCheck(disagrees=disagrees, flat=flat, schur=schur, bound=bound)


def _classified(prep: PreparedBatch, tv: np.ndarray, tol: float) -> tuple:
    """(BatchClassification, bordered-Gram check) for the analysis images
    tv: (1, K, M) for K candidates against the one frame of prep, or
    (K, 1, M) for candidate k against frame k; each elliptic value of the
    package is formed here, as (D w)^T (D G D)^{-1} (D w) for w = |tv|^2."""
    m = tv.shape[-1]
    w = np.abs(tv) ** 2 * prep.scale[..., None, :]
    value = _inverse_gram_form(prep.scaled_spectrum, w)
    dependent = np.abs(value - 1.0) <= tol
    check = _bordered_gram_check(prep.scaled_gram, prep.scaled_spectrum.eigenvalues,
                                 w.reshape(-1, m), value.reshape(-1), dependent.reshape(-1))
    result = BatchClassification(tv=tv.reshape(-1, m), elliptic_value=value.reshape(-1),
                                 dependent=dependent.reshape(-1), permutation=prep.permutation)
    return result, check


def _checked(prep: PreparedBatch, tv, tol=DEFAULT_VERDICT_TOL) -> BatchClassification:
    """``_classified``'s classification, or InternalInconsistency naming the
    first candidate that disagrees with its bordered Gram."""
    result, check = _classified(prep, tv, tol)
    if check.disagrees.any():
        i = int(check.disagrees.argmax())
        verdict = "dependent" if result.dependent[i] else "independent"
        what = ("rank comparison" if check.flat[i] else
                f"Schur complement {check.schur[i]:.3e} (bound {check.bound[i]:.1e})")
        raise InternalInconsistency(
            f"candidate {i}: elliptic value {result.elliptic_value[i]} "
            f"(verdict {verdict}) disagrees with the extended-Gram {what}")
    return result


def classify_batch(prep: PreparedBatch, candidates,
                   tol: float = DEFAULT_VERDICT_TOL) -> BatchClassification:
    """Classify a (K, N) batch of unit candidates against a prepared frame
    (the one-frame state prepare builds).

    tv = C A^T gives every analysis image in one matmul; the elliptic
    values and verdicts are vectorised over the batch, and every candidate
    is cross-checked against its bordered Gram through one stacked
    eigenvalue call (see _bordered_gram_check).
    Raises InternalInconsistency for the first candidate that disagrees.
    """
    count = len(prep.outer.vectors)
    if count != 1:
        raise ShapeMismatch(f"classify_batch takes one prepared frame, got {count}")
    candidates = _check_candidates(candidates, prep.outer)
    return _checked(prep, candidates @ prep.outer.vectors.conj().swapaxes(-1, -2), tol)


def classify_frames(prep: PreparedBatch, candidates, tol: float = DEFAULT_VERDICT_TOL) -> tuple:
    """Classify candidate k of a (K, N) batch against frame k of a prepared
    batch, through the same body as classify_batch.

    Returns (classification, disagrees).  Where disagrees[k] is False, row
    k of the classification is what classify(frame k, candidate k)
    reports; where it is True, classify raises InternalInconsistency.
    """
    candidates = _check_candidates(candidates, prep.outer)
    if len(candidates) != len(prep.outer.vectors):
        raise ShapeMismatch(f"{len(candidates)} candidates for {len(prep.outer.vectors)} frames")
    analysis = prep.outer.vectors.conj().swapaxes(-1, -2)
    result, check = _classified(prep, candidates[:, None, :] @ analysis, tol)
    return result, check.disagrees


def classify(f: Frame, candidate, tol: float = DEFAULT_VERDICT_TOL) -> ClassificationReport:
    """Decide whether appending a unit candidate keeps the outers independent.

    The one-row case of classify_batch(prepare(f), ...): when the input
    frame already has dependent outer products it is reordered to its
    greedy independent prefix first and the permutation is recorded in
    the report.
    """
    return classify_batch(prepare(f), np.asarray(candidate).reshape(1, -1), tol).report(0)


def mu2_subset_mu4_probe(f: Frame, samples: int, seed: int) -> float:
    """Max quartic residual of analysis images of random unit vectors.

    Requires the outer products to span the full self-adjoint space; the
    quartic is evaluated against the greedy independent prefix.  The
    containment of the ellipsoid in the quartic manifold predicts a
    residual of zero for every sample.
    """
    prep = prepare(f)
    rank, ambient = int(prep.outer.rank[0]), ambient_outer_dim(f.n, f.field)
    if rank < ambient:
        raise RankDeficient(f"outer products span {rank} < {ambient} dimensions")
    psi = unit_vectors(Stream(seed), samples, f.n, f.field == "complex")
    value = _checked(prep, psi @ prep.outer.vectors.conj().swapaxes(-1, -2)).elliptic_value
    return float(np.max(np.abs(value - 1.0), initial=0.0))
