"""Geometric classification of vectors that extend an outer-product
sequence dependently.

Bordering a PSD matrix T with a column v, a row v*, and a corner 1
preserves rank exactly when v = sum(a_i sqrt(lambda_i) e_i) over the
positive eigenpairs with sum |a_i|^2 = 1.  Applied to the Gram matrix of
an independent outer-product sequence, that criterion becomes a scalar
function of the candidate vector: expand |T_analysis(candidate)|^2 in
the eigenbasis of the outer Gram and weight by reciprocal eigenvalues.
Value 1 means the extended sequence is dependent.

Classification runs in two steps.  ``prepare`` builds, once per frame,
everything that does not depend on the candidate: the greedy-prefix
reorder when the outers are dependent, the outer Gram G equilibrated to
unit diagonal and its spectrum, the analysis matrix, the spans flag and,
for a spanning frame, the vector-Gram eigendecomposition behind the
ellipsoid residual.
``classify_batch`` then evaluates a (K, N) batch of candidates with one
matmul, and cross-checks every candidate through one stacked eigenvalue
call over the K bordered Grams [[G, w], [w^T, 1]], w_i = |<c, phi_i>|^2,
whose Schur complement is 1 minus the elliptic value.  The check is
two-sided: an independent verdict must grow the bordered rank, and for
every candidate the Schur complement det([[G, w], [w^T, 1]]) / det(G)
must agree with 1 - elliptic value within its backward-error bound.
``classify`` is the one-row batch.
"""

from dataclasses import dataclass
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
from .frame import Frame, analysis, gram, spans
from .outer import OuterSequence, independent_prefix, induce
from .rng import Stream

PSD_RELTOL = 1e-10
DEFAULT_VERDICT_TOL = 1e-8
UNIT_TOL = 1e-12

#: Bordered-rank comparisons run on vectors that were themselves computed
#: through an eigendecomposition, whose backward error exceeds the bare
#: max(shape) * eps * sigma_max threshold by a modest constant.  This factor
#: absorbs that while staying ten-plus orders below genuine singular values.
BORDER_RANK_SAFETY = 100.0

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


def _border_rank(a) -> int:
    sigma = matcore.singular_values(a)
    tol = BORDER_RANK_SAFETY * matcore.default_rank_tol(a.shape, float(sigma[0]))
    return matcore.rank_from_singular_values(sigma, a.shape, tol)


@dataclass(frozen=True)
class PsdExtension:
    """A validated PSD matrix with its spectrum and positive-eigenvalue index."""

    t: np.ndarray
    spectrum: matcore.SpectralData
    i_plus: tuple

    @property
    def n(self) -> int:
        return self.t.shape[0]


def _checked_psd(w: np.ndarray) -> None:
    """Raise NotPsd unless the descending eigenvalues w are those of a PSD matrix."""
    top = max(float(w[0]), 0.0)
    if w[-1] < -PSD_RELTOL * top or (top == 0.0 and w[-1] < 0.0):
        raise NotPsd(f"smallest eigenvalue {w[-1]} is negative beyond tolerance")


def psd_extension(t) -> PsdExtension:
    """Validate PSD-ness and precompute the spectral data used everywhere below."""
    t = matcore.as_matrix(t)
    spectrum = matcore.hermitian_eig(t)
    w = spectrum.eigenvalues
    _checked_psd(w)
    tol = matcore.default_rank_tol(t.shape, max(abs(float(w[0])), abs(float(w[-1]))))
    i_plus = tuple(int(i) for i in np.flatnonzero(w > tol))
    return PsdExtension(t=t, spectrum=spectrum, i_plus=i_plus)


def bordered(t, v) -> np.ndarray:
    """The (N+1) x (N+1) matrix [[t, v], [v*, 1]]."""
    t = matcore.as_matrix(t)
    v = np.asarray(v).reshape(-1)
    if v.shape[0] != t.shape[0]:
        raise ShapeMismatch(f"vector length {v.shape[0]} does not border {t.shape}")
    n = t.shape[0]
    out = np.zeros((n + 1, n + 1), dtype=np.result_type(t, v))
    out[:n, :n] = t
    out[:n, n] = v
    out[n, :n] = v.conj()
    out[n, n] = 1.0
    return out


def extension_rank_preserved(t, v) -> bool:
    """Whether bordering t with (v, 1) keeps the rank unchanged.

    Raises NotPsd as psd_extension does, from the eigenvalues alone.
    """
    t = matcore.as_matrix(t)
    _checked_psd(matcore.hermitian_eigvalues(t))
    return _border_rank(bordered(t, v)) == _border_rank(t)


def admissible_vector(ext: PsdExtension, a) -> np.ndarray:
    """The rank-preserving border sum(a_i sqrt(lambda_i) e_i) over i_plus."""
    a = np.asarray(a).reshape(-1)
    if a.shape[0] != len(ext.i_plus):
        raise BadCoefficients(
            f"need {len(ext.i_plus)} coefficients (one per positive eigenvalue), got {a.shape[0]}")
    if abs(float(np.sum(np.abs(a) ** 2)) - 1.0) > UNIT_TOL:
        raise BadCoefficients("coefficients must have unit l2 norm")
    idx = list(ext.i_plus)
    lam = ext.spectrum.eigenvalues[idx]
    vecs = ext.spectrum.eigenvectors[:, idx]
    return vecs @ (a * np.sqrt(lam))


def admissible_coefficients(ext: PsdExtension, v, tol: float = DEFAULT_VERDICT_TOL):
    """Recover the border coefficients of v, or None when v is off-family.

    None exactly when the bordered extension increases rank: v must lie in
    the span of the positive eigenvectors and the recovered coefficients
    must square-sum to 1.
    """
    v = np.asarray(v).reshape(-1)
    if v.shape[0] != ext.n:
        raise ShapeMismatch(f"vector length {v.shape[0]} does not match {ext.n}")
    coords = ext.spectrum.eigenvectors.conj().T @ v
    idx = list(ext.i_plus)
    inside = np.zeros(ext.n, dtype=bool)
    inside[idx] = True
    leakage = float(np.linalg.norm(coords[~inside]))
    if leakage > tol:
        return None
    lam = ext.spectrum.eigenvalues[idx]
    a = coords[idx] / np.sqrt(lam)
    if abs(float(np.sum(np.abs(a) ** 2)) - 1.0) > tol:
        return None
    return a


def _inverse_gram_form(spectrum: matcore.SpectralData, w: np.ndarray):
    """w^T G^{-1} w, given the eigendecomposition of G.

    A float for one w, an array of K values for a (K, M) batch.  With G the
    outer Gram and w = |tv|^2 entrywise for an analysis image tv, the
    elliptic value and the quartic are this one quantity, and 1 minus it is
    the Schur complement of G in the bordered Gram [[G, w], [w^T, 1]].
    """
    y = w @ spectrum.eigenvectors
    value = np.sum(y ** 2 / spectrum.eigenvalues, axis=-1)
    return float(value) if np.ndim(value) == 0 else value


def _check_candidates(os_: OuterSequence, candidates) -> np.ndarray:
    """A validated (K, N) batch of unit candidates for an extendable frame."""
    candidates = np.asarray(candidates)
    if candidates.ndim != 2:
        raise ShapeMismatch(f"expected a (K, N) batch of candidates, got shape {candidates.shape}")
    if candidates.shape[1] != os_.source.n:
        raise ShapeMismatch(
            f"candidate has length {candidates.shape[1]}, frame lives in dimension {os_.source.n}")
    if os_.source.field == "real" and np.iscomplexobj(candidates):
        if np.any(candidates.imag != 0.0):
            raise BadParam("a real frame takes real candidates only")
        candidates = candidates.real
    norms = np.sqrt(np.sum(np.abs(candidates) ** 2, axis=1))
    if not np.all(np.abs(norms - 1.0) <= UNIT_TOL):  # a NaN norm fails too
        raise NotUnitNorm("candidate must be unit norm")
    if os_.rank < os_.m:
        raise NotIndependent("the outer products of the frame must be independent")
    if os_.m + 1 > os_.ambient_dim:
        raise TooMany(
            f"M + 1 = {os_.m + 1} exceeds the ambient self-adjoint dimension {os_.ambient_dim}")
    return candidates


def elliptic_value(f: Frame, candidate) -> float:
    """Weighted eigen-expansion of |<candidate, phi_i>|^2; equals 1 iff the
    candidate's outer product is dependent on the existing ones."""
    os_ = induce(f)
    candidate = _check_candidates(os_, np.asarray(candidate).reshape(1, -1))[0]
    return _inverse_gram_form(os_.gram_spectrum, np.abs(analysis(os_.source) @ candidate) ** 2)


def quartic_residual(f: Frame, v) -> float:
    """Distance of sum |<v o conj(v), e'_i>|^2 / lambda'_i from 1.

    Zero within tolerance exactly when v lies on the quartic membership
    manifold for the frame's outer products.
    """
    os_ = induce(f)
    if os_.rank < os_.m:
        raise NotIndependent("the outer products of the frame must be independent")
    v = np.asarray(v).reshape(-1)
    if v.shape[0] != os_.m:
        raise ShapeMismatch(f"v has length {v.shape[0]}, expected M = {os_.m}")
    return abs(_inverse_gram_form(os_.gram_spectrum, np.abs(v) ** 2) - 1.0)


def _ellipsoid_residuals(sd: matcore.SpectralData, n: int, v: np.ndarray,
                         tol: float) -> np.ndarray:
    """ellipsoid_residual for each row of a (K, M) batch, given the
    eigendecomposition sd of the vector Gram of a frame spanning C^n or R^n."""
    coords = v @ sd.eigenvectors.conj()
    out = np.abs(np.sum(np.abs(coords[:, :n]) ** 2 / sd.eigenvalues[:n], axis=1) - 1.0)
    out[np.sum(np.abs(coords[:, n:]) ** 2, axis=1) > tol * tol] = np.inf
    return out


def ellipsoid_residual(f: Frame, v, tol: float = DEFAULT_VERDICT_TOL) -> float:
    """Membership residual of v on the analysis image of the unit sphere.

    Expands v in the Gram eigenbasis; any component outside the positive
    eigenspace returns +inf, otherwise |sum |v_i|^2 / lambda_i - 1|.
    """
    if not spans(f):
        raise NotAFrame("the ellipsoid is defined for spanning frames")
    v = np.asarray(v).reshape(-1)
    if v.shape[0] != f.m:
        raise ShapeMismatch(f"v has length {v.shape[0]}, expected M = {f.m}")
    sd = matcore.hermitian_eig(gram(f))
    return float(_ellipsoid_residuals(sd, f.n, v.reshape(1, -1), tol)[0])


@dataclass(frozen=True)
class ClassificationReport:
    """Residuals and verdict for one candidate vector.

    verdict is "dependent" iff |elliptic_value - 1| <= tol; the verdict is
    always cross-checked against the extended outer Gram (see
    classify_batch).  quartic_value is the same w^T G^{-1} w in the
    quartic's notation.  permutation records the greedy independent-prefix
    reordering applied when the input frame itself had dependent outer
    products.
    """

    candidate: np.ndarray
    tv: np.ndarray
    ellipsoid_residual: float
    quartic_value: float
    elliptic_value: float
    verdict: str
    tol: float
    permutation: tuple | None = None


class PreparedFrame(NamedTuple):
    """The candidate-independent state of the classifier for one frame
    (a named tuple: it costs less at import than a dataclass).

    outer is the induced sequence of the frame the candidates extend: the
    input, or its greedy independent prefix when the input's outers are
    dependent (permutation then holds the prefix indices).  vector_gram
    is the vector-Gram eigendecomposition, present exactly when the frame
    spans.  scale holds d_i = G_ii^{-1/2} for the outer Gram G,
    scaled_gram is the equilibrated D G D with D = diag(d), and
    scaled_spectrum its eigendecomposition.  Candidates are classified
    through them, as (D w)^T (D G D)^{-1} (D w) = w^T G^{-1} w, so the
    elliptic values and their cross-check do not depend on the norms of
    the frame's vectors.
    """

    outer: OuterSequence
    analysis: np.ndarray
    spans: bool
    vector_gram: matcore.SpectralData | None
    permutation: tuple | None
    scale: np.ndarray
    scaled_gram: np.ndarray
    scaled_spectrum: matcore.SpectralData


def prepare(f: Frame) -> PreparedFrame:
    """Build the frame-level classifier state once, for any number of batches."""
    os_ = induce(f)
    permutation = None
    if os_.rank < os_.m:
        permutation = independent_prefix(f)
        f = f.subframe(permutation)
        os_ = induce(f)
    spanning = spans(f)
    diag = np.diag(os_.gram_op)
    scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))  # 1 for a zero outer
    scaled_gram = scale[:, None] * os_.gram_op * scale
    return PreparedFrame(outer=os_, analysis=analysis(f), spans=spanning,
                         vector_gram=matcore.hermitian_eig(gram(f)) if spanning else None,
                         permutation=permutation, scale=scale, scaled_gram=scaled_gram,
                         scaled_spectrum=matcore.hermitian_eig(scaled_gram))


class BatchClassification(NamedTuple):
    """Verdicts for a (K, N) batch of candidates against one prepared frame.

    Row k of every array belongs to candidate k, and report(k) is the
    report classify gives for that candidate alone.  ellipsoid_residual is
    NaN throughout when the frame does not span.
    """

    candidates: np.ndarray
    tv: np.ndarray
    elliptic_value: np.ndarray
    dependent: np.ndarray
    ellipsoid_residual: np.ndarray
    tol: float
    permutation: tuple | None

    def report(self, k: int) -> ClassificationReport:
        value = float(self.elliptic_value[k])
        return ClassificationReport(
            candidate=self.candidates[k], tv=self.tv[k],
            ellipsoid_residual=float(self.ellipsoid_residual[k]),
            quartic_value=value, elliptic_value=value,
            verdict="dependent" if self.dependent[k] else "independent",
            tol=self.tol, permutation=self.permutation)


def _bordered_gram_check(prep: PreparedFrame, w: np.ndarray, value: np.ndarray,
                         dependent: np.ndarray) -> None:
    """Cross-check elliptic values against the K bordered Grams [[G, w], [w^T, 1]].

    G and w are the equilibrated D G D and D w of the prepared frame: the
    congruence diag(d, 1) keeps the rank and the Schur complement
    1 - w^T G^{-1} w of the bordered Gram, and without it the rank
    tolerance of a frame of large norm, scaled by lambda_max(G), would
    swamp the corner 1.

    Raises InternalInconsistency for the first candidate where an
    independent verdict leaves the bordered rank at rank(G), or where the
    Schur complement s = det(ext) / det(G), formed from the stacked
    spectrum as lambda_M(ext) exp(sum_i log(lambda_i(ext) / lambda_i(G))) so
    that neither determinant can underflow, differs from 1 - value by more
    than SCHUR_SAFETY times the first-order bound

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
    lam_g = prep.scaled_spectrum.eigenvalues
    lam_min = float(lam_g[-1])
    step = max(1, STACK_ENTRIES // (m + 1) ** 2)
    for start in range(0, k, step):
        stop = min(k, start + step)
        wb = w[start:stop]
        ext = np.empty((stop - start, m + 1, m + 1))
        ext[:, :m, :m] = prep.scaled_gram
        ext[:, :m, m] = wb
        ext[:, m, :m] = wb
        ext[:, m, m] = 1.0
        lam = matcore.hermitian_eigvalues(ext)
        rank = matcore.rank_from_singular_values(
            np.sort(np.abs(lam), axis=1)[:, ::-1], (m + 1, m + 1))
        # interlacing puts lam[:, i] >= lam_g[i] > 0 for i < M, so only the
        # last eigenvalue can be zero or negative, and the product of the
        # ratios is at most lam_max(ext) / lam_min(ext)
        schur = lam[:, m] * np.exp(np.log(lam[:, :m] / lam_g).sum(axis=1))
        bound = SCHUR_SAFETY * (m + 1) * _EPS * lam[:, 0] * (
            (2 * m + 1) / lam_min + 1.0 + (wb * wb).sum(axis=1) / lam_min / lam_min)
        flat = ~dependent[start:stop] & (rank <= prep.outer.rank)
        bad = flat | ~(np.abs(schur - (1.0 - value[start:stop])) <= bound)
        if bad.any():
            i = int(bad.argmax())
            verdict = "dependent" if dependent[start + i] else "independent"
            what = ("rank comparison" if flat[i] else
                    f"Schur complement {schur[i]:.3e} (bound {bound[i]:.1e})")
            raise InternalInconsistency(
                f"candidate {start + i}: elliptic value {value[start + i]} "
                f"(verdict {verdict}) disagrees with the extended-Gram {what}")


def classify_batch(prep: PreparedFrame, candidates,
                   tol: float = DEFAULT_VERDICT_TOL) -> BatchClassification:
    """Classify a (K, N) batch of unit candidates against a prepared frame.

    tv = C A^T gives every analysis image in one matmul; the elliptic
    values, verdicts and ellipsoid residuals are vectorised over the
    batch, and every candidate is cross-checked against its bordered Gram
    through one stacked eigenvalue call (see _bordered_gram_check).
    """
    os_ = prep.outer
    candidates = _check_candidates(os_, candidates)
    tv = candidates @ prep.analysis.T
    w = np.abs(tv) ** 2 * prep.scale
    value = _inverse_gram_form(prep.scaled_spectrum, w)
    dependent = np.abs(value - 1.0) <= tol
    _bordered_gram_check(prep, w, value, dependent)
    if prep.spans:
        ell = _ellipsoid_residuals(prep.vector_gram, os_.source.n, tv, tol)
    else:
        ell = np.full(len(tv), np.nan)
    return BatchClassification(candidates=candidates, tv=tv, elliptic_value=value,
                               dependent=dependent, ellipsoid_residual=ell, tol=tol,
                               permutation=prep.permutation)


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
    os_ = induce(f)
    if f.m < os_.ambient_dim or os_.rank < os_.ambient_dim:
        raise RankDeficient(
            f"outer products span {os_.rank} < {os_.ambient_dim} dimensions")
    prefix = independent_prefix(f)
    pf = f.subframe(prefix)
    pos = induce(pf)
    a = analysis(pf)
    stream = Stream(seed)
    worst = 0.0
    for _ in range(samples):
        if f.field == "real":
            psi = stream.normals(f.n)
        else:
            psi = stream.complex_normals(f.n)
        psi = psi / np.linalg.norm(psi)
        worst = max(worst, abs(_inverse_gram_form(pos.gram_spectrum, np.abs(a @ psi) ** 2) - 1.0))
    return worst
