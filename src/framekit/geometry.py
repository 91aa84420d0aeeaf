"""Geometric classification of vectors that extend an outer-product
sequence dependently.

Bordering a PSD matrix T with a column v, a row v*, and a corner 1
preserves rank exactly when v = sum(a_i sqrt(lambda_i) e_i) over the
positive eigenpairs with sum |a_i|^2 = 1.  Applied to the Gram matrix of
an independent outer-product sequence, that criterion becomes a scalar
function of the candidate vector: expand |T_analysis(candidate)|^2 in
the eigenbasis of the outer Gram and weight by reciprocal eigenvalues.
Value 1 means the extended sequence is dependent.  Every classification
is cross-checked against a direct rank comparison of the extended Gram.
"""

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import (
    BadCoefficients,
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


def psd_extension(t) -> PsdExtension:
    """Validate PSD-ness and precompute the spectral data used everywhere below."""
    t = matcore.as_matrix(t)
    spectrum = matcore.hermitian_eig(t)
    w = spectrum.eigenvalues
    top = max(float(w[0]), 0.0)
    if w[-1] < -PSD_RELTOL * top or (top == 0.0 and w[-1] < 0.0):
        raise NotPsd(f"smallest eigenvalue {w[-1]} is negative beyond tolerance")
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
    """Whether bordering t with (v, 1) keeps the rank unchanged."""
    ext = psd_extension(t)
    return _border_rank(bordered(ext.t, v)) == _border_rank(ext.t)


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


def _inverse_gram_form(os_: OuterSequence, tv: np.ndarray) -> float:
    """w^T G^{-1} w with w = |tv|^2 entrywise and G the cached outer Gram.

    The elliptic value and the quartic are this one quantity, and 1 minus
    it is the Schur complement of G in the bordered Gram [[G, w], [w^T, 1]].
    """
    w = np.abs(tv) ** 2
    y = os_.gram_spectrum.eigenvectors.T @ w
    return float(np.sum(y ** 2 / os_.gram_spectrum.eigenvalues))


def _check_candidate(os_: OuterSequence, candidate) -> np.ndarray:
    candidate = np.asarray(candidate).reshape(-1)
    if candidate.shape[0] != os_.source.n:
        raise ShapeMismatch(
            f"candidate has length {candidate.shape[0]}, frame lives in dimension {os_.source.n}")
    if abs(np.linalg.norm(candidate) - 1.0) > UNIT_TOL:
        raise NotUnitNorm("candidate must be unit norm")
    if os_.rank < os_.m:
        raise NotIndependent("the outer products of the frame must be independent")
    if os_.m + 1 > os_.ambient_dim:
        raise TooMany(
            f"M + 1 = {os_.m + 1} exceeds the ambient self-adjoint dimension {os_.ambient_dim}")
    return candidate


def elliptic_value(f: Frame, candidate) -> float:
    """Weighted eigen-expansion of |<candidate, phi_i>|^2; equals 1 iff the
    candidate's outer product is dependent on the existing ones."""
    os_ = induce(f)
    candidate = _check_candidate(os_, candidate)
    return _inverse_gram_form(os_, analysis(os_.source) @ candidate)


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
    return abs(_inverse_gram_form(os_, v) - 1.0)


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
    coords = sd.eigenvectors.conj().T @ v
    head = coords[:f.n]
    tail = coords[f.n:]
    if tail.size and float(np.linalg.norm(tail)) > tol:
        return float("inf")
    return abs(float(np.sum(np.abs(head) ** 2 / sd.eigenvalues[:f.n])) - 1.0)


@dataclass(frozen=True)
class ClassificationReport:
    """Residuals and verdict for one candidate vector.

    verdict is "dependent" iff |elliptic_value - 1| <= tol; the verdict is
    always cross-checked against the rank of the extended outer Gram.
    quartic_value is the same w^T G^{-1} w in the quartic's notation.
    permutation records the greedy independent-prefix reordering applied
    when the input frame itself had dependent outer products.
    """

    candidate: np.ndarray
    tv: np.ndarray
    ellipsoid_residual: float
    quartic_value: float
    elliptic_value: float
    verdict: str
    tol: float
    permutation: tuple | None = None


def classify(f: Frame, candidate, tol: float = DEFAULT_VERDICT_TOL) -> ClassificationReport:
    """Decide whether appending a unit candidate keeps the outers independent.

    When the input frame already has dependent outer products it is
    reordered to its greedy independent prefix first and the permutation
    is recorded in the report.
    """
    os_ = induce(f)
    permutation = None
    if os_.rank < os_.m:
        permutation = independent_prefix(f)
        f = f.subframe(permutation)
        os_ = induce(f)
    candidate = _check_candidate(os_, candidate)
    tv = analysis(f) @ candidate
    value = _inverse_gram_form(os_, tv)
    verdict = "dependent" if abs(value - 1.0) <= tol else "independent"

    extended = Frame(field=f.field,
                     vectors=np.vstack([f.vectors, candidate.reshape(1, -1)]))
    rank_verdict = induce(extended).rank == os_.rank
    if rank_verdict != (verdict == "dependent"):
        raise InternalInconsistency(
            f"elliptic value {value} (verdict {verdict}) disagrees with the "
            f"extended-Gram rank comparison")

    if spans(f):
        ell = ellipsoid_residual(f, tv, tol)
    else:
        ell = float("nan")
    return ClassificationReport(candidate=candidate, tv=tv, ellipsoid_residual=ell,
                                quartic_value=value, elliptic_value=value,
                                verdict=verdict, tol=tol, permutation=permutation)


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
        worst = max(worst, abs(_inverse_gram_form(pos, a @ psi) - 1.0))
    return worst
