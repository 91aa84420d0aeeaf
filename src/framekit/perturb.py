"""Quantitative stability of Riesz bounds and the density "nudge".

Two perturbation metrics appear side by side: the open-neighborhood
guarantees budget the sum of squared vector distances, while the density
repair budgets the plain sum of norms (each summand below eps/M).  Each
operation documents which one it enforces.

The repair runs on stacks: ``nudge_batch`` nudges a (K, M, N) vector stack
in one lockstep ``outer._GreedyScan``, the offenders of a step taking their
candidates from the one (K, D, N) array of a ``nearby_independent_basis``
call, whose family follows the stack's field, and
``nudge_to_independence`` is its one-frame case.  ``movement``,
``outer_distance`` and ``perturbed_riesz_bounds`` take stacks as well; every
result is bit for bit that of its frame or pair alone.
"""

import math
from functools import lru_cache

import numpy as np

from . import matcore
from .constructions import complex_eij_basis, eij_basis
from .errors import (
    BadParam,
    BudgetTooLarge,
    InternalInconsistency,
    NotIndependent,
    NotUnitNorm,
    SingularOperator,
    TooMany,
)
from .frame import UNIT_NORM_TOL, Frame, checked_vectors, field_of, unit_norm
from .outer import OuterBatch, _GreedyScan, _outer_spectra, _rows, induce


def perturbed_riesz_bounds(a, b, eps_sq) -> tuple:
    """Riesz bound envelope after a perturbation of squared size eps_sq;
    for arrays a, b and eps_sq, the envelope of each entry.

    A Riesz sequence with bounds (a, b) stays Riesz under any perturbation
    with sum ||phi_i - psi_i||^2 < eps_sq < a, with bounds
    ((sqrt(a) - eps)^2, (sqrt(b) + eps)^2) for eps = sqrt(eps_sq).
    """
    if not np.all((0.0 < a) & (a <= b)):
        raise BadParam("need 0 < a <= b")
    if np.any(eps_sq >= a):
        raise BudgetTooLarge(f"squared budget {eps_sq} must stay below the lower bound {a}")
    eps = np.sqrt(eps_sq)
    return matcore.scalar_square(np.sqrt(a) - eps), matcore.scalar_square(np.sqrt(b) + eps)


#: How far outer_distance's closed form may exceed its bound: norms within
#: UNIT_NORM_TOL of 1 move it by up to 2(1 - (1 - tol)^4) < 8 tol (phi = psi
#: at norm 1 - tol), and 1e-12 more covers rounding.
_DISTANCE_SLACK = 8.0 * UNIT_NORM_TOL + 1e-12


def outer_distance(phi, psi):
    """||phi phi* - psi psi*||_F^2 for unit vectors, as 2(1 - |<phi, psi>|^2):
    a float for two vectors, an (...,) array for two (..., N) stacks of them,
    pair by pair.

    Checks the closed form against its bound 2||phi - psi||^2, with the
    slack that the unit-norm tolerance allows, and fails loudly if the
    inequality is violated; both checks hold for every pair.
    Each value is bit for bit what ``np.vdot``, ``np.linalg.norm`` and
    scalar arithmetic give on its pair alone: the inner product is a matmul
    dot, its modulus a hypot (numpy's scalar abs), the norms come from
    ``matcore.row_norms``, and the squares are ``matcore.scalar_square``.
    """
    phi, psi = np.asarray(phi), np.asarray(psi)
    if not (unit_norm(phi) and unit_norm(psi)):
        raise NotUnitNorm("outer_distance is stated for unit vectors")
    ip = (psi.conj()[..., None, :] @ phi[..., :, None])[..., 0, 0]  # <phi, psi>
    value = 2.0 * (1.0 - matcore.scalar_square(np.hypot(ip.real, ip.imag)))
    bound = 2.0 * matcore.scalar_square(matcore.row_norms(phi - psi))
    if np.any(value > bound + _DISTANCE_SLACK):
        worst = np.argmax(value - bound)
        raise InternalInconsistency(f"closed form {value.flat[worst]} exceeds the distance "
                                    f"bound {bound.flat[worst]}")
    return float(value) if value.ndim == 0 else value


def independence_radius(os_: OuterBatch):
    """Half the lower outer Riesz bound; for a stacked batch, each frame's.

    Any unit-norm perturbation with sum ||phi_i - psi_i||^2 below this
    radius keeps the outer products independent; the resulting bounds are
    perturbed_riesz_bounds(A, B, 2 * eps) as a function of the budget eps.
    """
    if not np.all(os_.independent):
        raise NotIndependent("independence radius needs independent outer products")
    return os_.gram_spectrum.eigenvalues[..., -1] / 2.0


def rescale_invariance_check(f: Frame, s) -> bool:
    """Outer-product independence is invariant under invertible rescaling.

    Returns whether the verdicts for {phi_i} and {S phi_i} agree; this is
    a named check for the test suite and must always come back True.
    """
    s = matcore.as_matrix(s)
    if s.shape != (f.n, f.n):
        raise BadParam(f"operator shape {s.shape} does not act on dimension {f.n}")
    if matcore.numerical_rank(s) < f.n:
        raise SingularOperator("rescaling operator is singular at tolerance")
    field = "complex" if (np.iscomplexobj(s) or f.field == "complex") else "real"
    mapped = Frame(field=field, vectors=(s @ f.vectors.T).T)
    before = induce(f).rank == f.m
    after = induce(mapped).rank == f.m
    return before == after


def _dependent_basis(what: str) -> Exception:
    """The error of a re-check that finds a constructed basis dependent: its
    rank rule follows FRAMEKIT_TOL, so with that set the tolerance is too
    coarse for the basis (BadParam), and without it the fault is internal."""
    tol = matcore.env_rank_tol()
    if tol is None:
        return InternalInconsistency(what)
    return BadParam(f"FRAMEKIT_TOL = {tol:g} is too coarse to resolve the nearby "
                    f"independent basis ({what})")


@lru_cache(maxsize=None)
def _aligned_base(n: int, cplx: bool, tol) -> tuple:
    """The E_ij family reflected so every member has a positive first
    coordinate, with its outer products verified independent once, and the
    largest ratio sum_j>=2 |v(j)|^2 / |v(1)|^2 over its members.

    Cached per dimension, field and FRAMEKIT_TOL value ``tol``, which the
    check follows; the outer Gram's order-one margins let this one check
    certify every compressed copy (invertible rescalings keep independence).
    """
    base = (complex_eij_basis(n) if cplx else eij_basis(n)).vectors
    u = np.full(n, 1.0 / np.sqrt(n))
    e1 = np.zeros(n)
    e1[0] = 1.0
    diff = u - e1
    refl = np.eye(n) - 2.0 * np.outer(diff, diff) / float(diff @ diff)
    rotated = []
    for v in base:
        w = refl @ v
        first = w[0]
        if abs(first) <= 1e-12:
            raise InternalInconsistency("rotated basis vector lost its first coordinate")
        w = w * (np.conj(first) / abs(first))  # phase only, outer product unchanged
        w.flags.writeable = False
        rotated.append(w)
    family = Frame.from_vectors(np.array(rotated), field="complex" if cplx else "real")
    if induce(family).rank != len(rotated):
        raise _dependent_basis("aligned E_ij family lost independence")
    ratio = max(float(np.sum(np.abs(w[1:]) ** 2) / np.abs(w[0]) ** 2) for w in rotated)
    return tuple(rotated), ratio


@lru_cache(maxsize=None)
def _compressed_base(n: int, cplx: bool, delta: float, tol) -> np.ndarray:
    """The aligned family checked at tol, coordinates after the first scaled
    by delta, rows renormalized.  Cached: delta is a power of two."""
    scale = np.full(n, delta)
    scale[0] = 1.0
    sw = np.array(_aligned_base(n, cplx, tol)[0]) * scale
    sw /= matcore.row_norms(sw)[:, None]
    sw.flags.writeable = False
    return sw


def _rotated_bases(psi: np.ndarray, eps: float) -> np.ndarray:
    """The (K, D, N) bases of ``nearby_independent_basis`` for a (K, N) stack
    of unit rows, of the family of its dtype: one Householder per row
    carries e_1 to it, and one stacked eigendecomposition re-checks them all."""
    n, cplx, tol = psi.shape[-1], np.iscomplexobj(psi), matcore.env_rank_tol()
    ratio = _aligned_base(n, cplx, tol)[1]
    delta = 1.0
    while ratio > 0.0 and delta * delta * ratio > eps / 2.0:
        delta /= 2.0
    compressed = _compressed_base(n, cplx, delta, tol)

    # unitaries with U e_1 = psi (phase-adjusted Householder); the phase is
    # psi[0] / |psi[0]| with numpy's scalar abs (hypot), 1 when psi[0] is 0,
    # and exactly +-1 on a real row
    first = psi[:, 0]
    size = np.hypot(first.real, first.imag)
    gamma = np.where(size > 0, first / np.where(size > 0, size, 1.0), 1.0)
    target = np.conj(gamma)[:, None] * psi
    e1 = np.zeros(n, dtype=target.dtype)
    e1[0] = 1.0
    d = target - e1
    dn = (d.conj()[:, None, :] @ d[:, :, None])[:, 0, 0].real  # np.vdot(d, d) per row
    eye = np.eye(n, dtype=target.dtype)
    flat = (dn <= 1e-30)[:, None, None]  # psi is e_1 up to the phase
    outer_d = d[:, :, None] * d.conj()[:, None, :]
    reflection = eye - 2.0 * outer_d / np.where(flat, 1.0, dn[:, None, None])
    unitary = gamma[:, None, None] * np.where(flat, eye, reflection)

    out = (unitary[:, None] @ compressed[None, :, :, None])[..., 0]
    worst = matcore.scalar_square(matcore.row_norms(out - psi[:, None]).max(axis=-1))
    if eps < 2.0 and np.any(worst >= eps):
        raise InternalInconsistency(f"construction moved {worst.max()} >= eps = {eps}")
    if delta >= 1e-2 and np.any(_outer_spectra(out)[2] != len(compressed)):
        raise _dependent_basis("constructed basis has dependent outer products")
    return out


def nearby_independent_basis(psi, eps: float) -> np.ndarray:
    """A unit-norm outer-product basis clustered within sqrt(eps) of psi:
    its (D, N) vectors for one vector psi, and for a (K, N) stack of them
    the (K, D, N) bases of the rows.

    Construction: rotate the E_ij family so every member has positive
    inner product with the first coordinate axis, compress all later
    coordinates by the largest power-of-two delta satisfying
    delta^2 * sum_j>=2 |v(j)|^2 <= (eps/2) * |v(1)|^2, renormalize, then
    carry e_1 to psi by a unitary.  The family follows the field, that is
    psi's dtype: complex (D = N^2) for a complex array, whatever its rows'
    values, real (D = N(N+1)/2) for a real one.
    The compressed family is cached; the unitaries and both checks below
    belong to each call, stacked over the rows, and each row's basis is
    bit for bit what it gets alone.  Every output satisfies
    ||phi_i - psi||^2 < eps; independence of the outer products follows
    from the verified base via invertibility of the compression, and is
    re-checked directly whenever delta is large enough for a floating
    rank test to be meaningful (below that, the outer Gram's smallest
    eigenvalue scales like delta^4 and sinks toward machine epsilon).
    A failed re-check raises BadParam when FRAMEKIT_TOL is set, else
    InternalInconsistency.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise BadParam(f"eps must be finite and positive, got {eps}")
    rows = np.asarray(psi)
    if rows.ndim == 1:
        return nearby_independent_basis(rows[None], eps)[0]
    if not unit_norm(rows):
        raise NotUnitNorm("the reference vector must be unit norm")
    if rows.shape[-1] == 1:
        return rows[:, None].copy()
    return _rotated_bases(rows, eps)


def movement(f, g):
    """sum_i ||g_i - f_i||, the metric the density repair budgets, summed
    left to right: a float for two frames, an (...,) array for two
    (..., M, N) stacks of vector rows, frame by frame (a cumulative sum
    adds in order, where ``np.sum`` adds pairwise)."""
    total = np.cumsum(matcore.row_norms(_rows(g) - _rows(f)), axis=-1)[..., -1]
    return float(total) if total.ndim == 0 else total


def nudge_batch(vectors, eps: float) -> np.ndarray:
    """``nudge_to_independence`` for a (K, M, N) vector stack, validated
    into a copy as ``induce_batch`` validates it: the nudged stack, from one
    lockstep greedy scan, each frame bit for bit what it gets alone.

    Greedy: vectors whose outer product grows the running rank are kept
    verbatim; each offender is replaced by the first member of a nearby
    independent basis (budget eps/M per vector, metric sum of norms) whose
    outer product leaves the current span.  Either way vector i leaves each
    frame with i + 1 kept vectors, so one ``outer._GreedyScan`` of the K
    frames judges vector i of every frame in one trial, and the offenders'
    candidates, from one ``nearby_independent_basis`` call, a member at a
    time; it certifies by a Schur test and takes the eig rule on the trial
    vectors only near the rank threshold.  Row j is the input row, bit for
    bit, wherever frame j's outer products were already independent.

    BadParam for an eps that is not finite and positive, or whose budget
    per vector underflows once a vector must move, or is too small for the
    rank rule to see any basis member grow the span, or when FRAMEKIT_TOL
    is too coarse to resolve the nearby basis; ``Frame``'s errors for a
    stack it rejects; TooMany when M exceeds the ambient self-adjoint
    dimension; NotUnitNorm for a frame that is not unit norm.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise BadParam(f"eps must be finite and positive, got {eps}")
    vectors = checked_vectors(vectors, field_of(vectors), ndim=3)
    m, n = vectors.shape[1:]
    d = n * n if np.iscomplexobj(vectors) else n * (n + 1) // 2  # outer.ambient_outer_dim
    if m > d:
        raise TooMany(f"M = {m} exceeds the ambient self-adjoint dimension {d}")
    if not unit_norm(vectors):
        raise NotUnitNorm("the density argument is stated for unit-norm frames")

    per_vector_sq = (eps / m) ** 2
    scan = _GreedyScan(vectors)
    for i in range(m):
        offenders = (~scan.grows(vectors[:, i])).nonzero()[0]
        if not offenders.size:
            continue
        if per_vector_sq == 0.0:
            raise BadParam(f"eps = {eps} is too small: the squared budget per vector, "
                           f"(eps / M)^2 with M = {m}, underflows to 0")
        bases = nearby_independent_basis(vectors[offenders, i], per_vector_sq)
        pending, c = np.arange(offenders.size), 0  # offenders still to replace, candidate c
        while pending.size:
            if c == bases.shape[1]:
                # the basis's outers span the whole space, so in exact
                # arithmetic some member grows any proper span: the budget
                # is below what the rank rule can resolve
                raise BadParam(f"eps = {eps} is too small: the squared budget per vector, "
                               f"(eps / M)^2 = {per_vector_sq:g} with M = {m}, is below what "
                               "the rank rule resolves; no nearby basis member grows the span")
            grew = scan.grows(bases[pending, c], offenders[pending])
            pending, c = pending[~grew], c + 1
    return scan.vectors


def nudge_to_independence(f: Frame, eps: float) -> Frame:
    """Repair dependent outer products by moving vectors less than eps total:
    the one-frame case of ``nudge_batch``.  f comes back when its row does,
    bit for bit, which is when its outers are independent: a basis member
    bitwise equal to the offender has its outer product, so the scan cannot
    accept it."""
    g = nudge_batch(f.vectors[None], eps)[0]
    return f if g.tobytes() == f.vectors.tobytes() else Frame(field=f.field, vectors=g)
