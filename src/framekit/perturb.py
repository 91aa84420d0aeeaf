"""Quantitative stability of Riesz bounds and the density "nudge".

Two perturbation metrics appear side by side: the open-neighborhood
guarantees budget the sum of squared vector distances, while the density
repair budgets the plain sum of norms (each summand below eps/M).  Each
operation documents which one it enforces.
"""

import math
import operator
from functools import lru_cache, reduce

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
from .frame import UNIT_NORM_TOL, Frame
from .outer import OuterBatch, _GreedyScan, ambient_outer_dim, induce


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


def outer_distance(phi, psi):
    """||phi phi* - psi psi*||_F^2 for unit vectors, as 2(1 - |<phi, psi>|^2):
    a float for two vectors, an (...,) array for two (..., N) stacks of them,
    pair by pair.

    Checks the closed form against its bound 2||phi - psi||^2 and fails
    loudly if the inequality is violated; both checks hold for every pair.
    Each value is bit for bit what ``np.vdot``, ``np.linalg.norm`` and
    scalar arithmetic give on its pair alone: the inner product is a matmul
    dot, its modulus a hypot (numpy's scalar abs), the norms come from
    ``matcore.row_norms``, and the squares are ``matcore.scalar_square``.
    """
    phi, psi = np.asarray(phi), np.asarray(psi)
    if not (np.all(np.abs(matcore.row_norms(phi) - 1.0) <= UNIT_NORM_TOL)
            and np.all(np.abs(matcore.row_norms(psi) - 1.0) <= UNIT_NORM_TOL)):  # NaN fails
        raise NotUnitNorm("outer_distance is stated for unit vectors")
    ip = (psi.conj()[..., None, :] @ phi[..., :, None])[..., 0, 0]  # <phi, psi>
    value = 2.0 * (1.0 - matcore.scalar_square(np.hypot(ip.real, ip.imag)))
    bound = 2.0 * matcore.scalar_square(matcore.row_norms(phi - psi))
    if np.any(value > bound + 1e-12):
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


@lru_cache(maxsize=None)
def _aligned_base(n: int, cplx: bool) -> tuple:
    """The E_ij family reflected so every member has a positive first
    coordinate, with its outer products verified independent once, and the
    largest ratio sum_j>=2 |v(j)|^2 / |v(1)|^2 over its members.

    Cached: the family depends only on the dimension and field, and its
    outer Gram has order-one margins, so this single check certifies every
    compressed copy (an invertible rescaling preserves independence).
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
        raise InternalInconsistency("aligned E_ij family lost independence")
    ratio = max(float(np.sum(np.abs(w[1:]) ** 2) / np.abs(w[0]) ** 2) for w in rotated)
    return tuple(rotated), ratio


@lru_cache(maxsize=None)
def _compressed_base(n: int, cplx: bool, delta: float) -> np.ndarray:
    """The aligned family, coordinates after the first scaled by delta, rows
    renormalized.  Cached: delta is a power of two, so few values occur."""
    scale = np.full(n, delta)
    scale[0] = 1.0
    sw = np.array(_aligned_base(n, cplx)[0]) * scale
    sw /= matcore.row_norms(sw)[:, None]
    sw.flags.writeable = False
    return sw


def nearby_independent_basis(psi, eps: float) -> list:
    """A unit-norm outer-product basis clustered within sqrt(eps) of psi.

    Construction: rotate the E_ij family so every member has positive
    inner product with the first coordinate axis, compress all later
    coordinates by the largest power-of-two delta satisfying
    delta^2 * sum_j>=2 |v(j)|^2 <= (eps/2) * |v(1)|^2, renormalize, then
    carry e_1 to psi by a unitary.  The compressed family is cached; the
    unitary and both checks below belong to each call.  Every output satisfies
    ||phi_i - psi||^2 < eps; independence of the outer products follows
    from the verified base via invertibility of the compression, and is
    re-checked directly whenever delta is large enough for a floating
    rank test to be meaningful (below that, the outer Gram's smallest
    eigenvalue scales like delta^4 and sinks toward machine epsilon).
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise BadParam(f"eps must be finite and positive, got {eps}")
    psi = np.asarray(psi).reshape(-1)
    if not abs(np.linalg.norm(psi) - 1.0) <= UNIT_NORM_TOL:  # a NaN norm fails too
        raise NotUnitNorm("the reference vector must be unit norm")
    n = psi.shape[0]
    cplx = np.iscomplexobj(psi) and bool(np.any(psi.imag != 0.0))
    if n == 1:
        return [psi.copy()]

    ratio = _aligned_base(n, cplx)[1]
    delta = 1.0
    while ratio > 0.0 and delta * delta * ratio > eps / 2.0:
        delta /= 2.0
    compressed = _compressed_base(n, cplx, delta)

    # unitary with U e_1 = psi (phase-adjusted Householder)
    if cplx:
        gamma = psi[0] / abs(psi[0]) if abs(psi[0]) > 0 else 1.0
    else:
        gamma = 1.0 if psi[0] >= 0 else -1.0
    target = np.conj(gamma) * psi
    e1 = np.zeros(n, dtype=target.dtype)
    e1[0] = 1.0
    d = target - e1
    dn = float(np.real(np.vdot(d, d)))
    if dn <= 1e-30:
        unitary = gamma * np.eye(n, dtype=target.dtype)
    else:
        unitary = gamma * (np.eye(n, dtype=target.dtype) - 2.0 * np.outer(d, d.conj()) / dn)

    out = [unitary @ w for w in compressed]
    worst = float(matcore.row_norms(np.array(out) - psi).max()) ** 2
    if worst >= eps and eps < 2.0:
        raise InternalInconsistency(f"construction moved {worst} >= eps = {eps}")
    if delta >= 1e-2:
        rank = induce(Frame.from_vectors(np.array(out),
                                         field="complex" if cplx else "real")).rank
        if rank != len(out):
            raise InternalInconsistency("constructed basis has dependent outer products")
    return out


def movement(f: Frame, g: Frame) -> float:
    """sum_i ||g_i - f_i||, the metric the density repair budgets, summed
    left to right."""
    return float(reduce(operator.add, matcore.row_norms(g.vectors - f.vectors)))


def nudge_to_independence(f: Frame, eps: float) -> Frame:
    """Repair dependent outer products by moving vectors less than eps total.

    Greedy: vectors whose outer product grows the running rank are kept
    verbatim; each offender is replaced by the first member of a nearby
    independent basis (budget eps/M per vector, metric sum of norms) whose
    outer product leaves the current span.  Already-independent input
    comes back unchanged.  One ``outer._GreedyScan`` judges the original
    vectors and the candidates alike: a certified Schur test per trial, and
    the eig rule on the trial vectors only near the rank threshold.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise BadParam(f"eps must be finite and positive, got {eps}")
    d = ambient_outer_dim(f)
    if f.m > d:
        raise TooMany(f"M = {f.m} exceeds the ambient self-adjoint dimension {d}")
    if not f.is_unit_norm:
        raise NotUnitNorm("the density argument is stated for unit-norm frames")

    per_vector_sq = (eps / f.m) ** 2
    scan = _GreedyScan(f)
    replaced = False
    for current in f.vectors:
        if scan.grows(current):
            continue
        replaced = True
        if per_vector_sq == 0.0:
            raise BadParam(f"eps = {eps} is too small: the squared budget per vector, "
                           f"(eps / M)^2 with M = {f.m}, underflows to 0")
        if not any(scan.grows(cand)
                   for cand in nearby_independent_basis(current, per_vector_sq)):
            raise InternalInconsistency("no basis member grew the outer span")
    if not replaced:
        return f
    return Frame(field=f.field, vectors=scan.vectors[:scan.k])
