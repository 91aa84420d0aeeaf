"""Reproduction suite: every published number and bound this package
implements, checked at fixed tolerances.

Each named check returns rows with the measured value, the expected
value, and the tolerance that gated the comparison.  The CLI ``verify``
subcommand runs them all and exits non-zero on any failure; the pytest
acceptance module drives the same functions.  All randomness comes from
the package's own counter-based generator so every run is identical.

Every Monte Carlo check is stacked, and its corpus takes one path.
``_random_stacks`` draws the frames of each (n, m, field) of specs in one
counter-word mix; ``_kept_groups`` induces each such (K, m, n) block in
one ``outer.induce_batch`` and cuts it to the frames that pass the check's
filter, and ``_first_kept`` does so for the first count k that pass, in
blocks just large enough; ``_group_words`` then hands the check's stream
words out of one ``raw`` block in case order, a run of words to each kept
case and none to a case the filter skips.  Filters and decisions are
stacked LAPACK calls per (frame shape, field), and every frame, vector and
verdict is bit for bit what case-by-case evaluation gives, so the rows are
the same either way.  The classifier corpus is prepared and classified one
shape group at a time (``geometry.prepare_batch`` and
``classify_frames``), the duals invert the vector-Gram eigendecompositions
that their filters ranked, and ``nudge-repair`` nudges each (shape, field)
group of its corpus with one ``perturb.nudge_batch`` call per budget and
judges the nudged stacks' ranks and movements stacked.  Each forward case
of ``psd-extension-roundtrip`` draws the same words whatever its outcome,
and the cases of one (order, field) take one QR, one eigh and one
bordered eigvalsh over all their ranks and probes.

Ranks that LAPACK computes are checked against an exact oracle,
``rational_rank``: Gaussian elimination of a stack of matrices, scaled to
integers, modulo enough primes p = 1 (mod 4) below 2^31 that their product
exceeds every minor's Hadamard bound H, all in lockstep in int64; the rank
is the largest over the primes.  A complex A + iB is reduced at its own
size, as A + sB modulo p with s^2 = -1 (mod p); its primes' product exceeds
H^2, which bounds the norm |D|^2 of every minor D, so no nonzero minor lies
in all their prime ideals (p, i - s).  ``psd-extension-roundtrip`` builds
its exact-rank cases per shape and takes both ranks once per (shape,
field) stack.
"""

import math
import time
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import constructions as cons
from . import geometry, matcore, outer, perturb
from .errors import BadParam, ShapeMismatch
from .frame import Frame, riesz_bounds, vector_gram
from .rng import Stream, box_muller, normal_words, unit_rows, unit_vectors, word_uniforms


class CheckRow(NamedTuple):
    check: str
    case: str
    passed: bool
    measured: float
    expected: str
    tolerance: float | None


def _row(check, case, measured, expected, tolerance, passed):
    return CheckRow(check=check, case=case, passed=bool(passed),
                    measured=float(measured), expected=str(expected),
                    tolerance=tolerance)


def _index_groups(keys) -> dict:
    """The indices of equal keys, by key, keys in order of first sight."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _random_stacks(specs) -> list:
    """The vectors of ``random_unit(n, m, seed, field)`` for the specs
    (n, m, seed, field): per (n, m, field), in order of first sight, the
    indices of its specs and their (K, m, n) vectors, drawn in one block."""
    groups = _index_groups((n, m, field) for n, m, _, field in specs)
    return [(np.array(idx), cons.random_unit_stack(n, m, [specs[i][2] for i in idx], field))
            for (n, m, field), idx in groups.items()]


def _gram_eigvalues(v) -> tuple:
    """The descending eigenvalues of each vector Gram of a (K, m, n) stack and
    whether its vectors are independent, read from them as riesz_bounds does."""
    w = matcore.hermitian_eigvalues(vector_gram(v))
    return w, matcore.rank_from_eigenvalues(w, w.shape[-1:] * 2) == v.shape[-2]


def _kept_groups(specs, keep) -> list:
    """Per (n, m, field) group of the specs (n, m, seed, field), in order of
    first sight, that has a frame passing keep (an ``OuterBatch`` -> (K,)
    bool rule): the indices of the specs that pass and the group's
    ``induce_batch``, cut to their frames."""
    groups = []
    for idx, block in _random_stacks(specs):
        batch = outer.induce_batch(block)
        rows = np.flatnonzero(keep(batch))
        if rows.size:
            groups.append((idx[rows], batch.take(rows)))
    return groups


def _first_kept(spec, count, keep) -> list:
    """``_kept_groups`` of the first count k whose frame spec(k) passes keep,
    k counting from 0: blocks of k just large enough to reach count if every
    frame passes, each block's groups with k for spec indices."""
    groups, kept, k = [], 0, 0
    while kept < count:
        ks = range(k, k + count - kept)
        block = _kept_groups([spec(j) for j in ks], keep)
        groups += [(idx + k, batch) for idx, batch in block]
        kept += sum(len(idx) for idx, _ in block)
        k = ks.stop
    return groups


def _group_words(stream, count, groups) -> list:
    """One ``raw`` block for cases 0 .. count-1 in order, where each case of
    a group (its case indices, width) draws width words and every other case
    draws none: per group, a (len(indices), width) block of its cases' words."""
    widths = np.zeros(count, dtype=int)
    for idx, width in groups:
        widths[idx] = width
    words = stream.raw(int(widths.sum()))
    starts = np.cumsum(widths) - widths
    return [words[starts[idx][:, None] + np.arange(width)] for idx, width in groups]


def _orthonormal(g):
    """Q of the QR factorization of g (or of each matrix of a stack), its
    columns signed by the diagonal of R."""
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1).real)[..., None, :]


# ---------------------------------------------------------------------------
# exact modular elimination, the independent rank oracle


@lru_cache(maxsize=None)
def _prime_window(width: int) -> np.ndarray:
    """The primes p = 1 (mod 4) in [2^31 - width, 2^31), largest first, by a
    sieve of the window with the primes up to 46341 (> sqrt(2^31))."""
    small = np.ones(46342, dtype=bool)
    small[:2] = False
    for p in range(2, 216):  # 216^2 > 46341
        if small[p]:
            small[p * p::p] = False
    sieving = np.flatnonzero(small)
    lo = 2**31 - width
    first = -lo % sieving  # each sieving prime's first multiple in the window
    composite = np.zeros(width, dtype=bool)
    for p, at in zip(sieving[sieving < width], first[sieving < width]):
        composite[at::p] = True
    wide = first[sieving >= width]  # one multiple in the window at most
    composite[wide[wide < width]] = True
    primes = lo + np.flatnonzero(~composite)[::-1]
    return primes[primes % 4 == 1]


def _moduli(count: int) -> np.ndarray:
    """The count largest primes p = 1 (mod 4) below 2^31, largest first.
    Each is above 2^30, and a product of two residues fits int64."""
    width = 1024
    while len(_prime_window(width)) < count:
        width *= 2
    return _prime_window(width)[:count]


@lru_cache(maxsize=None)
def _unit_root(p: int) -> int:
    """The s in [1, p/2) with s^2 = -1 (mod p), for a prime p = 1 (mod 4):
    c^((p-1)/4) for the least c that is not a square modulo p."""
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    s = pow(c, (p - 1) // 4, p)
    return min(s, p - s)


def _exact_entries(a: np.ndarray) -> np.ndarray:
    """a as int64, float64 or complex128, the first that holds every entry
    exactly; BadParam if none does, since a rounded entry can change the rank."""
    if a.dtype.kind in "biu" and np.can_cast(a.dtype, np.int64):
        return a.astype(np.int64)
    if a.dtype.kind in "fc" and np.can_cast(a.dtype, np.complex128):
        return a.astype(np.float64 if a.dtype.kind == "f" else np.complex128)
    for kind in (np.int64, np.float64, np.complex128):  # object arrays and the like
        try:
            cast = a.astype(kind)
        except (TypeError, ValueError, OverflowError):
            continue
        if np.all(cast.astype(object) == a.astype(object)):
            return cast
    raise BadParam("rational_rank needs entries that int64, float64 or complex128 holds exactly")


def _binary_integers(a: np.ndarray) -> tuple:
    """For a stack of int64 or finite float64 matrices, odd or zero int64 m
    and exponents d >= 0 with each matrix m 2^d times one power of two, and
    bits with |m 2^d| < 2^bits: (m, d, bits)."""
    if a.dtype == np.int64:
        m, e = a, np.zeros(a.shape, dtype=np.int64)
    else:
        mantissa, exponent = np.frexp(a)
        m, e = (mantissa * 2.0**53).astype(np.int64), exponent.astype(np.int64) - 53
    nonzero = m != 0
    zeros = np.where(nonzero, np.frexp(m & -m)[1] - 1, 0)  # trailing zero bits
    m, e = m >> zeros, e + zeros
    shift = e.min(axis=(-2, -1), where=nonzero, initial=np.iinfo(np.int64).max, keepdims=True)
    d = np.where(nonzero, e - shift, 0)
    return m, d, np.where(nonzero, np.frexp(m)[1] + d, 0)


def _ranks_modulo(r: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rank of each residue matrix r[:, :, b] modulo p[b], for a (cols, rows,
    B) stack whose batch axis is innermost: (B,), one column step for all."""
    rank = np.zeros(r.shape[-1], dtype=np.int64)
    batch = np.arange(r.shape[-1])
    for _ in range(len(r)):
        col = r[0]
        nonzero = col != 0
        found = nonzero.any(axis=0)
        top = r[:, nonzero.argmax(axis=0), batch]
        pivot = np.where(found, top[0], 1)
        # each row times the pivot minus its entry times the pivot row, which
        # zeroes the column and the pivot row; both products are below 2^62,
        # and adding p - top in place of subtracting top keeps the sum
        # nonnegative, where numpy's % is about twice as fast
        r = (r[1:] * pivot + col * (p - top[1:, None])) % p
        rank += found
    return rank


def rational_rank(matrix):
    """Exact rank of a matrix of binary numbers (finite float64 or int64
    entries), real or complex: an int for a matrix, the ranks for an
    (..., m, n) stack.

    Each matrix becomes integers, Gaussian integers A + iB when complex, by
    one power of two (``_binary_integers``), and the stack is eliminated
    modulo the count largest primes p = 1 (mod 4) below 2^31 in lockstep, a
    pivot per matrix and prime.  Modulo p, i maps to the s with s^2 = -1
    (mod p), so A + iB becomes the residues of A + sB, a matrix of its own
    size.  The rank modulo a prime is never above the rank r over Q (over
    Q(i) when complex), and count is such that the primes' product exceeds
    the Hadamard bound H on every minor, the product of the row norms, for
    a real matrix and H^2 for a complex one.  A nonzero r x r minor D has
    |D| <= H, so some prime does not divide it, and the largest rank over
    the primes is r.  For a complex D, every prime ideal (p, i - s) holding
    D would make the product of the primes divide the norm |D|^2 <= H^2.
    Residues and elimination are int64 arithmetic, and only the prime count
    is a float bound, with a margin: independent of LAPACK.
    """
    a = np.asarray(matrix)
    if a.ndim < 2:
        raise ShapeMismatch(f"expected a matrix or a stack of matrices, got shape {a.shape}")
    a = _exact_entries(a)
    if not np.isfinite(a).all():
        raise BadParam("rational_rank needs finite entries")
    if a.shape[-1] > a.shape[-2]:
        a = a.swapaxes(-1, -2)  # one column step per column of the narrower side
    flat = a.reshape((math.prod(a.shape[:-2]),) + a.shape[-2:])
    cplx = a.dtype == np.complex128
    # B beside A: a row of [A, B] has the norm of its row of A + iB
    m, d, bits = _binary_integers(np.concatenate([flat.real, flat.imag], axis=-1)
                                  if cplx else flat)
    # log2 H^2, H the product of the nonzero rows' norms: a row whose entries
    # are below 2^top has norm 2^top |row / 2^top|, the second factor at
    # least 1/2; 2^-20 a row covers the rounding.  Each prime adds 30 bits.
    top = bits.max(axis=-1, initial=0)
    scaled = np.sum(np.ldexp(m, d - top[..., None]) ** 2, axis=-1)
    log_h2 = np.where(top > 0, 2 * top + np.log2(np.maximum(scaled, 0.25)) + 2.0**-20, 0)
    bound_bits = log_h2.sum(axis=-1).max(initial=0) * (2 if cplx else 1)
    p = _moduli(max(1, int(np.ceil(bound_bits / 60))))
    exponents, which = np.unique(d, return_inverse=True)
    powers = np.array([[pow(2, int(k), int(q)) for q in p] for k in exponents],
                      dtype=np.int64).reshape(-1, len(p))
    # (cols, rows, matrix, prime), the batch innermost for the column steps
    residues = (m.T[..., None] % p) * powers[which.reshape(d.shape).T] % p
    if cplx:  # A + sB, the product below 2^62
        cols = flat.shape[-1]
        s = np.array([_unit_root(int(q)) for q in p], dtype=np.int64)
        residues = (residues[:cols] + s * residues[cols:]) % p
    batch = np.tile(p, len(m))
    ranks = _ranks_modulo(residues.reshape(residues.shape[:2] + batch.shape), batch)
    ranks = ranks.reshape(len(m), len(p)).max(axis=1).reshape(a.shape[:-2])
    return int(ranks) if a.ndim == 2 else ranks


# ---------------------------------------------------------------------------
# outer brace identity


def _pc2_sides(cplx: bool) -> tuple:
    """Both sides of <P_phi, P_psi> = |<phi, psi>|^2 for 1000 (phi, psi)
    pairs drawn alternately from one stream: the trace inner products and
    the squared moduli, each bit for bit what its pair gives alone."""
    pairs = unit_vectors(Stream(101 if cplx else 100), 2000, 3, cplx).reshape(1000, 2, 3)
    phi, psi = pairs[:, 0], pairs[:, 1]
    p_phi = phi[:, :, None] * phi.conj()[:, None, :]
    p_psi = psi[:, :, None] * psi.conj()[:, None, :]
    lhs = np.sum(np.conj(p_phi) * p_psi, axis=(-2, -1))
    ip = (psi.conj()[:, None, :] @ phi[:, :, None])[:, 0, 0]  # vdot(psi, phi)
    # |ip| as hypot, which is numpy's scalar abs; its array abs of complex
    # numbers can differ in the last bit, and so can an array's ** 2
    rhs = matcore.scalar_square(np.hypot(ip.real, ip.imag) if cplx else np.abs(ip))
    return (lhs.real if cplx else lhs), rhs


def check_pc2_identity():
    rows = []
    for field, cplx in (("real", False), ("complex", True)):
        lhs, rhs = _pc2_sides(cplx)
        worst = float(np.max(np.abs(lhs - rhs), initial=0.0))
        rows.append(_row("pc2-identity", field, worst, "0", 1e-12, worst <= 1e-12))
    return rows


# the epsilon example


def check_epsilon_example():
    rows = []
    for eps in (0.04, 0.25, 0.81):
        f = cons.epsilon_pair(eps)
        rb = riesz_bounds(f)
        ob = outer.outer_riesz_bounds(outer.induce(f))
        dev = max(abs(rb.lower - (1 - np.sqrt(eps))), abs(rb.upper - (1 + np.sqrt(eps))),
                  abs(ob.lower - (1 - eps)), abs(ob.upper - (1 + eps)))
        rows.append(_row("epsilon-example", f"eps={eps}", dev,
                         "bounds 1-+sqrt(eps), outer 1-+eps", 1e-10, dev <= 1e-10))
    return rows


# outer Gram as a Hadamard square


def check_hadamard_gram():
    stream = Stream(300)
    specs = [(2 + k % 3, 2 + (k // 2) % 4, 3000 + k, "complex" if k % 2 else "real")
             for k in range(500)]
    stacks = _random_stacks(specs)
    # non-unit norms so the diagonal envelope is exercised: every third frame,
    # in order, scales its m vectors by one block of uniforms
    scales = _group_words(stream, len(specs),
                          [(idx[idx % 3 == 0], v.shape[1]) for idx, v in stacks])
    worst_id = 0.0
    worst_env = -np.inf
    for (idx, v), words in zip(stacks, scales):
        v[idx % 3 == 0] *= (0.5 + word_uniforms(words))[..., None]
        gram_op, spectrum, _ = outer._outer_spectra(v)
        g = vector_gram(v)
        dev = np.linalg.norm(gram_op - np.abs(g) ** 2, axis=(-2, -1))
        worst_id = max(worst_id, float(dev.max()))
        w = spectrum.eigenvalues
        gw = matcore.hermitian_eigvalues(g)
        d = np.diagonal(g, axis1=-2, axis2=-1).real
        lo = d.min(axis=-1) * gw[:, -1]
        hi = d.max(axis=-1) * gw[:, 0]
        worst_env = max(worst_env, float(np.max(lo - w[:, -1])), float(np.max(w[:, 0] - hi)))
    return [
        _row("hadamard-gram", "gram_op equals G o conj(G)", worst_id, "0", 1e-12,
             worst_id <= 1e-12),
        _row("hadamard-gram", "spectrum inside diagonal envelope", worst_env,
             "<= 0", 1e-9, worst_env <= 1e-9),
    ]


# bound floor and ceiling


def _bound_extremes_spec(k):
    n = 2 + k % 3
    d = outer.ambient_outer_dim(n, "real")
    return n, 2 + k % (d - 1), 4000 + k, "real"


def check_outer_bound_extremes():
    worst_upper = -np.inf
    worst_lower = -np.inf
    # the first 200 k whose frame has independent outer products
    for _, batch in _first_kept(_bound_extremes_spec, 200, lambda b: b.independent):
        m, n = batch.m, batch.vectors.shape[-1]
        w = batch.gram_spectrum.eigenvalues
        worst_upper = max(worst_upper, float(np.max(m / n - w[:, 0])))
        if m > n:
            worst_lower = max(worst_lower, float(np.max(w[:, -1] - m * (n - 1) / (n * (m - 1)))))
    rows = [
        _row("outer-bound-extremes", "upper bound floor M/N", worst_upper, "<= 0",
             1e-9, worst_upper <= 1e-9),
        _row("outer-bound-extremes", "lower bound ceiling (M > N)", worst_lower,
             "<= 0", 1e-9, worst_lower <= 1e-9),
    ]
    worst_eq = 0.0
    for f in [cons.simplex(n) for n in (2, 3, 4, 5)] + [cons.biangular(n) for n in (2, 4, 5)]:
        os_ = outer.induce(f)
        worst_eq = max(worst_eq, abs(os_.gram_spectrum.eigenvalues[0] - f.m / f.n))
    rows.append(_row("outer-bound-extremes", "equality on tight frames", worst_eq,
                     "0", 1e-9, worst_eq <= 1e-9))
    return rows


# simplex spectra


def check_equiangular_simplex():
    rows = []
    for n in range(2, 7):
        f = cons.simplex(n)
        m = n + 1
        c = (m - n) / (n * (m - 1))
        w = outer.induce(f).gram_spectrum.eigenvalues
        expected = np.array([1 + (m - 1) * c] + [1 - c] * (m - 1))
        dev = float(np.max(np.abs(w - expected)))
        bounds_dev = max(abs(w[-1] - m * (n - 1) / (n * (m - 1))), abs(w[0] - m / n))
        dev = max(dev, bounds_dev)
        rows.append(_row("equiangular-simplex", f"n={n}", dev,
                         "two-eigenvalue spectrum", 1e-9, dev <= 1e-9))
    return rows


# biangular table


BIANGULAR_TABLE = {2: 0.75, 3: 0.0, 4: 5 / 36, 5: 3 / 8, 6: 63 / 100}


def check_biangular_table():
    rows = []
    for n, expected in BIANGULAR_TABLE.items():
        w = outer.induce(cons.biangular(n)).gram_spectrum.eigenvalues
        dev = abs(float(w[-1]) - expected)
        rows.append(_row("biangular-table", f"N={n}", dev, f"lower bound {expected}",
                         1e-9, dev <= 1e-9))
    return rows


def check_biangular_upper():
    rows = []
    for n in (2, 4, 5, 6, 7):
        w = outer.induce(cons.biangular(n)).gram_spectrum.eigenvalues
        dev = abs(float(w[0]) - (n + 1) / 2)
        rows.append(_row("biangular-upper", f"N={n}", dev, f"upper bound {(n + 1) / 2}",
                         1e-9, dev <= 1e-9))
    return rows


def check_biangular_degeneracy():
    os_ = outer.induce(cons.biangular(3))
    pairs = cons.simplex_pairs(3)
    i14 = pairs.index((0, 3))
    i23 = pairs.index((1, 2))
    coincide = float(np.linalg.norm(os_.outers[i14] - os_.outers[i23]))
    cert = outer.dependence_certificate(os_)
    support = tuple(int(i) for i in np.flatnonzero(np.abs(cert.coefficients) > 1e-8))
    ok = (coincide <= 1e-12 and support == (i14, i23) and cert.residual <= 1e-8)
    return [_row("biangular-degeneracy", "N=3 certificate on (1,4) and (2,3)",
                 cert.residual, f"support {(i14, i23)}", 1e-8, ok)]


# E_ij ranks


def check_eij_ranks():
    rows = []
    for n in range(1, 7):
        os_ = outer.induce(cons.eij_basis(n))
        want = n * (n + 1) // 2
        rows.append(_row("eij-ranks", f"n={n}", os_.rank, f"rank {want}", None,
                         os_.rank == want and outer.is_independent(os_)))
    for n in range(1, 5):
        os_ = outer.induce(cons.complex_eij_basis(n))
        rows.append(_row("complex-eij-ranks", f"n={n}", os_.rank, f"rank {n * n}",
                         None, os_.rank == n * n and outer.is_independent(os_)))
    return rows


# dual systems


def _outer_duals_spec(k):
    n = 2 + k % 2
    return n, 2 + k % n if n > 2 else 2, 8000 + k, "complex" if k % 2 else "real"


def check_outer_duals():
    kept = []  # per group, its frames that pass and their vector-Gram spectra

    def keep(batch):  # vectors and outer products independent
        sd, free = outer._vector_spectra(batch.vectors)
        rows = np.flatnonzero(free & batch.independent)
        if rows.size:
            kept.append((batch.take(rows), sd.take(rows)))
        return free & batch.independent

    _first_kept(_outer_duals_spec, 100, keep)  # the first 100 k that pass
    worst = 0.0
    for batch, sd in kept:  # outer_duals_of's body, on the spectra that kept them
        duals = outer._projections(batch, matcore.vectorize_outer(
            outer._dual_vectors(batch.vectors, sd)))
        bio = np.real(matcore.vectorize_outer(batch.vectors).conj() @ duals.swapaxes(-1, -2))
        worst = max(worst, float(np.max(np.abs(bio - np.eye(batch.m)))))
    return [_row("outer-duals", "biorthogonality over 100 configurations", worst,
                 "identity", 1e-9, worst <= 1e-9)]


def check_unprojected_dual():
    stream = Stream(860)
    worst_det = 0.0
    least_residual = np.inf
    for u in stream.uniforms(20):
        alpha = 0.2 + 1.1 * float(u)  # angle away from 0 and pi/2
        phi1 = np.array([1.0, 0.0])
        phi2 = np.array([np.cos(alpha), np.sin(alpha)])
        f = Frame.from_vectors(np.array([phi1, phi2]))
        c = abs(phi1 @ phi2) ** 2
        psi1 = np.array([-np.sin(alpha), np.cos(alpha)])  # unit, orthogonal to phi2
        dual1 = psi1 / (psi1 @ phi1)
        # the bordered Gram as displayed: cross terms from the scaled dual,
        # corner from the unit candidate
        b = np.array([
            [1.0, c, abs(phi1 @ dual1) ** 2],
            [c, 1.0, abs(phi2 @ dual1) ** 2],
            [abs(phi1 @ dual1) ** 2, abs(phi2 @ dual1) ** 2, 1.0],
        ])
        det = float(np.linalg.det(b))
        worst_det = max(worst_det, abs(det - (-(c ** 2))) / c ** 2)
        os_ = outer.induce(f)
        u1 = np.outer(dual1, dual1)
        residual = float(np.linalg.norm(u1 - outer.project_onto_outer_span(os_, u1)))
        least_residual = min(least_residual, residual)
    ok = worst_det <= 1e-9 and least_residual > 1e-6
    return [_row("unprojected-dual", "determinant -|<phi1,phi2>|^4 and span failure",
                 worst_det, "0 (relative)", 1e-9, ok)]


# cross products


def _pair_stacks(specs) -> list:
    """The random frame pairs of the specs (n, m, l, seed of f, seed of g,
    field): per (n, m, l, field), in order of first sight, the (K, m, n) and
    (K, l, n) vectors of ``random_unit`` for its seeds, one block each."""
    groups = _index_groups((n, m, l, field) for n, m, l, _, _, field in specs)
    return [(cons.random_unit_stack(n, m, [specs[i][3] for i in idx], field),
             cons.random_unit_stack(n, l, [specs[i][4] for i in idx], field))
            for (n, m, l, field), idx in groups.items()]


def check_cross_products():
    worst_spec = 0.0
    worst_bounds = 0.0
    specs = []
    for k in range(100):
        n = 2 + k % 2
        specs.append((n, n, min(2 + (k // 2) % 2, n), 9000 + k, 9500 + k,
                      "complex" if k % 2 else "real"))
    for u, w in _pair_stacks(specs):
        (wf, u_free), (wg, w_free) = _gram_eigvalues(u), _gram_eigvalues(w)
        products = np.sort((wf[:, :, None] * wg[:, None, :]).reshape(len(u), -1))[:, ::-1]
        wh = matcore.hermitian_eigvalues(outer.cross_gram(u, w))
        worst_spec = max(worst_spec, float(np.max(np.abs(wh - products))))
        # the Riesz bounds of the pairs with independent vectors multiply
        ends = np.abs(wh[:, [-1, 0]] - wf[:, [-1, 0]] * wg[:, [-1, 0]])[u_free & w_free]
        worst_bounds = max(worst_bounds, float(np.max(ends, initial=0.0)))
    worst_dual = 0.0
    specs = [(2 + k % 2, 2 + k % 2, 2 + k % 2, 9800 + k, 9900 + k,
              "complex" if k % 2 else "real") for k in range(20)]
    for u, w in _pair_stacks(specs):
        n = u.shape[-1]
        (su, u_free), (sw, w_free) = outer._vector_spectra(u), outer._vector_spectra(w)
        bases = u_free & w_free
        if not bases.any():
            continue
        u, w = u[bases], w[bases]
        # cross_duals' body, on the spectra that found the bases
        duals = outer._cross_products(outer._dual_vectors(u, su.take(bases)),
                                      outer._dual_vectors(w, sw.take(bases)))
        duals = duals.reshape(len(u), n * n, -1)
        originals = outer._cross_products(u, w).reshape(len(u), n * n, -1)
        bio = np.abs(duals.conj() @ originals.swapaxes(-1, -2))
        worst_dual = max(worst_dual, float(np.max(np.abs(bio - np.eye(n * n)))))
    return [
        _row("cross-gram-spectrum", "eigenvalue products over 100 pairs", worst_spec,
             "lambda_i * nu_j", 1e-9, worst_spec <= 1e-9),
        _row("cross-gram-spectrum", "Riesz bounds multiply", worst_bounds, "(AC, BD)",
             1e-9, worst_bounds <= 1e-9),
        _row("cross-duals", "biorthogonality of dual bases", worst_dual, "identity",
             1e-9, worst_dual <= 1e-9),
    ]


# PSD bordered extensions


def _psd_case(k):
    """(n, r, cplx) of case k of psd-extension-roundtrip: a rank-r PSD
    matrix of order n, complex for odd k."""
    n = 2 + k % 7
    return n, 1 + k % n, k % 2 == 1


def _psd_matrix(q, lam):
    """Q_r diag(lam) Q_r*, made exactly self-adjoint, from the first
    r = len(lam) columns of q; or one per matrix of a stack q and row of lam."""
    r = lam.shape[-1]
    t = (q[..., :r] * lam[..., None, :]) @ q[..., :r].conj().swapaxes(-1, -2)
    return (t + t.conj().swapaxes(-1, -2)) / 2


def _psd_forward_words(n, r, cplx) -> tuple:
    """Raw words a forward case of ``_psd_case`` (n, r, cplx) draws, by part:
    the orthonormal basis, the r eigenvalues, the border coefficients and
    the kernel leak."""
    return (normal_words(n * n, cplx), r, normal_words(r, cplx),
            normal_words(n - r, cplx) if r < n else 0)


def _psd_rows(t, sd, rows, r) -> geometry.PsdExtension:
    """The stacked extension of the matrices of t at rows, with sd their
    spectra and the first r eigenpairs positive."""
    return geometry.PsdExtension(t=t[rows], spectrum=sd.take(rows), i_plus=tuple(range(r)))


def _psd_forward_failures(stream, count) -> tuple:
    """(forward failures, off-family failures) of forward cases 0 .. count-1,
    drawn in one raw block and decided per (n, field) by stacked calls.

    Every case draws all four parts of its words, whatever its outcome.  A
    case whose t has other than r positive eigenvalues counts one forward
    failure.  A t that fails the PSD rule raises NotPsd, as psd_extension
    does; its one eigh also gives extension_rank_preserved t's rank.  The
    cases of an (n, field), its (n, r, field) groups in order of first
    sight, take one QR, one eigh and one extension_rank_preserved over all
    their probes: v, 1.5 v and, when r < n, the kernel leak.
    ``admissible_vector`` and ``admissible_coefficients``, which need r,
    take one call per (n, r, field), the second over its three probes.
    """
    groups = _index_groups(_psd_case(k) for k in range(count))
    draws = _group_words(stream, count, [(ks, sum(_psd_forward_words(*case)))
                                         for case, ks in groups.items()])
    shapes = {}
    for (n, r, cplx), words in zip(groups, draws):
        parts = np.split(words, np.cumsum(_psd_forward_words(n, r, cplx))[:-1], axis=1)
        shapes.setdefault((n, cplx), []).append((r, parts))
    forward = offfam = 0
    for (n, cplx), subs in shapes.items():
        sizes = [len(parts[0]) for _, parts in subs]
        cuts = np.cumsum(sizes)[:-1]
        g = box_muller(np.concatenate([parts[0] for _, parts in subs]), n * n, cplx)
        q = np.split(_orthonormal(g.reshape(-1, n, n)), cuts)
        t = np.concatenate([_psd_matrix(q_r, 0.5 + 1.5 * word_uniforms(parts[1]))
                            for q_r, (_, parts) in zip(q, subs)])
        sd = matcore.hermitian_eig(t)
        geometry._checked_psd(sd.eigenvalues)
        full = geometry._positive_eigenvalues(sd.eigenvalues, (n, n)).sum(axis=-1) \
            == np.repeat([r for r, _ in subs], sizes)
        forward += int(np.count_nonzero(~full))
        probed, probes, is_v, missing = [], [], [], []
        for (r, (_, _, coef_w, leak_w)), rows in zip(subs, np.split(np.arange(len(t)), cuts)):
            ok = full[rows]
            rows = rows[ok]
            ext = _psd_rows(t, sd, rows, r)
            v = geometry.admissible_vector(ext, unit_rows(coef_w[ok], r, cplx))
            x = [v, 1.5 * v]
            if r < n:
                leak = unit_rows(leak_w[ok], n - r, cplx)[:, :, None]
                x.append(v + (ext.spectrum.eigenvectors[..., r:] @ leak)[..., 0] * 0.5)
            probed.append(np.tile(rows, len(x)))
            probes += x
            back = geometry.admissible_coefficients(_psd_rows(t, sd, probed[-1], r),
                                                    np.concatenate(x))
            # v's coefficients must come back and square-sum to 1
            forward += int(np.count_nonzero(
                ~(np.abs(np.sum(np.abs(back[:len(v)]) ** 2, axis=-1) - 1.0) <= 1e-9)))
            is_v.append(np.arange(len(back)) < len(v))
            missing.append(np.isnan(back[:, 0]))
        # extension_rank_preserved reads t and its eigenvalues, not i_plus
        kept = geometry.extension_rank_preserved(_psd_rows(t, sd, np.concatenate(probed), 0),
                                                 np.concatenate(probes))
        is_v = np.concatenate(is_v)
        # v must keep the rank; an off-family vector must grow it and get no
        # coefficients back
        forward += int(np.count_nonzero(is_v & ~kept))
        offfam += int(np.count_nonzero(~is_v & (kept | ~np.concatenate(missing))))
    return forward, offfam


def _psd_oracle_stacks(stream, count) -> list:
    """The matrices of the exact-rank cases 0 .. count-1: per case a t of
    integer entries and t bordered by a vector of half-integers, from one
    block of uniforms and built per (n, r, field).  One stack per (shape,
    field), in order of first sight over t_0, bordered t_0, t_1, ..., each
    stack's matrices in that order."""
    groups = _index_groups(_psd_case(k) for k in range(count))
    draws = _group_words(stream, count, [(ks, n * r * (1 + cplx) + n)
                                         for (n, r, cplx), ks in groups.items()])
    parts = {}
    for ((n, r, cplx), ks), words in zip(groups.items(), draws):
        ints = np.floor(word_uniforms(words[:, :-n]) * 7.0) - 3.0
        fmat = ints[:, :n * r].reshape(-1, n, r)
        if cplx:
            fmat = fmat + 1j * ints[:, n * r:].reshape(-1, n, r)
        t = fmat @ fmat.conj().swapaxes(-1, -2)
        halves = (np.floor(word_uniforms(words[:, -n:]) * 9.0) - 4.0) / 2.0
        v = halves.astype(complex) * (1 + 1j) if cplx else halves
        pos = 2 * np.array(ks)
        for at, a in ((pos, t), (pos + 1, geometry.bordered(t, v))):
            parts.setdefault((a.shape[-1], cplx), []).append((at, a))
    stacks = []
    for pieces in sorted(parts.values(), key=lambda ps: min(at.min() for at, _ in ps)):
        at = np.concatenate([at for at, _ in pieces])
        stacks.append(np.concatenate([a for _, a in pieces])[np.argsort(at)])
    return stacks


def check_psd_extension_roundtrip():
    stream = Stream(1000)
    forward_fail, offfam_fail = _psd_forward_failures(stream, 1000)
    rows = [
        _row("psd-extension-roundtrip", "forward family preserves rank (1000 cases)",
             forward_fail, "0 failures", None, forward_fail == 0),
        _row("psd-extension-roundtrip", "off-family vectors rejected", offfam_fail,
             "0 failures", None, offfam_fail == 0),
    ]

    oracle_fail = sum(int(np.count_nonzero(rational_rank(a) != matcore.numerical_rank(a)))
                      for a in _psd_oracle_stacks(stream, 200))
    rows.append(_row("psd-extension-roundtrip",
                     "rank agrees with exact-rational elimination (200 cases)",
                     oracle_fail, "0 disagreements", None, oracle_fail == 0))
    return rows


# classifier coherence


def check_classifier_coherence():
    stream = Stream(1100)
    total = 1000
    specs = []
    for k in range(total):
        if k % 4 == 3:
            specs.append((2, 2 + k % 2, 11000 + k, "complex"))
        else:
            n = 2 + k % 2
            d = outer.ambient_outer_dim(n, "real")
            # keep M + 1 within the ambient dimension
            specs.append((n, 2 + k % max(1, d - 2), 11000 + k, "real"))
    groups = _kept_groups(specs, lambda b: b.independent)
    # frames with independent outers, in order: every tenth takes one of its
    # own vectors (an exact dependent extension), the others the stream's
    # next unit vector
    shapes = [(b.vectors.shape[-1], np.iscomplexobj(b.vectors)) for _, b in groups]
    draws = _group_words(stream, total, [(ks[ks % 10 != 0], normal_words(n, cplx))
                                         for (ks, _), (n, cplx) in zip(groups, shapes)])
    disagreements = dependents = 0
    for (ks, batch), (n, cplx), words in zip(groups, shapes, draws):
        cands = batch.vectors[np.arange(len(ks)), ks % batch.m]
        cands[ks % 10 != 0] = unit_rows(words, n, cplx)
        result, disagrees = geometry.classify_frames(geometry.prepare_batch(batch), cands,
                                                     tol=1e-8)
        disagreements += int(disagrees.sum())
        dependents += int((result.dependent & ~disagrees).sum())
    return [_row("classifier-coherence",
                 f"elliptic vs rank verdicts, {total} pairs ({dependents} dependent)",
                 disagreements, "0 disagreements", 1e-8, disagreements == 0)]


# ellipsoid-in-quartic containment


def check_mu2_mu4_probe():
    rows = []
    cases = [
        ("eij(2)", cons.eij_basis(2)),
        ("eij(3)", cons.eij_basis(3)),
        ("random R^3 M=6", cons.random_unit(3, 6, 1203)),
    ]
    for label, f in cases:
        worst = geometry.mu2_subset_mu4_probe(f, samples=200, seed=1212)
        rows.append(_row("mu2-mu4-probe", label, worst, "0", 1e-8, worst <= 1e-8))
    return rows


# perturbation envelopes


def _outer_distance_gap(stream) -> float:
    """The largest outer_distance(phi, psi) - 2||phi - psi||^2 over 1000
    pairs: k = 2j draws a real (phi, psi), k = 2j + 1 a complex one, from one
    block of words, each row holding a real pair and then a complex pair."""
    w_real, w_cplx = 2 * normal_words(3, False), 2 * normal_words(3, True)
    words = stream.raw(500 * (w_real + w_cplx)).reshape(500, w_real + w_cplx)
    real_pairs = unit_rows(words[:, :w_real].reshape(1000, -1), 3, False).reshape(500, 2, 3)
    cplx_pairs = unit_rows(words[:, w_real:].reshape(1000, -1), 3, True).reshape(500, 2, 3)
    worst = -np.inf
    for phi, psi in (real_pairs.swapaxes(0, 1), cplx_pairs.swapaxes(0, 1)):
        gap = (perturb.outer_distance(phi, psi)
               - 2 * matcore.scalar_square(matcore.row_norms(phi - psi)))
        worst = max(worst, float(gap.max()))
    return worst


def _envelope_excess(stream) -> float:
    """How far the Riesz bounds of 200 noisy frames leave the perturbation
    envelope, at most: each frame with independent vectors, in order, draws
    m n normal deviates and then one uniform, the budget's share it moves."""
    specs = []
    for k in range(200):
        n = 2 + k % 3
        specs.append((n, 2 + k % n if n > 2 else 2, 13000 + k, "complex" if k % 2 else "real"))
    groups = [(idx[ok], v[ok], w[ok]) for idx, v in _random_stacks(specs)
              for w, ok in [_gram_eigvalues(v)] if ok.any()]
    draws = _group_words(stream, len(specs), [
        (idx, normal_words(v[0].size, np.iscomplexobj(v)) + 1) for idx, v, _ in groups])
    worst = -np.inf
    for (_, v, w), drawn in zip(groups, draws):
        noise = box_muller(drawn[:, :-1], v[0].size, np.iscomplexobj(v)).reshape(v.shape)
        lower, upper = w[:, -1], w[:, 0]  # the Riesz bounds, as riesz_bounds reads them
        noise *= (np.sqrt(0.8 * lower) / matcore.row_norms(noise.reshape(len(v), -1))
                  * word_uniforms(drawn[:, -1]))[:, None, None]
        eps = matcore.row_norms(noise.reshape(len(v), -1))
        lo, hi = perturb.perturbed_riesz_bounds(lower, upper, matcore.scalar_square(eps))
        w = matcore.hermitian_eigvalues(vector_gram(v + noise))
        worst = max(worst, float(np.max(lo - w[:, -1])), float(np.max(w[:, 0] - hi)))
    return worst


def _radius_fuzz_failures(stream) -> int:
    """How many of 500 frames lose outer independence when moved by less
    than the independence radius: each frame with independent outer
    products, in order, draws m n normal deviates."""
    specs = []
    for k in range(500):
        n, field = 2 + k % 2, "complex" if k % 2 else "real"
        specs.append((n, min(2 + k % 3, outer.ambient_outer_dim(n, field)), 13500 + k, field))
    groups = _kept_groups(specs, lambda b: b.independent)
    draws = _group_words(stream, len(specs), [
        (idx, normal_words(b.vectors[0].size, np.iscomplexobj(b.vectors))) for idx, b in groups])
    failures = 0
    for (_, batch), words in zip(groups, draws):
        v = batch.vectors
        radius = perturb.independence_radius(batch)
        noise = box_muller(words, v[0].size, np.iscomplexobj(v)).reshape(v.shape)
        noise *= (0.9 * np.sqrt(radius)
                  / matcore.row_norms(noise.reshape(len(v), -1)))[:, None, None]
        moved = v + noise
        moved /= np.linalg.norm(moved, axis=-1, keepdims=True)
        inside = np.sum((np.abs(moved - v) ** 2).reshape(len(v), -1), axis=-1) < radius
        if inside.any():
            failures += int(np.count_nonzero(outer._outer_spectra(moved[inside])[2] < batch.m))
    return failures


def check_perturbation_suite():
    stream = Stream(1300)
    worst_gap = _outer_distance_gap(stream)
    worst_env = _envelope_excess(stream)
    failures = _radius_fuzz_failures(stream)
    return [
        _row("outer-distance-bound", "closed form under 2||phi-psi||^2 (1000 pairs)",
             worst_gap, "<= 0", 1e-12, worst_gap <= 1e-12),
        _row("perturbed-bounds-envelope", "measured bounds inside lem1 envelope (200 frames)",
             worst_env, "<= 0", 1e-9, worst_env <= 1e-9),
        _row("independence-radius-fuzz", "500 perturbations inside A/2",
             failures, "0 failures", None, failures == 0),
    ]


# density and repair


def _density_spec(k: int, seed: int) -> tuple:
    """Spec k of the density corpora: every fourth frame complex with N = 2,
    the others real with N = 2 + k % 3, and 2 <= M < the ambient dimension."""
    field = "complex" if k % 4 == 3 else "real"
    n = 2 if field == "complex" else 2 + k % 3
    return n, 2 + k % (outer.ambient_outer_dim(n, field) - 1), seed + k, field


def _random_dependent_stacks(count: int) -> list:
    """The nudge-repair corpus, as ``_random_stacks`` groups (the indices of
    their frames, their (K, m, n) vectors): base frames drawn in blocks, and
    in frame k vector j replaced by vector i times a sign (real) or a phase
    (complex), which repeats i's outer product."""
    stacks = _random_stacks([_density_spec(k, 14000) for k in range(count)])
    for idx, block in stacks:
        m, rows = block.shape[1], np.arange(len(idx))
        i, j = idx % m, (idx + 1 + idx // m) % m
        j = np.where(i == j, (j + 1) % m, j)
        block[rows, j] = (np.exp(1j * 2.0) if np.iscomplexobj(block) else -1.0) * block[rows, i]
    return stacks


def check_nudge_repair():
    batches = [outer.induce_batch(block) for _, block in _random_dependent_stacks(200)]
    # dependent by construction; an independent input is a fault of the
    # corpus and counts as a failure in each row
    repairable = [batch.take(np.flatnonzero(~batch.independent))
                  for batch in batches if not batch.independent.all()]
    rows = []
    for eps in (0.1, 0.01):
        failures = 200 - sum(len(batch.vectors) for batch in repairable)
        for batch in repairable:  # one (shape, field) group each
            nudged = outer.induce_batch(perturb.nudge_batch(batch.vectors, eps))
            moved = perturb.movement(batch.vectors, nudged.vectors)
            failures += int(np.count_nonzero(~nudged.independent | (moved >= eps)))
        rows.append(_row("nudge-repair", f"200 dependent frames, eps={eps}", failures,
                         "0 failures", None, failures == 0))
    specs = [_density_spec(k, 14500) for k in range(1000)]
    dependent = sum(int(np.count_nonzero(outer._outer_spectra(v)[2] < v.shape[1]))
                    for _, v in _random_stacks(specs))
    rows.append(_row("independence-density", "1000 random frames at M <= dim",
                     dependent, "0 dependent", None, dependent == 0))
    return rows


# ---------------------------------------------------------------------------

CHECKS = {
    "pc2-identity": check_pc2_identity,
    "epsilon-example": check_epsilon_example,
    "hadamard-gram": check_hadamard_gram,
    "outer-bound-extremes": check_outer_bound_extremes,
    "equiangular-simplex": check_equiangular_simplex,
    "biangular-table": check_biangular_table,
    "biangular-upper": check_biangular_upper,
    "biangular-degeneracy": check_biangular_degeneracy,
    "eij-ranks": check_eij_ranks,
    "outer-duals": check_outer_duals,
    "unprojected-dual": check_unprojected_dual,
    "cross-products": check_cross_products,
    "psd-extension-roundtrip": check_psd_extension_roundtrip,
    "classifier-coherence": check_classifier_coherence,
    "mu2-mu4-probe": check_mu2_mu4_probe,
    "perturbation-suite": check_perturbation_suite,
    "nudge-repair": check_nudge_repair,
}


def run_checks(only=None):
    """Run the named checks (all by default); returns (rows, elapsed_by_check)."""
    names = list(CHECKS) if only is None else [only]
    if only is not None and only not in CHECKS:
        raise KeyError(f"unknown check {only!r}")
    rows = []
    timings = {}
    for name in names:
        start = time.perf_counter()
        rows.extend(CHECKS[name]())
        timings[name] = time.perf_counter() - start
    return rows, timings


def list_checks():
    return list(CHECKS)


def rows_to_dicts(rows):
    return [r._asdict() for r in rows]
