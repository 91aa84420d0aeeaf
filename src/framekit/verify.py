"""Reproduction suite: every published number and bound this package
implements, checked at fixed tolerances.

Each named check returns rows with the measured value, the expected
value, and the tolerance that gated the comparison.  The CLI ``verify``
subcommand runs them all and exits non-zero on any failure; the pytest
acceptance module drives the same functions.  All randomness comes from
the package's own counter-based generator so every run is identical.

Every Monte Carlo check is stacked.  Its frames are drawn in blocks (one
counter-word mix per (n, m, field) of seeds), its stream draws are one
``raw`` block cut by per-case widths (a case that a filter skips draws
nothing, so the widths are set after the filters), and its filters and
decisions are stacked LAPACK calls per (frame shape, field): every frame,
vector and verdict is bit for bit what case-by-case evaluation gives, so
the rows are the same either way.  The classifier corpus is prepared and
classified one shape group at a time (``geometry.prepare_batch`` and
``classify_frames``), the outer duals come from ``outer.outer_duals_of``
on the kept frames' ``induce_batch`` state, and ``nudge-repair`` nudges each
(shape, field) group of its corpus with one ``perturb.nudge_batch`` call per
budget and judges the nudged frames' ranks and movements stacked.  Each
forward case of ``psd-extension-roundtrip`` draws the same words whatever
its outcome.

Ranks that LAPACK computes are checked against an exact oracle,
``rational_rank``: fraction-free (Bareiss) elimination over Python
integers, with a complex matrix handled through its real embedding
[[A, -B], [B, A]].
"""

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import constructions as cons
from . import geometry, matcore, outer, perturb
from .frame import Frame, riesz_bounds, vector_gram
from .rng import Stream, box_muller, normal_words, unit_rows, unit_vectors, word_uniforms


@dataclass
class CheckRow:
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


def _random_frames(specs) -> list:
    """``random_unit(n, m, seed, field)`` for each spec (n, m, seed, field),
    in order; the seeds of one (n, m, field) are drawn in one block."""
    frames = [None] * len(specs)
    for idx, block in _random_stacks(specs):
        for i, v in zip(idx, block):
            frames[i] = Frame(field=specs[i][3], vectors=v)
    return frames


def _induce_groups(frames) -> list:
    """One ``outer.induce_batch`` per (field, shape) of frames, each with the
    indices of the frames it holds."""
    groups = _index_groups((f.field, f.vectors.shape) for f in frames)
    return [(outer.induce_batch(frames[i] for i in idx), idx) for idx in groups.values()]


def _batches(frames) -> list:
    """Per frame, in order, its (batch, index within the batch)."""
    where = [None] * len(frames)
    for batch, idx in _induce_groups(frames):
        for j, i in enumerate(idx):
            where[i] = (batch, j)
    return where


def _case_words(stream, widths) -> tuple:
    """One raw block for cases that draw widths[i] words each, in order: the
    words, and where the run of each case starts in them."""
    widths = np.asarray(widths, dtype=int)
    return stream.raw(int(widths.sum())), np.cumsum(widths) - widths


def _word_rows(words, starts, width) -> np.ndarray:
    """A (len(starts), width) block whose row i is words[starts[i]:][:width]."""
    return words[np.asarray(starts)[:, None] + np.arange(width)]


def _unit_vector_draws(stream, shapes) -> list:
    """For each (n, cplx) of shapes, in order, what successive
    ``unit_vectors(stream, 1, n, cplx)[0]`` calls give, from one raw block."""
    words, starts = _case_words(stream, [normal_words(n, cplx) for n, cplx in shapes])
    out = [None] * len(shapes)
    for (n, cplx), idx in _index_groups(shapes).items():
        block = unit_rows(_word_rows(words, starts[idx], normal_words(n, cplx)), n, cplx)
        for i, u in zip(idx, block):
            out[i] = u
    return out


def _orthonormal(g):
    """Q of the QR factorization of g (or of each matrix of a stack), its
    columns signed by the diagonal of R."""
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1).real)[..., None, :]


# ---------------------------------------------------------------------------
# exact integer elimination, the independent rank oracle


def _integer_rows(a: np.ndarray) -> list:
    """Rows of a real matrix of finite floats scaled to integers by one
    power of two.

    Every float is p / 2^k exactly (``float.as_integer_ratio``), so
    multiplying by the largest 2^k leaves each entry an integer without a
    float product that could overflow or round.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in a.tolist()]
    shift = max((q.bit_length() for row in ratios for _, q in row), default=1)
    return [[p << (shift - q.bit_length()) for p, q in row] for row in ratios]


def rational_rank(matrix) -> int:
    """Exact rank of a matrix of finite floats, real or complex.

    Fraction-free (Bareiss) elimination over Python integers: after each
    pivot p the rows below are updated as (x p - f y) / p_prev, a division
    that is always exact, so entries stay integers of bounded size.  A
    complex A + iB is handled as the real [[A, -B], [B, A]], whose rank is
    twice that of A + iB.  Entirely independent of the floating-point
    LAPACK path.
    """
    a = np.asarray(matrix)
    cplx = np.iscomplexobj(a)
    if cplx:
        a = np.block([[a.real, -a.imag], [a.imag, a.real]])
    rows = _integer_rows(a.astype(np.float64))
    rank, prev = 0, 1
    while rows and rows[0]:
        piv = next((i for i, r in enumerate(rows) if r[0]), None)
        if piv is None:  # no pivot in this column
            rows = [r[1:] for r in rows]
            continue
        top = rows.pop(piv)
        p, tail = top[0], top[1:]
        rows = [[(x * p - r[0] * y) // prev for x, y in zip(r[1:], tail)] for r in rows]
        prev = p
        rank += 1
    return rank // 2 if cplx else rank


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
    frames = _random_frames(specs)
    # non-unit norms so the diagonal envelope is exercised: every third frame
    # takes its m scales in turn from one block of uniforms
    scaled = range(0, 500, 3)
    ms = [frames[k].m for k in scaled]
    for k, u in zip(scaled, np.split(stream.uniforms(sum(ms)), np.cumsum(ms)[:-1])):
        f = frames[k]
        frames[k] = Frame(field=f.field, vectors=f.vectors * (0.5 + u)[:, None])
    worst_id = 0.0
    worst_env = -np.inf
    for batch, _ in _induce_groups(frames):
        g = vector_gram(batch.vectors)
        dev = np.linalg.norm(batch.gram_op - np.abs(g) ** 2, axis=(-2, -1))
        worst_id = max(worst_id, float(dev.max()))
        w = batch.gram_spectrum.eigenvalues
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
    d = n * (n + 1) // 2
    m = 2 + k % (d - 1) if d > 2 else 2
    return n, m, 4000 + k, "real"


def check_outer_bound_extremes():
    # the first 200 k whose frame has independent outer products, drawn in
    # blocks just large enough to reach 200 if every frame is independent
    cases = []
    k = 0
    while len(cases) < 200:
        ks = range(k, k + 200 - len(cases))
        frames = _random_frames([_bound_extremes_spec(j) for j in ks])
        for f, (batch, i) in zip(frames, _batches(frames)):
            if batch.independent[i]:
                cases.append((f.m, f.n, batch.gram_spectrum.eigenvalues[i]))
        k = ks.stop
    worst_upper = -np.inf
    worst_lower = -np.inf
    for m, n, w in cases:
        worst_upper = max(worst_upper, m / n - w[0])
        if m > n:
            worst_lower = max(worst_lower, w[-1] - m * (n - 1) / (n * (m - 1)))
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
    # the first 100 k whose vectors and outer products are independent, drawn
    # in blocks just large enough to reach 100 if every frame is
    worst = 0.0
    count = k = 0
    while count < 100:
        ks = range(k, k + 100 - count)
        for batch, _ in _induce_groups(_random_frames([_outer_duals_spec(j) for j in ks])):
            m = batch.m
            kept = np.flatnonzero((outer._vector_ranks(batch.vectors) == m) & batch.independent)
            if not len(kept):
                continue
            batch = batch.take(kept)
            duals = outer.outer_duals_of(batch).reshape(len(kept), m, -1)
            bio = np.real(outer._vectorized(batch.vectors).conj() @ duals.swapaxes(-1, -2))
            worst = max(worst, float(np.max(np.abs(bio - np.eye(m)))))
            count += len(kept)
        k = ks.stop
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


def _pair_stacks(specs_f, specs_g) -> list:
    """The random frame pairs of two spec lists, stacked per (shape of f,
    shape of g, field): (K, M, N) and (K, L, N) vectors each, drawn in blocks."""
    u, w = [None] * len(specs_f), [None] * len(specs_g)
    for specs, out in ((specs_f, u), (specs_g, w)):
        for idx, block in _random_stacks(specs):
            for i, v in zip(idx, block):
                out[i] = v
    groups = _index_groups((a.shape, b.shape, a.dtype) for a, b in zip(u, w))
    return [(np.stack([u[i] for i in idx]), np.stack([w[i] for i in idx]))
            for idx in groups.values()]


def check_cross_products():
    worst_spec = 0.0
    worst_bounds = 0.0
    specs_f, specs_g = [], []
    for k in range(100):
        n = 2 + k % 2
        field = "complex" if k % 2 else "real"
        specs_f.append((n, min(2 + k % 2, n), 9000 + k, field))
        specs_g.append((n, min(2 + (k // 2) % 2, n), 9500 + k, field))
    for u, w in _pair_stacks(specs_f, specs_g):
        wf = matcore.hermitian_eigvalues(vector_gram(u))
        wg = matcore.hermitian_eigvalues(vector_gram(w))
        products = np.sort((wf[:, :, None] * wg[:, None, :]).reshape(len(u), -1))[:, ::-1]
        wh = matcore.hermitian_eigvalues(outer.cross_gram(u, w))
        worst_spec = max(worst_spec, float(np.max(np.abs(wh - products))))
        # the Riesz bounds of the pairs with independent vectors: the extreme
        # eigenvalues of each Gram, as riesz_bounds reads them
        riesz = (outer._vector_ranks(u) == u.shape[1]) & (outer._vector_ranks(w) == w.shape[1])
        ends = np.abs(wh[:, [-1, 0]] - wf[:, [-1, 0]] * wg[:, [-1, 0]])[riesz]
        worst_bounds = max(worst_bounds, float(np.max(ends, initial=0.0)))
    worst_dual = 0.0
    specs_f, specs_g = [], []
    for k in range(20):
        n = 2 + k % 2
        field = "complex" if k % 2 else "real"
        specs_f.append((n, n, 9800 + k, field))
        specs_g.append((n, n, 9900 + k, field))
    for u, w in _pair_stacks(specs_f, specs_g):
        n = u.shape[-1]
        bases = (outer._vector_ranks(u) == n) & (outer._vector_ranks(w) == n)
        if not bases.any():
            continue
        u, w = u[bases], w[bases]
        duals = outer.cross_duals(u, w).reshape(len(u), n * n, -1)
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


def _psd_forward_words(k) -> tuple:
    """Raw words forward case k draws, by part: the orthonormal basis, the
    r eigenvalues, the border coefficients and the kernel leak."""
    n, r, cplx = _psd_case(k)
    return (normal_words(n * n, cplx), r, normal_words(r, cplx),
            normal_words(n - r, cplx) if r < n else 0)


def _psd_forward_failures(stream, count) -> tuple:
    """(forward failures, off-family failures) of forward cases 0 .. count-1,
    drawn in one raw block and decided per (n, r, field) by stacked calls.

    Every case draws all four parts of its words, whatever its outcome.  A
    case whose t has other than r positive eigenvalues counts one forward
    failure.  A t that fails a PSD rule raises NotPsd, as psd_extension
    and (once t has its r positive eigenvalues) extension_rank_preserved do.
    """
    parts = np.array([_psd_forward_words(k) for k in range(count)])
    widths = parts.sum(axis=1)
    words, starts = _case_words(stream, widths)
    forward = offfam = 0
    for (n, r, cplx), ks in _index_groups(_psd_case(k) for k in range(count)).items():
        basis_w, lam_w, coef_w, leak_w = np.split(
            _word_rows(words, starts[ks], widths[ks[0]]), np.cumsum(parts[ks[0]])[:-1], axis=1)
        g = box_muller(basis_w, n * n, cplx).reshape(-1, n, n)
        t = _psd_matrix(_orthonormal(g), 0.5 + 1.5 * word_uniforms(lam_w))
        sd = matcore.hermitian_eig(t)
        geometry._checked_psd(sd.eigenvalues)
        full = geometry._positive_eigenvalues(sd.eigenvalues, (n, n)).sum(axis=-1) == r
        geometry._checked_psd(matcore.hermitian_eigvalues(t)[full])
        forward += int(np.count_nonzero(~full))
        t = t[full]
        ext = geometry.PsdExtension(
            t=t, spectrum=matcore.SpectralData(sd.eigenvalues[full], sd.eigenvectors[full]),
            i_plus=tuple(range(r)))
        t_rank = geometry._border_rank(t)

        def rejected(x):  # rank grows and no coefficients come back
            return ((geometry._border_rank(geometry.bordered(t, x)) != t_rank)
                    & np.isnan(geometry.admissible_coefficients(ext, x)[:, 0]))

        v = geometry.admissible_vector(ext, unit_rows(coef_w[full], r, cplx))
        grows = geometry._border_rank(geometry.bordered(t, v)) != t_rank
        back = geometry.admissible_coefficients(ext, v)
        lost = ~(np.abs(np.sum(np.abs(back) ** 2, axis=-1) - 1.0) <= 1e-9)  # NaN rows too
        forward += int(grows.sum() + lost.sum())
        offfam += int((~rejected(1.5 * v)).sum())
        if r < n:
            kernel = ext.spectrum.eigenvectors[..., r:]
            leak = v + (kernel @ unit_rows(leak_w[full], n - r, cplx)[:, :, None])[..., 0] * 0.5
            offfam += int((~rejected(leak)).sum())
    return forward, offfam


def _psd_oracle_cases(stream, count) -> list:
    """The (t, bordered t) pairs of the exact-rank cases, with integer and
    half-integer entries, from one block of uniforms."""
    shapes = [_psd_case(k) for k in range(count)]
    u = stream.uniforms(sum(n * r * (2 if cplx else 1) + n for n, r, cplx in shapes))
    pairs = []
    at = 0
    for n, r, cplx in shapes:
        fmat = (np.floor(u[at:at + n * r] * 7.0) - 3.0).reshape(n, r)
        at += n * r
        if cplx:
            fmat = fmat + 1j * (np.floor(u[at:at + n * r] * 7.0) - 3.0).reshape(n, r)
            at += n * r
        t = fmat @ fmat.conj().T
        halves = (np.floor(u[at:at + n] * 9.0) - 4.0) / 2.0
        at += n
        v = halves.astype(complex) * (1 + 1j) if cplx else halves
        pairs.append((t, geometry.bordered(t, v)))
    return pairs


def _numerical_ranks(mats) -> list:
    """``matcore.numerical_rank`` of each matrix, one stacked SVD per shape
    and dtype."""
    ranks = [None] * len(mats)
    for (shape, _), idx in _index_groups((a.shape, a.dtype) for a in mats).items():
        sigma = matcore.stacked_singular_values(np.stack([mats[i] for i in idx]))
        for i, rank in zip(idx, matcore.rank_from_singular_values(sigma, shape)):
            ranks[i] = int(rank)
    return ranks


def check_psd_extension_roundtrip():
    stream = Stream(1000)
    forward_fail, offfam_fail = _psd_forward_failures(stream, 1000)
    rows = [
        _row("psd-extension-roundtrip", "forward family preserves rank (1000 cases)",
             forward_fail, "0 failures", None, forward_fail == 0),
        _row("psd-extension-roundtrip", "off-family vectors rejected", offfam_fail,
             "0 failures", None, offfam_fail == 0),
    ]

    pairs = _psd_oracle_cases(stream, 200)
    mats = [m for pair in pairs for m in pair]
    oracle_fail = sum(rational_rank(a) != rank for a, rank in zip(mats, _numerical_ranks(mats)))
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
            d = n * (n + 1) // 2
            # keep M + 1 within the ambient dimension
            specs.append((n, 2 + k % max(1, d - 2), 11000 + k, "real"))
    frames = _random_frames(specs)
    groups = [(batch, np.array(idx)[batch.independent], np.flatnonzero(batch.independent))
              for batch, idx in _induce_groups(frames)]
    # frames with independent outers, in order: every tenth takes one of its
    # own vectors (an exact dependent extension), the others the stream's
    # next unit vector
    kept = sorted(k for _, ks, _ in groups for k in ks)
    drawn = [k for k in kept if k % 10]
    candidates = dict(zip(drawn, _unit_vector_draws(
        stream, [(frames[k].n, frames[k].field == "complex") for k in drawn])))
    disagreements = dependents = 0
    for batch, ks, rows in groups:
        if not len(ks):
            continue
        cands = np.array([candidates[k] if k % 10 else frames[k].vectors[k % frames[k].m]
                          for k in ks])
        result, disagrees = geometry.classify_frames(geometry.prepare_batch(batch.take(rows)),
                                                     cands, tol=1e-8)
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
    groups = [(idx[ok], v[ok]) for idx, v in _random_stacks(specs)
              for ok in [outer._vector_ranks(v) == v.shape[1]] if ok.any()]
    widths = np.zeros(len(specs), dtype=int)
    for idx, v in groups:
        widths[idx] = normal_words(v[0].size, np.iscomplexobj(v)) + 1
    words, starts = _case_words(stream, widths)
    worst = -np.inf
    for idx, v in groups:
        drawn = _word_rows(words, starts[idx], widths[idx[0]])
        noise = box_muller(drawn[:, :-1], v[0].size, np.iscomplexobj(v)).reshape(v.shape)
        # the Riesz bounds: the extreme eigenvalues of the Gram, as riesz_bounds reads them
        w = matcore.hermitian_eigvalues(vector_gram(v))
        lower, upper = w[:, -1], w[:, 0]
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
        n = 2 + k % 2
        d = n * n if k % 2 else n * (n + 1) // 2
        specs.append((n, min(2 + k % 3, d), 13500 + k, "complex" if k % 2 else "real"))
    groups = [(np.array(idx)[batch.independent], batch.take(np.flatnonzero(batch.independent)))
              for batch, idx in _induce_groups(_random_frames(specs)) if batch.independent.any()]
    widths = np.zeros(len(specs), dtype=int)
    for idx, batch in groups:
        widths[idx] = normal_words(batch.vectors[0].size, np.iscomplexobj(batch.vectors))
    words, starts = _case_words(stream, widths)
    failures = 0
    for idx, batch in groups:
        v = batch.vectors
        radius = perturb.independence_radius(batch)
        noise = box_muller(_word_rows(words, starts[idx], widths[idx[0]]), v[0].size,
                           np.iscomplexobj(v)).reshape(v.shape)
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


def _random_dependent_frames(count: int) -> list:
    """The nudge-repair corpus: base frames drawn in blocks, and in frame k
    vector j replaced by vector i times a sign (real) or a phase (complex),
    which repeats i's outer product."""
    specs = []
    for k in range(count):
        cplx = k % 4 == 3
        n = 2 if cplx else 2 + k % 3
        d = n * n if cplx else n * (n + 1) // 2
        specs.append((n, max(2, 2 + k % (d - 1)), 14000 + k, "complex" if cplx else "real"))
    frames = []
    for k, f in enumerate(_random_frames(specs)):
        v = f.vectors.copy()
        i = k % f.m
        j = (k + 1 + k // f.m) % f.m
        if i == j:
            j = (j + 1) % f.m
        v[j] = (np.exp(1j * 2.0) if f.field == "complex" else -1.0) * v[i]
        frames.append(Frame(field=f.field, vectors=v))
    return frames


def check_nudge_repair():
    inputs = _random_dependent_frames(200)
    # dependent by construction; an independent input is a fault of the
    # corpus and counts as a failure in each row
    repairable = [batch.take(np.flatnonzero(~batch.independent))
                  for batch, _ in _induce_groups(inputs) if not batch.independent.all()]
    rows = []
    for eps in (0.1, 0.01):
        failures = len(inputs) - sum(len(batch.frames) for batch in repairable)
        for batch in repairable:  # one (shape, field) group each
            nudged = outer.induce_batch(perturb.nudge_batch(batch.frames, eps))
            moved = perturb.movement(batch.vectors, nudged.vectors)
            failures += int(np.count_nonzero(~nudged.independent | (moved >= eps)))
        rows.append(_row("nudge-repair", f"200 dependent frames, eps={eps}", failures,
                         "0 failures", None, failures == 0))
    specs = []
    for k in range(1000):
        cplx = k % 4 == 3
        n = 2 + k % 3 if not cplx else 2
        d = n * n if cplx else n * (n + 1) // 2
        m = 2 + k % (d - 1) if d > 2 else 2
        specs.append((n, m, 14500 + k, "complex" if cplx else "real"))
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
    return [asdict(r) for r in rows]
