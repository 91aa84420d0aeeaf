"""The reproduction suite against independent references.

``verify.rational_rank`` is multi-modular elimination: integers modulo
primes p = 1 (mod 4) below 2^31 whose product exceeds the Hadamard bound,
a complex A + iB taken as A + sB modulo p, where s^2 = -1;
``oracles.rational_rank_exact`` is Gaussian elimination over Fractions
with complex arithmetic.  Two algorithms, so each checks the other; the
tests below also pin the places a modular rank can go wrong (too few
primes, the smallest rank over them instead of the largest, a residue
formed through a rounded product).

The checks whose corpora are drawn in blocks and decided by stacked
LAPACK calls are compared, row for row and bit for bit, with per-case
reference loops kept here (they call framekit, so they cannot live in
``oracles.py``).
"""

import json

import numpy as np
import pytest

from framekit import constructions as cons
from framekit import geometry, matcore, outer, perturb, verify
from framekit.errors import BadParam, NotPsd, ShapeMismatch
from framekit.frame import Frame, field_of, gram, riesz_bounds
from framekit.rng import Stream
from framekit.verify import rational_rank

import scan_reference
from oracles import rational_rank_exact, trace_ip


def _binary_exact(rng, rows, cols, cplx):
    a = rng.integers(-3, 4, (rows, cols)).astype(float)
    if cplx:
        a = a + 1j * rng.integers(-3, 4, (rows, cols))
    return a


@pytest.mark.parametrize("cplx", [False, True])
def test_random_shapes_against_fraction_elimination(cplx):
    rng = np.random.default_rng(401 + cplx)
    for _ in range(300):
        rows, cols = rng.integers(0, 7, 2)
        a = _binary_exact(rng, rows, cols, cplx) / 2.0 ** rng.integers(0, 4)
        assert rational_rank(a) == rational_rank_exact(a)


@pytest.mark.parametrize("cplx", [False, True])
def test_rank_deficient_and_zero_columns(cplx):
    rng = np.random.default_rng(403 + cplx)
    for _ in range(150):
        rows, cols = rng.integers(1, 8, 2)
        inner = int(rng.integers(1, min(rows, cols) + 1))
        a = _binary_exact(rng, rows, inner, cplx) @ _binary_exact(rng, inner, cols, cplx)
        a[:, rng.integers(0, cols)] = 0.0
        want = rational_rank_exact(a)
        assert want <= inner
        assert rational_rank(a) == want


@pytest.mark.parametrize("cplx", [False, True])
def test_extreme_binary_exponents(cplx):
    # entries 2^-1000 and 2^900 in one matrix: one common power of two makes
    # integers of about 1900 bits, which a float product would overflow
    rng = np.random.default_rng(405 + cplx)
    for _ in range(100):
        rows, cols = rng.integers(1, 6, 2)
        a = _binary_exact(rng, rows, cols, cplx)
        a = a * 2.0 ** rng.choice([-1000, -3, 0, 900], size=a.shape)
        assert rational_rank(a) == rational_rank_exact(a)


@pytest.mark.parametrize("cplx", [False, True])
def test_full_mantissas_at_extreme_exponents(cplx):
    # copies of k base rows of 53-bit integers, each scaled by a power of two
    # from 2^-1000 to 2^900: rank k, read only if the residue of every
    # mantissa times 2^d is formed exactly
    rng = np.random.default_rng(411 + cplx)
    for _ in range(20):
        k, cols = rng.integers(1, 4), rng.integers(2, 6)
        base = rng.integers(2**52, 2**53, (2, k, cols)) * rng.choice([-1.0, 1.0], (2, k, cols))
        base = base[0] + 1j * base[1] if cplx else base[0]
        a = base[rng.integers(0, k, 6)] * 2.0 ** rng.choice([-1000, -3, 0, 900], (6, 1))
        assert rational_rank(a) == rational_rank_exact(a)


def test_hand_worked_cases():
    tiny, huge = 2.0 ** -1000, 2.0 ** 900
    assert rational_rank(np.zeros((3, 4))) == 0
    assert rational_rank(np.zeros((0, 3))) == 0
    assert rational_rank(np.zeros((3, 0))) == 0
    assert rational_rank([[huge, tiny], [tiny, 0.0]]) == 2
    assert rational_rank([[huge, huge], [tiny, tiny]]) == 1
    # rank 1 over C (row 2 = i row 1), rank 2 over R if the phases were dropped
    assert rational_rank(np.array([[1.0, 1j], [1j, -1.0]])) == 1
    assert rational_rank(np.array([[1.0, 1j], [1j, 1.0]])) == 2
    assert rational_rank(np.array([[0.5, 0.25, 0.0], [1.0, 0.5, 0.0]])) == 1


@pytest.mark.parametrize("k", range(1, 9))
def test_a_diagonal_of_the_oracles_own_primes(k):
    # every one of the first k primes divides an entry, so each alone reads
    # rank k - 1: the count of primes must exceed k, and the rank is the
    # largest over them
    primes = verify._moduli(k)
    assert rational_rank(np.diag(primes)) == k
    assert rational_rank(np.diag(primes.astype(float)) * 2.0**-40) == k


@pytest.mark.parametrize("k", range(1, 9))
def test_a_complex_diagonal_of_the_oracles_own_primes(k):
    # the complex twin: p_j (1 + 2i) lies in every prime ideal over p_j
    primes = verify._moduli(k)
    assert rational_rank(np.diag(primes) * (1 + 2j)) == k


@pytest.mark.parametrize("k", range(1, 9))
def test_a_diagonal_of_the_oracles_own_square_roots_of_minus_one(k):
    # s_j - i lies in the prime ideal (p_j, i - s_j), where i is s_j, so
    # each of the first k primes alone reads rank k - 1.  The
    # determinant's norm, prod(s_j^2 + 1), is below 2^(60 k): primes counted
    # from H, not from H^2, would be those k and read rank k - 1
    roots = [verify._unit_root(int(p)) for p in verify._moduli(k)]
    assert rational_rank(np.diag([s - 1j for s in roots])) == k


def test_every_prime_of_the_oracle_has_a_square_root_of_minus_one():
    # each count of primes is a prefix of one list, largest first
    primes = verify._moduli(300)
    assert verify._moduli(7).tolist() == primes[:7].tolist()
    for p in map(int, primes):
        s = verify._unit_root(p)
        assert p % 4 == 1 and 0 < s < p / 2 and s * s % p == p - 1


@pytest.mark.parametrize("cplx", [False, True])
def test_a_stack_is_eliminated_at_its_own_size(monkeypatch, cplx):
    # a complex A + iB is eliminated as the residues of A + sB, one block of
    # the stack's own (cols, rows), not as [[A, -B], [B, A]]
    seen = []
    ranks_modulo = verify._ranks_modulo

    def record(r, p):
        seen.append(r.shape)
        return ranks_modulo(r, p)

    monkeypatch.setattr(verify, "_ranks_modulo", record)
    rng = np.random.default_rng(413 + cplx)
    stack = np.stack([_binary_exact(rng, 6, 4, cplx) for _ in range(5)])
    assert rational_rank(stack).tolist() == [rational_rank_exact(a) for a in stack]
    assert len(seen) == 1 and seen[0][:2] == (4, 6)


@pytest.mark.parametrize("cplx", [False, True])
def test_a_stack_gives_the_ranks_of_its_matrices(cplx):
    rng = np.random.default_rng(407 + cplx)
    for _ in range(60):
        lead = tuple(int(k) for k in rng.integers(0, 4, rng.integers(1, 3)))
        count, (rows, cols), inner = int(np.prod(lead)), rng.integers(0, 7, 2), rng.integers(1, 4)
        left = _binary_exact(rng, count * rows, inner, cplx).reshape(lead + (rows, inner))
        stack = left @ _binary_exact(rng, inner, cols, cplx) / 2.0 ** rng.integers(0, 3)
        ranks = rational_rank(stack)
        assert ranks.shape == lead
        one_at_a_time = [rational_rank(a) for a in stack.reshape((count, rows, cols))]
        assert ranks.reshape(count).tolist() == one_at_a_time


@pytest.mark.parametrize("order", [20, 28, 33, 40])
def test_planted_rank_integer_matrices(order):
    # integer Grams of planted rank, as int64 and as floats, against the
    # Fraction elimination: the product of the rows' norms needs several primes
    rng = np.random.default_rng(409 + order)
    for rank in (order // 2, order - 1, order):
        f = rng.integers(-40, 41, (order, rank))
        gram = f @ f.T
        want = rational_rank_exact(gram)
        assert want == rank
        assert rational_rank(gram) == want
        assert rational_rank(gram.astype(float)) == want
    a = rng.integers(-9, 10, (order, 3)) + 1j * rng.integers(-9, 10, (order, 3))
    planted = a @ (rng.integers(-9, 10, (3, order)) + 1j * rng.integers(-9, 10, (3, order)))
    assert rational_rank(planted) == rational_rank_exact(planted) == 3


def test_integer_entries_stay_exact():
    # 2^60 + 1 rounds to 2^60 as a float, which would read rank 1
    assert rational_rank(np.array([[2**60 + 1, 1], [2**60, 1]])) == 2
    assert rational_rank(np.array([[2**62, 2**61], [-2**63, -2**62]])) == 1
    # an object array passes when int64 or float64 holds every entry
    assert rational_rank(np.array([[2**70, 1], [1, 1]], dtype=object)) == 2
    assert rational_rank(np.array([[2**60 + 1, 1], [2**60, 1]], dtype=object)) == 2
    with pytest.raises(BadParam):
        rational_rank(np.array([[2**70 + 1, 1], [2**70, 1]], dtype=object))


def test_the_fraction_oracle_keeps_integer_entries_exact():
    # complex() would round 2^60 + 1 to 2^60 and read rank 1
    for dtype in (np.int64, object):
        a = np.array([[2**60 + 1, 1], [2**60, 1]], dtype=dtype)
        assert rational_rank_exact(a) == rational_rank(a) == 2


@pytest.mark.parametrize("matrix, error", [
    ([[np.nan]], BadParam),
    ([[np.inf, 1.0]], BadParam),
    ([[1.0, complex(0.0, -np.inf)]], BadParam),
    (np.array([[2**64 - 1]], dtype=np.uint64), BadParam),
    ([1.0, 2.0], ShapeMismatch),
    (3.0, ShapeMismatch),
])
def test_bad_input_raises_a_framekit_error(matrix, error):
    with pytest.raises(error):
        rational_rank(matrix)


# ---------------------------------------------------------------------------
# per-case reference loops: each batched check of ``framekit verify`` as it
# was written before its corpus was drawn in blocks and decided by stacked
# LAPACK calls, one frame, one vector and one eigendecomposition at a time


def _random_unit_vector(stream, n, cplx):
    v = stream.complex_normals(n) if cplx else stream.normals(n)
    return v / np.linalg.norm(v)


def reference_pc2_sides(cplx):
    """Per pair, in order, both sides of the identity as the per-pair loop
    forms them."""
    stream = Stream(101 if cplx else 100)
    for _ in range(1000):
        phi = _random_unit_vector(stream, 3, cplx)
        psi = _random_unit_vector(stream, 3, cplx)
        lhs = trace_ip(np.outer(phi, phi.conj()), np.outer(psi, psi.conj()))
        yield (lhs.real if cplx else lhs), abs(np.vdot(psi, phi)) ** 2


def reference_pc2_identity():
    rows = []
    for field, cplx in (("real", False), ("complex", True)):
        worst = 0.0
        for lhs, rhs in reference_pc2_sides(cplx):
            worst = max(worst, abs(lhs - rhs))
        rows.append(verify._row("pc2-identity", field, worst, "0", 1e-12, worst <= 1e-12))
    return rows


@pytest.mark.parametrize("cplx", [False, True])
def test_pc2_sides_equal_the_per_pair_scalars(cplx):
    # the row is a maximum, which a last-bit difference elsewhere leaves
    # unchanged: compare every pair's two sides
    lhs, rhs = verify._pc2_sides(cplx)
    want_lhs, want_rhs = (np.array(side) for side in zip(*reference_pc2_sides(cplx)))
    assert rhs.tobytes() == want_rhs.tobytes()
    assert lhs.tobytes() == want_lhs.tobytes()


def reference_hadamard_gram():
    stream = Stream(300)
    worst_id = 0.0
    worst_env = -np.inf
    for k in range(500):
        cplx = k % 2 == 1
        n = 2 + k % 3
        m = 2 + (k // 2) % 4
        f = cons.random_unit(n, m, 3000 + k, field="complex" if cplx else "real")
        if k % 3 == 0:
            # non-unit norms so the diagonal envelope is exercised
            scales = 0.5 + stream.uniforms(m)
            f = Frame(field=f.field, vectors=f.vectors * scales[:, None])
        g = gram(f)
        os_ = outer.induce(f)
        worst_id = max(worst_id, float(np.linalg.norm(os_.gram_op - np.abs(g) ** 2)))
        w = os_.gram_spectrum.eigenvalues
        gw = matcore.hermitian_eigvalues(g)
        d = np.diag(g).real
        lo = d.min() * gw[-1]
        hi = d.max() * gw[0]
        worst_env = max(worst_env, lo - w[-1], w[0] - hi)
    return [
        verify._row("hadamard-gram", "gram_op equals G o conj(G)", worst_id, "0", 1e-12,
                    worst_id <= 1e-12),
        verify._row("hadamard-gram", "spectrum inside diagonal envelope", worst_env,
                    "<= 0", 1e-9, worst_env <= 1e-9),
    ]


def reference_outer_bound_extremes():
    cases = []
    k = 0
    while len(cases) < 200:
        n = 2 + k % 3
        d = n * (n + 1) // 2
        m = 2 + k % (d - 1) if d > 2 else 2
        f = cons.random_unit(n, m, 4000 + k, field="real")
        k += 1
        os_ = outer.induce(f)
        if os_.rank == m:
            cases.append(os_)
    worst_upper = -np.inf
    worst_lower = -np.inf
    for os_ in cases:
        m, n = os_.m, os_.n
        w = os_.gram_spectrum.eigenvalues
        worst_upper = max(worst_upper, m / n - w[0])
        if m > n:
            worst_lower = max(worst_lower, w[-1] - m * (n - 1) / (n * (m - 1)))
    rows = [
        verify._row("outer-bound-extremes", "upper bound floor M/N", worst_upper, "<= 0",
                    1e-9, worst_upper <= 1e-9),
        verify._row("outer-bound-extremes", "lower bound ceiling (M > N)", worst_lower,
                    "<= 0", 1e-9, worst_lower <= 1e-9),
    ]
    worst_eq = 0.0
    for f in [cons.simplex(n) for n in (2, 3, 4, 5)] + [cons.biangular(n) for n in (2, 4, 5)]:
        os_ = outer.induce(f)
        worst_eq = max(worst_eq, abs(os_.gram_spectrum.eigenvalues[0] - f.m / f.n))
    rows.append(verify._row("outer-bound-extremes", "equality on tight frames", worst_eq,
                            "0", 1e-9, worst_eq <= 1e-9))
    return rows


def reference_outer_duals():
    worst = 0.0
    count = 0
    k = 0
    while count < 100:
        cplx = k % 2 == 1
        n = 2 + k % 2
        m = 2 + k % n if n > 2 else 2
        f = cons.random_unit(n, m, 8000 + k, field="complex" if cplx else "real")
        k += 1
        if matcore.numerical_rank(gram(f)) < m:
            continue
        os_ = outer.induce(f)
        if os_.rank < m:
            continue
        duals = outer.outer_duals(f).reshape(m, -1)
        bio = np.real(outer.vectorized_synthesis(f).conj() @ duals.T)
        worst = max(worst, float(np.max(np.abs(bio - np.eye(m)))))
        count += 1
    return [verify._row("outer-duals", "biorthogonality over 100 configurations", worst,
                        "identity", 1e-9, worst <= 1e-9)]


def reference_unprojected_dual():
    stream = Stream(860)
    worst_det = 0.0
    least_residual = np.inf
    for _ in range(20):
        alpha = 0.2 + 1.1 * float(stream.uniforms(1)[0])  # angle away from 0 and pi/2
        phi1 = np.array([1.0, 0.0])
        phi2 = np.array([np.cos(alpha), np.sin(alpha)])
        f = Frame.from_vectors(np.array([phi1, phi2]))
        c = abs(phi1 @ phi2) ** 2
        psi1 = np.array([-np.sin(alpha), np.cos(alpha)])  # unit, orthogonal to phi2
        dual1 = psi1 / (psi1 @ phi1)
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
    return [verify._row("unprojected-dual", "determinant -|<phi1,phi2>|^4 and span failure",
                        worst_det, "0 (relative)", 1e-9, ok)]


def reference_cross_products():
    worst_spec = 0.0
    worst_bounds = 0.0
    for k in range(100):
        cplx = k % 2 == 1
        n = 2 + k % 2
        mf = 2 + k % 2
        mg = 2 + (k // 2) % 2
        field = "complex" if cplx else "real"
        f = cons.random_unit(n, min(mf, n), 9000 + k, field=field)
        g = cons.random_unit(n, min(mg, n), 9500 + k, field=field)
        h = outer.cross_gram(f, g)
        wf = matcore.hermitian_eigvalues(gram(f))
        wg = matcore.hermitian_eigvalues(gram(g))
        products = np.sort(np.outer(wf, wg).ravel())[::-1]
        wh = matcore.hermitian_eigvalues(h)
        worst_spec = max(worst_spec, float(np.max(np.abs(wh - products))))
        if matcore.numerical_rank(gram(f)) == f.m and matcore.numerical_rank(gram(g)) == g.m:
            fb = riesz_bounds(f)
            gb = riesz_bounds(g)
            worst_bounds = max(worst_bounds,
                               abs(wh[-1] - fb.lower * gb.lower),
                               abs(wh[0] - fb.upper * gb.upper))
    worst_dual = 0.0
    for k in range(20):
        cplx = k % 2 == 1
        n = 2 + k % 2
        field = "complex" if cplx else "real"
        f = cons.random_unit(n, n, 9800 + k, field=field)
        g = cons.random_unit(n, n, 9900 + k, field=field)
        if matcore.numerical_rank(gram(f)) < n or matcore.numerical_rank(gram(g)) < n:
            continue
        duals = outer.cross_duals(f, g).reshape(n * n, -1)
        originals = np.array([np.outer(f.vectors[i], g.vectors[j].conj())
                              for i in range(n) for j in range(n)]).reshape(n * n, -1)
        bio = np.abs(duals.conj() @ originals.T)
        worst_dual = max(worst_dual, float(np.max(np.abs(bio - np.eye(n * n)))))
    return [
        verify._row("cross-gram-spectrum", "eigenvalue products over 100 pairs", worst_spec,
                    "lambda_i * nu_j", 1e-9, worst_spec <= 1e-9),
        verify._row("cross-gram-spectrum", "Riesz bounds multiply", worst_bounds, "(AC, BD)",
                    1e-9, worst_bounds <= 1e-9),
        verify._row("cross-duals", "biorthogonality of dual bases", worst_dual, "identity",
                    1e-9, worst_dual <= 1e-9),
    ]


def reference_classifier_coherence():
    stream = Stream(1100)
    disagreements = 0
    dependents = 0
    total = 1000
    for k in range(total):
        cplx = k % 4 == 3
        if cplx:
            n, m = 2, 2 + k % 2
            field = "complex"
        else:
            n = 2 + k % 2
            d = n * (n + 1) // 2
            m = 2 + k % max(1, d - 2)  # keep M + 1 within the ambient dimension
            field = "real"
        f = cons.random_unit(n, m, 11000 + k, field=field)
        os_ = outer.induce(f)
        if os_.rank < m:
            continue
        if k % 10 == 0:
            candidate = f.vectors[k % m].copy()  # exact dependent extension
        else:
            candidate = _random_unit_vector(stream, n, cplx)
        try:
            report = geometry.classify(f, candidate, tol=1e-8)
        except geometry.InternalInconsistency:
            disagreements += 1
            continue
        if report.verdict == "dependent":
            dependents += 1
    return [verify._row("classifier-coherence",
                        f"elliptic vs rank verdicts, {total} pairs ({dependents} dependent)",
                        disagreements, "0 disagreements", 1e-8, disagreements == 0)]


def _random_orthonormal(stream, n, cplx):
    g = (stream.complex_normals(n * n) if cplx else stream.normals(n * n)).reshape(n, n)
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r).real)


def reference_psd_extension_roundtrip():
    stream = Stream(1000)
    forward_fail = 0
    offfam_fail = 0
    total = 1000
    for k in range(total):
        cplx = k % 2 == 1
        n = 2 + k % 7
        r = 1 + k % n
        q = _random_orthonormal(stream, n, cplx)
        lam = 0.5 + 1.5 * stream.uniforms(r)
        t = (q[:, :r] * lam) @ q[:, :r].conj().T
        t = (t + t.conj().T) / 2
        ext = geometry.psd_extension(t)
        # every case draws its coefficients and its leak, whatever its outcome
        a = _random_unit_vector(stream, r, cplx)
        leak_dir = _random_unit_vector(stream, n - r, cplx) if r < n else None
        if len(ext.i_plus) != r:
            forward_fail += 1
            continue
        v = geometry.admissible_vector(ext, a)
        if not geometry.extension_rank_preserved(ext, v):
            forward_fail += 1
        back = geometry.admissible_coefficients(ext, v)
        if back is None or abs(float(np.sum(np.abs(back) ** 2)) - 1.0) > 1e-9:
            forward_fail += 1
        # off-family: wrong normalization always; kernel leak when rank deficient
        scaled = 1.5 * v
        if geometry.extension_rank_preserved(ext, scaled) or \
                geometry.admissible_coefficients(ext, scaled) is not None:
            offfam_fail += 1
        if r < n:
            kernel = ext.spectrum.eigenvectors[:, r:]
            leak = v + kernel @ leak_dir * 0.5
            if geometry.extension_rank_preserved(ext, leak) or \
                    geometry.admissible_coefficients(ext, leak) is not None:
                offfam_fail += 1
    rows = [
        verify._row("psd-extension-roundtrip", "forward family preserves rank (1000 cases)",
                    forward_fail, "0 failures", None, forward_fail == 0),
        verify._row("psd-extension-roundtrip", "off-family vectors rejected", offfam_fail,
                    "0 failures", None, offfam_fail == 0),
    ]

    oracle_fail = 0
    for k in range(200):
        cplx = k % 2 == 1
        n = 2 + k % 7
        r = 1 + k % n
        ints = np.floor(stream.uniforms(n * r) * 7.0) - 3.0
        fmat = ints.reshape(n, r)
        if cplx:
            ints2 = np.floor(stream.uniforms(n * r) * 7.0) - 3.0
            fmat = fmat + 1j * ints2.reshape(n, r)
        t = fmat @ fmat.conj().T
        halves = (np.floor(stream.uniforms(n) * 9.0) - 4.0) / 2.0
        v = halves.astype(complex) * (1 + 1j) if cplx else halves
        b = geometry.bordered(t, v)
        if rational_rank(t) != matcore.numerical_rank(t):
            oracle_fail += 1
        if rational_rank(b) != matcore.numerical_rank(b):
            oracle_fail += 1
    rows.append(verify._row("psd-extension-roundtrip",
                            "rank agrees with exact-rational elimination (200 cases)",
                            oracle_fail, "0 disagreements", None, oracle_fail == 0))
    return rows


def reference_perturbation_suite():
    stream = Stream(1300)
    worst_gap = -np.inf
    for k in range(1000):
        cplx = k % 2 == 1
        phi = _random_unit_vector(stream, 3, cplx)
        psi = _random_unit_vector(stream, 3, cplx)
        d = perturb.outer_distance(phi, psi)
        worst_gap = max(worst_gap, d - 2 * float(np.linalg.norm(phi - psi)) ** 2)
    rows = [verify._row("outer-distance-bound", "closed form under 2||phi-psi||^2 (1000 pairs)",
                        worst_gap, "<= 0", 1e-12, worst_gap <= 1e-12)]

    worst_env = -np.inf
    for k in range(200):
        cplx = k % 2 == 1
        n = 2 + k % 3
        m = 2 + k % n if n > 2 else 2
        field = "complex" if cplx else "real"
        f = cons.random_unit(n, m, 13000 + k, field=field)
        if matcore.numerical_rank(gram(f)) < m:
            continue
        rb = riesz_bounds(f)
        noise = (stream.complex_normals(m * n) if cplx else stream.normals(m * n)).reshape(m, n)
        budget_sq = 0.8 * rb.lower
        noise *= np.sqrt(budget_sq) / np.linalg.norm(noise) * float(stream.uniforms(1)[0])
        pf = Frame(field=field, vectors=f.vectors + noise)
        eps = float(np.linalg.norm(noise))
        lo, hi = perturb.perturbed_riesz_bounds(rb.lower, rb.upper, eps ** 2)
        w = matcore.hermitian_eigvalues(gram(pf))
        worst_env = max(worst_env, lo - w[-1], w[0] - hi)
    rows.append(verify._row("perturbed-bounds-envelope", "measured bounds inside lem1 envelope "
                            "(200 frames)", worst_env, "<= 0", 1e-9, worst_env <= 1e-9))

    failures = 0
    for k in range(500):
        cplx = k % 2 == 1
        n = 2 + k % 2
        d = n * (n + 1) // 2 if not cplx else n * n
        m = min(2 + k % 3, d)
        field = "complex" if cplx else "real"
        f = cons.random_unit(n, m, 13500 + k, field=field)
        os_ = outer.induce(f)
        if os_.rank < m:
            continue
        radius = perturb.independence_radius(os_)
        noise = (stream.complex_normals(m * n) if cplx else stream.normals(m * n)).reshape(m, n)
        noise *= 0.9 * np.sqrt(radius) / np.linalg.norm(noise)
        moved = f.vectors + noise
        moved /= np.linalg.norm(moved, axis=1, keepdims=True)
        if float(np.sum(np.abs(moved - f.vectors) ** 2)) >= radius:
            continue
        pf = Frame(field=field, vectors=moved)
        if outer.induce(pf).rank < m:
            failures += 1
    rows.append(verify._row("independence-radius-fuzz", "500 perturbations inside A/2",
                            failures, "0 failures", None, failures == 0))
    return rows


def reference_nudge_repair():
    rows = []
    for eps in (0.1, 0.01):
        failures = 0
        for k in range(200):
            f = scan_reference.dependent_frame(k)
            assert outer.induce(f).rank < f.m
            g = scan_reference.nudge_to_independence(f, eps)
            movement = float(sum(np.linalg.norm(g.vectors[i] - f.vectors[i])
                                 for i in range(f.m)))
            if outer.induce(g).rank < g.m or movement >= eps:
                failures += 1
        rows.append(verify._row("nudge-repair", f"200 dependent frames, eps={eps}", failures,
                                "0 failures", None, failures == 0))
    dependent = 0
    for k in range(1000):
        cplx = k % 4 == 3
        n = 2 + k % 3 if not cplx else 2
        d = n * n if cplx else n * (n + 1) // 2
        m = 2 + k % (d - 1) if d > 2 else 2
        f = cons.random_unit(n, m, 14500 + k, field="complex" if cplx else "real")
        if outer.induce(f).rank < m:
            dependent += 1
    rows.append(verify._row("independence-density", "1000 random frames at M <= dim",
                            dependent, "0 dependent", None, dependent == 0))
    return rows


@pytest.mark.parametrize("name, reference", [
    ("pc2-identity", reference_pc2_identity),
    ("hadamard-gram", reference_hadamard_gram),
    ("outer-bound-extremes", reference_outer_bound_extremes),
    ("outer-duals", reference_outer_duals),
    ("unprojected-dual", reference_unprojected_dual),
    ("cross-products", reference_cross_products),
    ("psd-extension-roundtrip", reference_psd_extension_roundtrip),
    ("classifier-coherence", reference_classifier_coherence),
    ("perturbation-suite", reference_perturbation_suite),
    ("nudge-repair", reference_nudge_repair),
])
def test_batched_check_equals_per_case_reference(name, reference):
    batched = verify.rows_to_dicts(verify.CHECKS[name]())
    expected = verify.rows_to_dicts(reference())
    # json keeps every float's full repr, so this is a bit-for-bit comparison
    assert json.dumps(batched) == json.dumps(expected)


def test_perturbation_suite_judges_the_frames_the_reference_loop_does(monkeypatch):
    # the radius fuzz row counts failures, which stay 0 whatever noise a frame
    # draws, so the row cannot show a wrong draw: compare the frames whose
    # outer ranks the two loops decide, the moved ones among them
    seen = []
    spectra = outer._outer_spectra

    def record(v):
        seen.extend(np.asarray(v).reshape((-1,) + np.shape(v)[-2:]))
        return spectra(v)

    monkeypatch.setattr(outer, "_outer_spectra", record)
    reference_perturbation_suite()
    reference, seen[:] = sorted(v.tobytes() for v in seen), []
    verify.check_perturbation_suite()
    assert len(reference) > 500
    assert sorted(v.tobytes() for v in seen) == reference


def test_nudge_repair_nudges_the_frames_the_reference_loop_does(monkeypatch):
    # the rows count failures, which stay 0 whatever frame a wrong nudge
    # returns as long as it is independent and moved little: compare the
    # nudged frames themselves, with the frames and budgets they came from,
    # and the movements the check measures with the reference loop's sums
    seen, moves = [], []
    batch, single, movement = perturb.nudge_batch, scan_reference.nudge_to_independence, \
        perturb.movement

    def record_movement(f, g):
        moved = movement(f, g)
        for a, b, x in zip(f, g, moved):
            summed = float(sum(np.linalg.norm(b[i] - a[i]) for i in range(len(a))))
            moves.append((a.tobytes(), b.tobytes(), x == summed))
        return moved

    def record_batch(vectors, eps):
        nudged = batch(vectors, eps)
        seen.extend((eps, v.tobytes(), field_of(g), g.tobytes()) for v, g in zip(vectors, nudged))
        return nudged

    def record_single(f, eps):
        g = single(f, eps)
        seen.append((eps, f.vectors.tobytes(), g.field, g.vectors.tobytes()))
        return g

    monkeypatch.setattr(perturb, "nudge_batch", record_batch)
    monkeypatch.setattr(perturb, "movement", record_movement)
    monkeypatch.setattr(scan_reference, "nudge_to_independence", record_single)
    reference_nudge_repair()
    reference, seen[:] = sorted(seen), []
    verify.check_nudge_repair()
    assert len(reference) == 400
    assert sorted(seen) == reference
    assert sorted(moves) == sorted((f, g, True) for _, f, _, g in reference)


def test_nudge_repair_corpus_equals_per_case_draws():
    stacked = [(int(k), v.dtype, v.tobytes())
               for idx, block in verify._random_dependent_stacks(200) for k, v in zip(idx, block)]
    single = [scan_reference.dependent_frame(k) for k in range(200)]
    assert sorted(stacked) == [(k, f.vectors.dtype, f.vectors.tobytes())
                               for k, f in enumerate(single)]


def test_nudge_repair_counts_an_independent_input_as_a_failure(monkeypatch):
    dependent_stacks = verify._random_dependent_stacks
    independent = cons.random_unit(4, 7, 99)  # the shape of frame 5, outers independent
    assert outer.induce(independent).independent

    def corpus(count):
        stacks = dependent_stacks(count)
        for idx, block in stacks:
            if 5 in idx:
                block[idx == 5] = independent.vectors
        return stacks

    monkeypatch.setattr(verify, "_random_dependent_stacks", corpus)
    rows = verify.check_nudge_repair()
    nudge = [r for r in rows if r.check == "nudge-repair"]
    assert [(r.measured, r.passed) for r in nudge] == [(1.0, False), (1.0, False)]
    assert rows[-1].check == "independence-density" and rows[-1].passed


def _same_rows(batched, reference):
    return json.dumps(verify.rows_to_dicts(batched)) == json.dumps(verify.rows_to_dicts(reference))


def _recorders(monkeypatch):
    """Record the matrices psd_extension sees and the matrices or stacks
    rational_rank sees, in the reference loops and in verify alike."""
    seen = {"psd": [], "exact": []}
    psd_extension, exact_rank = geometry.psd_extension, verify.rational_rank

    def record_psd(t):
        seen["psd"].append(np.array(t))
        return psd_extension(t)

    def record_exact(a):
        seen["exact"].append(np.array(a))
        return exact_rank(a)

    monkeypatch.setattr(geometry, "psd_extension", record_psd)
    monkeypatch.setattr(verify, "rational_rank", record_exact)
    monkeypatch.setitem(globals(), "rational_rank", record_exact)
    return seen


def _same_matrices(a, b):
    return len(a) == len(b) and all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def _eig_patched_at(monkeypatch, name, target, last):
    """Make matcore's eigensolver `name` report `last` as the smallest
    eigenvalue of the matrix target, wherever it sees it; returns the list
    of matrices (or stacks) it is called with."""
    solve = getattr(matcore, name)
    seen = []

    def patched(a):
        seen.append(np.array(a))
        out = solve(a)
        w = np.array(out if name == "hermitian_eigvalues" else out.eigenvalues)
        if np.shape(a)[-2:] == target.shape:
            hit = np.all(np.asarray(a) == target, axis=(-2, -1))
            w[..., -1] = np.where(hit, last, w[..., -1])
        if name == "hermitian_eigvalues":
            return w
        return matcore.SpectralData(eigenvalues=w, eigenvectors=out.eigenvectors)

    monkeypatch.setattr(matcore, name, patched)
    return seen


def _hits(inputs, target):
    """How often target occurs among recorded matrices and stacks."""
    return sum(int(np.all(a == target, axis=(-2, -1)).sum())
               for a in inputs if a.shape[-2:] == target.shape)


def test_psd_roundtrip_counts_a_short_case_and_moves_no_draw(monkeypatch):
    # make the eigensolver report a zero last eigenvalue for the t of forward
    # case 137 (order 6, rank 6, complex) only: that case counts one forward
    # failure, and since every case draws the same words whatever its
    # outcome, every t and every oracle matrix stays where it was
    seen = _recorders(monkeypatch)
    unpatched = reference_psd_extension_roundtrip()
    assert verify._psd_case(137) == (6, 6, True)
    unpatched_psd, unpatched_oracle = seen["psd"], seen["exact"]
    target = unpatched_psd[137]

    eig_inputs = _eig_patched_at(monkeypatch, "hermitian_eig", target, 0.0)
    seen["psd"], seen["exact"] = [], []
    reference = reference_psd_extension_roundtrip()
    assert _hits(eig_inputs, target) == 1
    assert reference[0].measured == unpatched[0].measured + 1
    assert _same_matrices(seen["psd"], unpatched_psd)
    assert _same_matrices(seen["exact"], unpatched_oracle)

    eig_inputs.clear()
    seen["exact"] = []
    batched = verify.check_psd_extension_roundtrip()
    assert batched[0].measured == unpatched[0].measured + 1
    # one stack per (n, field) in order of first sight, its rows the cases
    # of its (n, r, field) groups in their order of first sight, on exactly
    # the unpatched matrices
    shapes = {}
    for (n, _, cplx), idx in verify._index_groups(map(verify._psd_case, range(1000))).items():
        shapes.setdefault((n, cplx), []).extend(idx)
    expected = [np.stack([unpatched_psd[i] for i in idx]) for idx in shapes.values()]
    assert _same_matrices(eig_inputs, expected)
    # the oracle sees the reference loop's 400 matrices as one stack per
    # (shape, field) in order of first sight, each in case order
    assert len(unpatched_oracle) == 400
    groups = verify._index_groups((a.shape, a.dtype) for a in unpatched_oracle)
    expected = [np.stack([unpatched_oracle[i] for i in idx]) for idx in groups.values()]
    assert _same_matrices(seen["exact"], expected)
    assert _same_rows(batched, reference)


@pytest.mark.parametrize("name", ["hermitian_eig"])
def test_psd_roundtrip_raises_where_the_reference_loop_does(monkeypatch, name):
    # a negative eigenvalue for case 137's t under its one decomposition:
    # the reference loop raises NotPsd from psd_extension, and so does the block
    seen = _recorders(monkeypatch)
    reference_psd_extension_roundtrip()
    target = seen["psd"][137]
    _eig_patched_at(monkeypatch, name, target, -1.0)
    with pytest.raises(NotPsd) as expected:
        reference_psd_extension_roundtrip()
    with pytest.raises(NotPsd) as got:
        verify.check_psd_extension_roundtrip()
    assert str(got.value) == str(expected.value)


def test_psd_roundtrip_counts_a_short_case_whatever_eigvalsh_says(monkeypatch):
    # case 137's t lacks a positive eigenvalue under eigh and would not be
    # PSD under eigvalsh: neither the reference loop nor the block asks
    # eigvalsh about t, so both count one forward failure
    seen = _recorders(monkeypatch)
    reference_psd_extension_roundtrip()
    target = seen["psd"][137]
    _eig_patched_at(monkeypatch, "hermitian_eig", target, 0.0)
    _eig_patched_at(monkeypatch, "hermitian_eigvalues", target, -1.0)
    batched = verify.check_psd_extension_roundtrip()
    assert batched[0].measured == 1
    assert _same_rows(batched, reference_psd_extension_roundtrip())


def test_psd_roundtrip_gives_admissible_coefficients_the_reference_leaks(monkeypatch):
    # every case of the corpus is full and its off-family vectors grow the
    # rank, so the reference loop asks admissible_coefficients about v, 1.5 v
    # and (when r < n) the kernel leak of each case in turn; the block asks
    # about the same vectors, one stack per (n, r, field) group holding its
    # v, then its 1.5 v, then its leaks, the groups of each (n, field) in
    # turn
    asked = []
    admissible = geometry.admissible_coefficients

    def record(ext, x):
        asked.append(np.array(x))
        return admissible(ext, x)

    monkeypatch.setattr(geometry, "admissible_coefficients", record)
    reference_psd_extension_roundtrip()
    reference, asked[:] = list(asked), []
    verify.check_psd_extension_roundtrip()
    shapes = {}
    for (n, r, cplx), idx in verify._index_groups(map(verify._psd_case, range(1000))).items():
        shapes.setdefault((n, cplx), []).append((n, r, idx))
    cases = {}
    stacks = iter(asked)
    for n, r, idx in (group for groups in shapes.values() for group in groups):
        stack = next(stacks)
        assert len(stack) == len(idx) * (3 if r < n else 2)
        kinds = np.split(stack, 3 if r < n else 2)
        for j, k in enumerate(idx):
            cases[k] = [x[j] for x in kinds]
    assert next(stacks, None) is None
    in_case_order = [x for k in range(1000) for x in cases[k]]
    leaks = sum(r < n for n, r, _ in map(verify._psd_case, range(1000)))
    assert len(reference) == 2000 + leaks
    assert _same_matrices(in_case_order, reference)


def test_classifier_coherence_counts_each_disagreement(monkeypatch):
    # shift the elliptic value of every candidate whose first squared
    # analysis coefficient exceeds 0.3 by 1e-9: far beyond the Schur bound,
    # inside the verdict tolerance, so dependent verdicts disagree too; a
    # mix of disagreeing and agreeing candidates, the same ones one at a
    # time and stacked
    exact = geometry._inverse_gram_form
    monkeypatch.setattr(geometry, "_inverse_gram_form",
                        lambda sd, w: exact(sd, w) + np.where(w[..., 0] > 0.3, 1e-9, 0.0))
    batched = verify.check_classifier_coherence()
    reference = reference_classifier_coherence()
    assert 0 < batched[0].measured < 1000
    assert _same_rows(batched, reference)


@pytest.mark.parametrize("seed", [1100, 5, 300])
def test_group_words_equal_successive_draws(seed):
    # three interleaved groups with gaps, one of them empty: each grouped
    # case draws its group's width from the stream in case order, every
    # other case nothing, and the stream ends where the per-case draws do
    groups = [(np.array([0, 3, 4, 9]), 6), (np.array([], dtype=int), 5),
              (np.array([1, 7, 10, 11, 16]), 3), (np.array([2, 8, 14]), 1)]
    one, many = Stream(seed), Stream(seed)
    drawn = verify._group_words(many, 18, groups)
    width = {int(k): w for idx, w in groups for k in idx}
    expected = {k: one.raw(width[k]) for k in range(18) if k in width}
    assert [d.shape for d in drawn] == [(len(idx), w) for idx, w in groups]
    for (idx, _), block in zip(groups, drawn):
        for k, words in zip(idx, block):
            assert words.tobytes() == expected[int(k)].tobytes()
    assert one.raw(3).tobytes() == many.raw(3).tobytes()


def test_first_kept_takes_the_first_passing_frames(monkeypatch):
    # a filter that rejects about two frames in three, so reaching 40 takes
    # several blocks: the groups hold exactly the frames of the first 40
    # passing k, each with the outer state induce gives it alone
    def spec(k):
        return 2 + k % 3, 2 + k % 2, 700 + k, "complex" if k % 4 == 3 else "real"

    def keep(batch):
        return batch.vectors[:, 0, 0].real > 0.5

    calls = []
    kept_groups = verify._kept_groups

    def record(specs, rule):
        calls.append(len(specs))
        return kept_groups(specs, rule)

    expected, k = [], 0
    while len(expected) < 40:
        f = cons.random_unit(*spec(k))
        if keep(outer.induce_batch(f.vectors[None]))[0]:
            expected.append((k, f))
        k += 1
    monkeypatch.setattr(verify, "_kept_groups", record)
    groups = verify._first_kept(spec, 40, keep)
    assert len(calls) > 2 and calls[0] == 40
    got = sorted((int(k), batch, i) for idx, batch in groups for i, k in enumerate(idx))
    assert [k for k, _, _ in got] == [k for k, _ in expected]
    for (_, batch, i), (_, f) in zip(got, expected):
        assert batch.field == f.field
        assert batch.vectors[i].tobytes() == f.vectors.tobytes()
        alone = outer.induce(f)
        assert batch.gram_op[i].tobytes() == alone.gram_op.tobytes()
        assert batch.gram_spectrum.eigenvalues[i].tobytes() == \
            alone.gram_spectrum.eigenvalues.tobytes()
