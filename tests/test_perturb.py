from types import SimpleNamespace

import numpy as np
import pytest

from framekit import constructions as cons
from framekit import frame as frame_mod, geometry, outer, perturb
from framekit.frame import Frame, gram, riesz_bounds, unit_norm
from framekit.errors import (
    BadParam,
    BudgetTooLarge,
    InternalInconsistency,
    NotIndependent,
    NotUnitNorm,
    TooMany,
)

from oracles import eig_desc, random_unit_vec


def test_perturbed_riesz_bounds():
    assert perturb.perturbed_riesz_bounds(1.0, 1.0, 0.0) == (1.0, 1.0)
    lo, hi = perturb.perturbed_riesz_bounds(1.0, 4.0, 0.25)
    assert (lo, hi) == (0.25, 6.25)
    with pytest.raises(BudgetTooLarge):
        perturb.perturbed_riesz_bounds(1.0, 4.0, 1.0)
    with pytest.raises(BadParam):
        perturb.perturbed_riesz_bounds(-1.0, 4.0, 0.1)


def test_perturbed_riesz_bounds_of_arrays_equal_one_entry_at_a_time():
    rng = np.random.default_rng(63)
    a = rng.uniform(0.1, 2.0, 300)
    b = a + rng.uniform(0.0, 2.0, 300)
    eps_sq = a * rng.uniform(0.0, 1.0, 300)
    lo, hi = perturb.perturbed_riesz_bounds(a, b, eps_sq)
    for k in range(300):
        assert (lo[k], hi[k]) == perturb.perturbed_riesz_bounds(float(a[k]), float(b[k]),
                                                                float(eps_sq[k]))
    eps_sq[7] = a[7]
    with pytest.raises(BudgetTooLarge):
        perturb.perturbed_riesz_bounds(a, b, eps_sq)


def test_perturbed_bounds_envelope_fuzz():
    rng = np.random.default_rng(61)
    for _ in range(40):
        v = rng.standard_normal((3, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        f = Frame.from_vectors(v)
        g = gram(f)
        w = eig_desc(g)
        if w[-1] < 0.05:
            continue
        rb = riesz_bounds(f)
        noise = rng.standard_normal((3, 3))
        noise *= np.sqrt(0.5 * rb.lower) / np.linalg.norm(noise)
        lo, hi = perturb.perturbed_riesz_bounds(rb.lower, rb.upper,
                                                float(np.linalg.norm(noise)) ** 2)
        wp = eig_desc(gram(Frame.from_vectors(v + noise)))
        assert wp[-1] >= lo - 1e-9 and wp[0] <= hi + 1e-9


def test_outer_distance():
    e1 = np.array([1.0, 0.0])
    assert perturb.outer_distance(e1, e1) == 0.0
    assert perturb.outer_distance(e1, [0.0, 1.0]) == pytest.approx(2.0)
    mix = np.array([1.0, 1.0]) / np.sqrt(2)
    assert perturb.outer_distance(e1, mix) == pytest.approx(1.0)
    assert 2 * np.linalg.norm(e1 - mix) ** 2 == pytest.approx(2 * (2 - np.sqrt(2)))
    with pytest.raises(NotUnitNorm):
        perturb.outer_distance([2.0, 0.0], e1)


@pytest.mark.parametrize("bad", [[np.nan, 0.0], [np.inf, 0.0], [1.0, np.nan]])
def test_outer_distance_rejects_non_finite_vectors(bad):
    e1 = np.array([1.0, 0.0])
    with pytest.raises(NotUnitNorm):
        perturb.outer_distance(bad, e1)
    with pytest.raises(NotUnitNorm):
        perturb.outer_distance(e1, bad)


@pytest.mark.parametrize("cplx", [False, True])
def test_outer_distance_of_a_stack_equals_one_pair_at_a_time(cplx):
    rng = np.random.default_rng(64 + cplx)
    phi = np.array([random_unit_vec(rng, 3, cplx) for _ in range(500)])
    psi = np.array([random_unit_vec(rng, 3, cplx) for _ in range(500)])
    got = perturb.outer_distance(phi, psi)
    assert got.shape == (500,)
    for k in range(500):
        one = perturb.outer_distance(phi[k], psi[k])
        assert type(one) is float and got[k] == one
    two = perturb.outer_distance(phi.reshape(20, 25, 3), psi.reshape(20, 25, 3))
    assert two.reshape(-1).tobytes() == got.tobytes()


def test_outer_distance_of_a_stack_checks_every_pair():
    rng = np.random.default_rng(66)
    phi = np.array([random_unit_vec(rng, 3, False) for _ in range(40)])
    psi = np.array([random_unit_vec(rng, 3, False) for _ in range(40)])
    for bad in (phi, psi):
        saved = bad[23].copy()
        bad[23] *= 1.001
        with pytest.raises(NotUnitNorm):
            perturb.outer_distance(phi, psi)
        bad[23] = np.nan
        with pytest.raises(NotUnitNorm):
            perturb.outer_distance(phi, psi)
        bad[23] = saved
    perturb.outer_distance(phi, psi)


def test_outer_distance_closed_form_inequality():
    rng = np.random.default_rng(62)
    for cplx in (False, True):
        for _ in range(100):
            phi = random_unit_vec(rng, 3, cplx)
            psi = random_unit_vec(rng, 3, cplx)
            d = perturb.outer_distance(phi, psi)
            direct = np.linalg.norm(np.outer(phi, phi.conj()) - np.outer(psi, psi.conj())) ** 2
            assert abs(d - direct) <= 1e-12
            assert d <= 2 * np.linalg.norm(phi - psi) ** 2 + 1e-12


def test_outer_distance_allows_the_slack_of_the_unit_norm_rule(monkeypatch):
    # at norm 1 - 0.9e-12 the closed form of phi against itself is 7.2e-12
    # over its bound 0; the unit-norm rule accepts phi, so the check must too
    phi = np.array([0.0, 0.6, 0.8]) * (1.0 - 0.9e-12)
    assert 0.0 < perturb.outer_distance(phi, phi) < 8e-12
    # a rule wide enough to admit a larger gap leaves the check firing
    monkeypatch.setattr(frame_mod, "UNIT_NORM_TOL", 1e-6)
    far = np.array([0.0, 0.6, 0.8]) * (1.0 - 1e-7)
    with pytest.raises(InternalInconsistency, match="exceeds the distance bound"):
        perturb.outer_distance(far, far)


def test_independence_radius():
    assert perturb.independence_radius(outer.induce(cons.orthonormal(2))) == pytest.approx(0.5)
    assert perturb.independence_radius(
        outer.induce(cons.epsilon_pair(0.25))) == pytest.approx(0.375)
    with pytest.raises(NotIndependent):
        perturb.independence_radius(outer.induce(cons.biangular(3)))


def test_radius_protects_independence():
    rng = np.random.default_rng(63)
    for trial in range(60):
        f = cons.random_unit(2, 3, 6300 + trial)
        os_ = outer.induce(f)
        if os_.rank < 3:
            continue
        radius = perturb.independence_radius(os_)
        noise = rng.standard_normal((3, 2))
        noise *= 0.9 * np.sqrt(radius) / np.linalg.norm(noise)
        moved = f.vectors + noise
        moved /= np.linalg.norm(moved, axis=1, keepdims=True)
        if np.sum(np.abs(moved - f.vectors) ** 2) >= radius:
            continue
        assert outer.induce(Frame.from_vectors(moved)).rank == 3


def reference_nearby_basis(psi, eps):
    """The one-vector construction as a per-vector loop forms it: a scalar
    phase, one Householder matrix, and one matrix-vector product per
    member of the cached compressed family (the re-checks left out).  The
    family follows psi's dtype."""
    n = psi.shape[0]
    cplx = np.iscomplexobj(psi)
    ratio = perturb._aligned_base(n, cplx)[1]
    delta = 1.0
    while ratio > 0.0 and delta * delta * ratio > eps / 2.0:
        delta /= 2.0
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
    return np.array([unitary @ w for w in perturb._compressed_base(n, cplx, delta)])


class TestNearbyBasis:
    def test_real_example(self):
        out = perturb.nearby_independent_basis(np.array([1.0, 0.0]), 0.5)
        assert len(out) == 3
        for v in out:
            assert np.linalg.norm(v - [1.0, 0.0]) ** 2 < 0.5
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert outer.induce(Frame.from_vectors(np.array(out))).rank == 3

    def test_large_eps_still_valid(self):
        out = perturb.nearby_independent_basis(np.array([0.0, 1.0]), 5.0)
        assert outer.induce(Frame.from_vectors(np.array(out))).rank == 3

    def test_complex_example(self):
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        out = perturb.nearby_independent_basis(psi, 0.3)
        assert len(out) == 4
        for v in out:
            assert np.linalg.norm(v - psi) ** 2 < 0.3
        f = Frame.from_vectors(np.array(out), field="complex")
        assert outer.induce(f).rank == 4

    def test_arbitrary_reference_vectors(self):
        rng = np.random.default_rng(65)
        for trial in range(20):
            cplx = trial % 2 == 1
            psi = random_unit_vec(rng, 3, cplx)
            out = perturb.nearby_independent_basis(psi, 0.2)
            d = 9 if cplx else 6
            assert len(out) == d
            assert all(np.linalg.norm(v - psi) ** 2 < 0.2 for v in out)
            f = Frame.from_vectors(np.array(out), field="complex" if cplx else "real")
            assert outer.induce(f).rank == d

    def test_bad_eps(self):
        with pytest.raises(BadParam):
            perturb.nearby_independent_basis(np.array([1.0, 0.0]), 0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, -0.1])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(BadParam, match="finite and positive"):
            perturb.nearby_independent_basis(np.array([1.0, 0.0, 0.0]), eps)

    def test_non_finite_reference_vector_rejected(self):
        with pytest.raises(NotUnitNorm):
            perturb.nearby_independent_basis(np.array([np.nan, 0.0, 0.0]), 0.1)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_a_stack_gives_each_row_the_per_vector_basis(self, n):
        # complex rows, real-valued rows in a complex array (they take the
        # complex family, as the array's field is complex), rows with a zero
        # first coordinate and e_1 itself, each bit for bit what the
        # per-vector construction gives it
        rng = np.random.default_rng(66 + n)
        rows = [random_unit_vec(rng, n, k % 3 == 0) for k in range(10)]
        rows[4] = np.roll(np.eye(n)[0], n - 1)
        rows[5] = np.exp(0.3j) * np.roll(np.eye(n)[0], n - 1)
        rows[6] = -rows[6]
        rows[7] = np.eye(n)[0]
        real = [rows[1], -rows[2], rows[4], rows[7]]
        for psi in (np.array(rows, dtype=complex), np.array(real, dtype=float)):
            for eps in (0.2, 1e-5):
                bases = perturb.nearby_independent_basis(psi, eps)
                d = n * n if np.iscomplexobj(psi) else n * (n + 1) // 2
                assert bases.shape == (len(psi), d, n)
                for p, basis in zip(psi, bases):
                    want = reference_nearby_basis(p, eps)
                    assert basis.tobytes() == want.tobytes()
                    alone = perturb.nearby_independent_basis(p, eps)
                    assert alone.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cplx", [False, True])
    def test_a_budget_per_row_gives_each_row_its_basis_alone(self, cplx):
        # 0.2 and 1e-5 compress by different deltas, and only the first is
        # large enough for the rank re-check
        n = 3
        ratio = perturb._aligned_base(n, cplx)[1]
        assert perturb._delta(ratio, 0.2) >= 1e-2 > perturb._delta(ratio, 1e-5)
        rng = np.random.default_rng(67)
        psi = np.array([random_unit_vec(rng, n, cplx) for _ in range(7)])
        eps = np.array([0.2, 1e-5, 1e-5, 0.2, 0.2, 1e-5, 0.2])
        bases = perturb.nearby_independent_basis(psi, eps)
        assert bases.shape == (7, n * n if cplx else n * (n + 1) // 2, n)
        for p, e, basis in zip(psi, eps, bases):
            assert basis.tobytes() == perturb.nearby_independent_basis(p, float(e)).tobytes()
            assert basis.tobytes() == reference_nearby_basis(p, e).tobytes()

    @pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf])
    def test_every_budget_per_row_must_be_finite_and_positive(self, bad):
        psi = np.array([[1.0, 0.0], [0.6, 0.8]])
        with pytest.raises(BadParam, match=f"finite and positive, got {bad} at 0$"):
            perturb.nearby_independent_basis(psi, np.array([bad, 0.1]))

    @pytest.mark.parametrize("eps", [[0.1], [0.1] * 3, [[0.1, 0.1]]])
    def test_a_budget_array_has_one_budget_per_row(self, eps):
        psi = np.array([[1.0, 0.0], [0.6, 0.8]])
        with pytest.raises(BadParam, match=r"a \(2,\) array of one budget per frame or row"):
            perturb.nearby_independent_basis(psi, np.array(eps))
        with pytest.raises(BadParam, match=r"a \(1,\) array of one budget per frame or row"):
            perturb.nearby_independent_basis(psi[0], np.array(eps + eps))

    def test_one_dimensional_rows_are_their_own_basis(self):
        psi = np.array([[1.0], [-1.0]])
        assert [b.tolist() for b in perturb.nearby_independent_basis(psi, 0.1)] == \
            [[[1.0]], [[-1.0]]]
        assert [v.tolist() for v in perturb.nearby_independent_basis(np.array([1j]), 0.1)] == \
            [[1j]]

    def test_a_stack_with_one_row_off_the_unit_sphere_is_rejected(self):
        psi = np.array([[1.0, 0.0], [0.6, 0.8], [1.0, 1.0]])
        with pytest.raises(NotUnitNorm):
            perturb.nearby_independent_basis(psi, 0.1)

    @pytest.mark.parametrize("n, cplx", [(2, False), (3, True), (4, False)])
    def test_cached_family_equals_per_member_compression(self, n, cplx):
        # the cache holds the rows a per-call, per-member compression gave
        rotated, _ = perturb._aligned_base(n, cplx)
        for delta in (1.0, 2.0 ** -5, 2.0 ** -12):
            scale = np.full(n, delta)
            scale[0] = 1.0
            expected = [scale * w / np.linalg.norm(scale * w) for w in rotated]
            got = perturb._compressed_base(n, cplx, delta)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]


class TestNudge:
    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, -0.1, 0.0])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(BadParam, match="finite and positive"):
            perturb.nudge_to_independence(cons.biangular(3), eps)

    def test_eps_whose_budget_underflows(self):
        f = cons.biangular(3)
        with pytest.raises(BadParam, match="underflows"):
            perturb.nudge_to_independence(f, 1e-300)
        # nothing to repair, so nothing to spend
        g = cons.eij_basis(2)
        assert perturb.nudge_to_independence(g, 1e-300) is g

    def test_eps_whose_squared_budget_overflows(self):
        # (eps / M)^2 overflows a float from eps ~ 1.3e154 M on; any budget
        # from about 2N on builds the same bases, so the result is eps = 1e100's
        f = cons.random_unit(3, 4, 2)
        assert perturb.nudge_to_independence(f, 1e200) is f
        duplicate = Frame.from_vectors(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        for g in (cons.biangular(3), duplicate):
            want = perturb.nudge_to_independence(g, 1e100)
            for eps in (1e200, np.finfo(np.float64).max):
                got = perturb.nudge_to_independence(g, eps)
                assert got.vectors.tobytes() == want.vectors.tobytes()
                assert outer.induce(got).rank == g.m

    @pytest.mark.parametrize("eps", [1e-6, 1e-9])
    def test_eps_below_what_the_rank_rule_resolves(self, eps):
        # the biangular N = 3 frame repeats outer products, and within
        # (eps / M)^2 = (eps / 6)^2 of an offender no basis member grows the
        # outer span at the rank tolerance: a parameter error, not a fault
        with pytest.raises(BadParam) as exc:
            perturb.nudge_to_independence(cons.biangular(3), eps)
        msg = str(exc.value)
        assert f"eps = {eps} is too small" in msg and "M = 6" in msg
        assert f"(eps / M)^2 = {(eps / 6) ** 2:g}" in msg

    def test_dependent_nearby_basis_is_a_fault(self, monkeypatch):
        # both re-checks run at the one rank rule, which the basis passes:
        # a dependent verdict there is a fault, not a parameter error
        monkeypatch.setattr(perturb, "_outer_rank", lambda v: np.zeros(len(v), dtype=int))
        with pytest.raises(InternalInconsistency,
                           match="^constructed basis has dependent outer products$"):
            perturb.nearby_independent_basis(np.array([1.0, 0.0]), 0.1)
        monkeypatch.setattr(perturb, "induce", lambda family: SimpleNamespace(rank=0))
        perturb._aligned_base.cache_clear()  # a raise leaves nothing cached
        with pytest.raises(InternalInconsistency, match="^aligned E_ij family lost independence$"):
            perturb.nearby_independent_basis(np.array([1.0, 0.0]), 0.1)

    def test_identity_on_independent(self):
        f = cons.eij_basis(2)
        assert perturb.nudge_to_independence(f, 0.1) is f

    def test_repairs_duplicates(self):
        f = Frame.from_vectors(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        g = perturb.nudge_to_independence(f, 0.1)
        assert outer.induce(g).rank == 3
        moved = sum(np.linalg.norm(g.vectors[i] - f.vectors[i]) for i in range(3))
        assert moved < 0.1

    def test_repairs_biangular_3(self):
        f = cons.biangular(3)
        g = perturb.nudge_to_independence(f, 0.1)
        assert outer.induce(g).rank == 6
        moved = sum(np.linalg.norm(g.vectors[i] - f.vectors[i]) for i in range(6))
        assert moved < 0.1

    def test_movement_equals_the_sum_of_vector_distances(self):
        for field in ("real", "complex"):
            v = cons.random_unit(3, 6, 41, field=field).vectors.copy()
            v[5] = -v[0]
            f = Frame(field=field, vectors=v)
            g = perturb.nudge_to_independence(f, 0.1)
            want = float(sum(np.linalg.norm(g.vectors[i] - f.vectors[i]) for i in range(f.m)))
            assert 0.0 < perturb.movement(f, g) == want < 0.1
            assert perturb.movement(f, f) == 0.0

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_movement_of_stacks_equals_one_frame_at_a_time(self, field):
        # each frame's norms are summed left to right, as a loop adds them
        rng = np.random.default_rng(67)
        for m in range(1, 11):
            f = cons.random_unit_stack(3, m, list(range(68, 80)), field)
            g = f + 1e-3 * rng.standard_normal(f.shape)
            moved = perturb.movement(f, g)
            assert moved.shape == (12,)
            for a, b, got in zip(f, g, moved):
                one = perturb.movement(Frame(field=field, vectors=a), Frame(field=field, vectors=b))
                total = 0.0
                for i in range(m):
                    total = total + np.linalg.norm(b[i] - a[i])
                assert got == one == total

    def test_too_many(self):
        v = np.vstack([np.eye(2), np.eye(2)])
        with pytest.raises(TooMany):
            perturb.nudge_to_independence(Frame.from_vectors(v), 0.1)

    def test_requires_unit_norm(self):
        with pytest.raises(NotUnitNorm):
            perturb.nudge_to_independence(
                Frame.from_vectors(np.array([[2.0, 0.0], [0.0, 1.0]])), 0.1)

    def test_budget_and_independence_fuzz(self):
        # dependent inputs across (n, m) grids, both metrics enforced
        cases = 0
        for n in (2, 3, 4):
            d = n * (n + 1) // 2
            for m in range(2, d + 1):
                for rep in range(4):
                    seed = 6600 + 100 * n + 10 * m + rep
                    f = cons.random_unit(n, m, seed)
                    v = f.vectors.copy()
                    v[m - 1] = -v[0]
                    f = Frame.from_vectors(v)
                    assert outer.induce(f).rank < m
                    for eps in (0.1, 0.01):
                        g = perturb.nudge_to_independence(f, eps)
                        assert outer.induce(g).rank == m
                        moved = sum(np.linalg.norm(g.vectors[i] - f.vectors[i])
                                    for i in range(m))
                        assert moved < eps
                    cases += 1
        assert cases >= 50

    @pytest.mark.parametrize("seed", [6900, 6901, 6902])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_real_valued_offender_of_a_complex_frame_repairs(self, n, seed):
        # n(n+1)/2 real unit vectors and a negated copy of one of them, as a
        # complex frame: M <= n^2, so a repair exists, but only outers of the
        # complex family leave the real symmetric span the frame fills
        f = cons.random_unit(n, n * (n + 1) // 2, seed)
        f = Frame(field="complex", vectors=np.vstack([f.vectors, -f.vectors[seed % f.m]]))
        assert outer.induce(f).rank < f.m
        for eps in (0.1, 1e-3):
            g = perturb.nudge_to_independence(f, eps)
            assert g.field == "complex"
            assert outer.induce(g).rank == g.m == f.m
            assert perturb.movement(f, g) < eps


def _unit_norm_verdicts(rows):
    """Whether each unit-norm test of the package accepts the rows:
    frame.unit_norm, the classifier's candidate check, outer_distance and
    nearby_independent_basis."""
    f = cons.random_unit(3, 2, 31)
    other = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])  # exactly unit

    def accepts(call):
        try:
            call()
        except NotUnitNorm:
            return False
        return True

    return [unit_norm(rows),
            accepts(lambda: geometry._check_candidates(rows, f)),
            accepts(lambda: (perturb.outer_distance(rows, other),
                             perturb.outer_distance(other, rows),
                             perturb.outer_distance(rows, rows))),
            accepts(lambda: perturb.nearby_independent_basis(rows, 0.01))]


@pytest.mark.parametrize("norm, accepted", [
    (1.0 + 0.9e-12, True), (1.0 - 0.9e-12, True),
    (1.0 + 1.1e-12, False), (1.0 - 1.1e-12, False), (np.nan, False)])
def test_one_unit_norm_rule(norm, accepted):
    rows = np.array([[0.6, 0.8, 0.0], [0.0, 0.6 * norm, 0.8 * norm]])
    assert _unit_norm_verdicts(rows) == [accepted] * 4
