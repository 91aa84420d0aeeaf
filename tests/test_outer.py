import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framekit import constructions as cons
from framekit import matcore, outer, perturb, verify
from framekit.frame import Frame, gram
from framekit.errors import (
    BadParam,
    DimensionMismatch,
    NotABasis,
    NotIndependent,
    NotUnitNorm,
    ShapeMismatch,
    ZeroVector,
)

from oracles import (
    eig_desc,
    random_self_adjoint,
    random_unit_vec,
    rational_rank_exact,
    trace_ip,
)


def frame_of(*rows):
    return Frame.from_vectors(np.array(rows))


def random_unit_frame(rng, n, m, cplx=False):
    v = rng.standard_normal((m, n))
    if cplx:
        v = v + 1j * rng.standard_normal((m, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return Frame.from_vectors(v)


class TestInduce:
    def test_orthonormal(self):
        f = cons.orthonormal(2)
        os_ = outer.induce(f)
        np.testing.assert_array_equal(os_.outers[0], np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(os_.outers[1], np.diag([0.0, 1.0]))
        np.testing.assert_array_equal(os_.gram_op, np.eye(2))
        assert os_.rank == 2 and outer.ambient_outer_dim(f.n, f.field) == 3

    def test_epsilon_gram(self):
        os_ = outer.induce(cons.epsilon_pair(0.25))
        np.testing.assert_allclose(os_.gram_op, [[1.0, 0.25], [0.25, 1.0]], atol=1e-15)

    def test_simplex_r3(self):
        os_ = outer.induce(cons.simplex(3))
        off = os_.gram_op[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 1 / 9, atol=1e-12)
        assert os_.rank == 4

    def test_outers_match_definition(self):
        rng = np.random.default_rng(31)
        f = random_unit_frame(rng, 3, 4, cplx=True)
        os_ = outer.induce(f)
        for v, o in zip(f.vectors, os_.outers):
            assert np.max(np.abs(o - np.outer(v, v.conj()))) <= 1e-12
        np.testing.assert_allclose(os_.gram_op, np.abs(gram(f)) ** 2, atol=1e-12)


class TestIndependence:
    def test_mixed_basis_true(self):
        f = frame_of([1.0, 0.0], [0.0, 1.0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
        os_ = outer.induce(f)
        assert rational_rank_exact(2 * outer.vectorized_synthesis(f)) == 3
        assert outer.is_independent(os_)

    def test_repeat_false(self):
        assert not outer.is_independent(outer.induce(frame_of([1.0, 0.0], [1.0, 0.0])))

    def test_biangular_3_false(self):
        assert not outer.is_independent(outer.induce(cons.biangular(3)))

    def test_gram_rank_equals_vectorized_rank(self):
        rng = np.random.default_rng(32)
        for cplx in (False, True):
            for trial in range(20):
                f = random_unit_frame(rng, 2, 3, cplx)
                if trial % 4 == 0:
                    v = f.vectors.copy()
                    v[2] = v[0] * (1j if cplx else -1.0)
                    f = Frame(field=f.field, vectors=v)
                os_ = outer.induce(f)
                vec_rank = matcore.numerical_rank(outer.vectorized_synthesis(f))
                assert vec_rank == os_.rank  # two formula paths agree
                outer.is_independent(os_)    # and the assertion inside holds


    def test_near_parallel_pair_both_paths_rank_one(self):
        # cos(1e-8) rounds to 1, so gram_op is all ones; the vectorized
        # synthesis keeps sigma_min ~ 1e-8, whose square is below the rule
        os_ = outer.induce(frame_of([1.0, 0.0], [np.cos(1e-8), np.sin(1e-8)]))
        assert os_.rank == 1
        assert outer.is_independent(os_) is False

    def test_underflowing_vector_both_paths_rank_zero(self):
        # |1e-160|^4 underflows to 0 in gram_op; sigma = 1e-320 squares to 0
        os_ = outer.induce(frame_of([1e-160]))
        assert os_.rank == 0
        assert outer.is_independent(os_) is False

    @pytest.mark.parametrize("s", [2, 3, 6])
    def test_graded_norms_judged_alike_by_both_paths(self, s):
        base = cons.random_unit(3, 5, 78).vectors
        f = Frame.from_vectors(base * (10.0 ** np.linspace(-s, s, 5))[:, None])
        os_ = outer.induce(f)
        assert os_.rank < 5
        assert outer.is_independent(os_) is False


def _stack(frames):
    return np.stack([f.vectors for f in frames])


class TestInduceBatch:
    @staticmethod
    def _frames(rng, n, m, cplx):
        frames = [random_unit_frame(rng, n, m, cplx) for _ in range(25)]
        v = frames[3].vectors.copy()
        v[-1] = v[0] * (1j if cplx else -1.0)  # same outer product
        frames[3] = Frame(field=frames[3].field, vectors=v)
        return frames

    @pytest.mark.parametrize("cplx", [False, True])
    def test_batch_equals_induce_bit_for_bit(self, cplx):
        rng = np.random.default_rng(33 + cplx)
        for n, m in [(1, 1), (2, 2), (2, 3), (3, 4), (3, 6), (4, 9), (5, 3)]:
            frames = self._frames(rng, n, m, cplx)
            batch = outer.induce_batch(_stack(frames))
            assert batch.vectors.shape == (25, m, n)
            for i, f in enumerate(frames):
                one = outer.induce(f)
                assert batch.gram_op[i].tobytes() == one.gram_op.tobytes()
                spectrum = batch.gram_spectrum
                assert spectrum.eigenvalues[i].tobytes() == one.gram_spectrum.eigenvalues.tobytes()
                assert spectrum.eigenvectors[i].tobytes() == \
                    one.gram_spectrum.eigenvectors.tobytes()
                assert batch.rank[i] == one.rank and type(one.rank) is int
                assert bool(batch.independent[i]) == (one.rank == m)
                assert one.independent == (one.rank == m) and one.m == m
                assert (batch.n, batch.field) == (one.n, one.field) == (n, f.field)
                assert batch.vectors[i].tobytes() == one.vectors.tobytes()
                assert batch.outers[i].tobytes() == one.outers.tobytes()
            if m > 1:
                assert not batch.independent[3]

    def test_independence_radius_from_a_batch_sequence(self):
        frames = self._frames(np.random.default_rng(36), 2, 3, False)
        batch = outer.induce_batch(_stack(frames))
        rows = [0, 1, 2]
        radii = perturb.independence_radius(batch.take(rows))
        assert radii.tolist() == [perturb.independence_radius(outer.induce(frames[i]))
                                  for i in rows]

    def test_mixed_or_empty_input_rejected(self):
        with pytest.raises(ShapeMismatch, match="non-empty 3-d"):
            outer.induce_batch(np.zeros((0, 2, 2)))


_STACK_FUNCTIONS = [outer.induce_batch, lambda v: perturb.nudge_batch(v, 0.1),
                    lambda v: perturb.nudge_batch(v, np.full(len(v), 0.1))]
_STACK_IDS = ["induce_batch", "nudge_batch", "nudge_batch_per_frame"]


@pytest.mark.parametrize("stacked", _STACK_FUNCTIONS, ids=_STACK_IDS)
@pytest.mark.parametrize("vectors, error, match", [
    ([[[1.0, np.nan], [0.0, 1.0]]], BadParam, "non-finite"),
    ([[[1.0, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]], BadParam, "non-finite"),
    ([[[1e100, 0.0], [0.0, 1.0]]], BadParam, "too large"),
    ([[1.0, 0.0], [0.0, 1.0]], ShapeMismatch, "non-empty 3-d"),
    (np.ones((1, 1, 2, 2)), ShapeMismatch, "non-empty 3-d"),
    (np.zeros((0, 2, 2)), ShapeMismatch, "non-empty 3-d"),
    (np.zeros((1, 0, 2)), ShapeMismatch, "non-empty 3-d")])
def test_stack_input_raises_the_errors_of_frame(stacked, vectors, error, match):
    with pytest.raises(error, match=match) as exc:
        stacked(np.array(vectors))
    if error is BadParam:  # the message Frame gives for the offending frame
        bad = next(v for v in np.array(vectors) if not np.all(np.abs(v) < 1e100))
        with pytest.raises(error) as one:
            Frame.from_vectors(bad)
        assert str(exc.value) == str(one.value)


def test_the_overflow_guard_is_per_frame():
    # each 1 x 1 frame's |phi|^8 = 1e304 is finite, the stack's total^4 is not
    v = np.full((100, 1, 1), 1e38)
    outer.induce(Frame.from_vectors(v[0]))
    assert outer.induce_batch(v).rank.tolist() == [1] * 100


@pytest.mark.parametrize("stacked", _STACK_FUNCTIONS, ids=_STACK_IDS)
@pytest.mark.parametrize("cplx", [False, True])
def test_stack_input_is_neither_written_nor_frozen(stacked, cplx):
    field = "complex" if cplx else "real"
    v = np.stack([cons.random_unit(2, 3, 40 + k, field).vectors for k in range(3)])
    v[1, 2] = -v[1, 0]  # a dependent frame, which the nudge moves
    before = v.tobytes()
    out = stacked(v)
    out = getattr(out, "vectors", out)
    assert v.flags.writeable and v.tobytes() == before
    assert not np.shares_memory(out, v)
    v[0, 0] = 0.0  # still the caller's to write


class TestOuterRieszBounds:
    def test_epsilon(self):
        b = outer.outer_riesz_bounds(outer.induce(cons.epsilon_pair(0.25)))
        assert abs(b.lower - 0.75) < 1e-10 and abs(b.upper - 1.25) < 1e-10

    def test_orthonormal_tight(self):
        b = outer.outer_riesz_bounds(outer.induce(cons.orthonormal(3)))
        assert (b.lower, b.upper) == (1.0, 1.0)

    def test_simplex_equiangular_formula(self):
        # c = (M - N)/(N(M - 1)) with M = 5, N = 4
        b = outer.outer_riesz_bounds(outer.induce(cons.simplex(4)))
        assert abs(b.lower - 0.9375) < 1e-10 and abs(b.upper - 1.25) < 1e-10

    def test_rejects_dependent(self):
        with pytest.raises(NotIndependent):
            outer.outer_riesz_bounds(outer.induce(frame_of([1.0, 0.0], [1.0, 0.0])))

    def test_outer_bounds_within_vector_bounds(self):
        # unit-norm Riesz vectors give outer products with the same or
        # better bounds
        rng = np.random.default_rng(33)
        for cplx in (False, True):
            for _ in range(15):
                f = random_unit_frame(rng, 3, 3, cplx)
                g = gram(f)
                if matcore.numerical_rank(g) < 3:
                    continue
                wv = eig_desc(g)
                wo = eig_desc(outer.induce(f).gram_op)
                assert wo[-1] >= wv[-1] - 1e-9
                assert wo[0] <= wv[0] + 1e-9


class TestDependenceCertificate:
    def test_doubled_vector(self):
        cert = outer.dependence_certificate(outer.induce(frame_of([1.0, 0.0], [1.0, 0.0])))
        np.testing.assert_allclose(np.abs(cert.coefficients), [1, 1] / np.sqrt(2), atol=1e-12)
        assert cert.residual <= 1e-12

    def test_independent_returns_none(self):
        assert outer.dependence_certificate(outer.induce(cons.orthonormal(2))) is None

    def test_biangular_3_support(self):
        os_ = outer.induce(cons.biangular(3))
        cert = outer.dependence_certificate(os_)
        support = tuple(np.flatnonzero(np.abs(cert.coefficients) > 1e-8))
        pairs = cons.simplex_pairs(3)
        assert support == (pairs.index((0, 3)), pairs.index((1, 2)))
        assert cert.residual <= 1e-8

    def test_minimal_support_with_two_dimensional_null_space(self):
        base = cons.random_unit(3, 4, 5).vectors
        f = Frame.from_vectors(np.vstack([base, -base[0], -base[1]]))
        os_ = outer.induce(f)
        assert os_.m - os_.rank == 2
        cert = outer.dependence_certificate(os_)
        assert tuple(np.flatnonzero(np.abs(cert.coefficients) > 1e-8)) == (0, 4)
        assert cert.residual <= 1e-12

    def test_split_frame_operators_agree(self):
        rng = np.random.default_rng(34)
        for trial in range(10):
            f = random_unit_frame(rng, 2, 3)
            v = f.vectors.copy()
            v[2] = -v[0]
            os_ = outer.induce(Frame(field="real", vectors=v))
            cert = outer.dependence_certificate(os_)
            assert abs(np.linalg.norm(cert.coefficients) - 1.0) <= 1e-12
            s_pos, s_neg = outer.split_frame_operators(os_, cert)
            assert np.linalg.norm(s_pos - s_neg) <= 1e-8


class TestSparsity:
    def test_eij_true(self):
        for n in (2, 3, 4):
            assert outer.sparsity_check(cons.eij_basis(n))

    def test_orthonormal_true(self):
        assert outer.sparsity_check(cons.orthonormal(3))

    def test_simplex_false_but_independent(self):
        s = cons.simplex(2)
        assert not outer.sparsity_check(s)  # 3 vectors share coordinates in R^2
        assert outer.is_independent(outer.induce(s))  # false decides nothing

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            outer.sparsity_check(frame_of([0.0, 0.0], [1.0, 0.0]))

    def test_tiny_entries_are_in_the_support(self):
        # M = 4 > 3 = N(N+1)/2: the outers are dependent, and every
        # coordinate is shared by all four vectors
        v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1e-13], [1e-13, 1.0]])
        f = Frame.from_vectors(v / np.linalg.norm(v, axis=1, keepdims=True))
        assert outer.induce(f).rank == 2
        assert not outer.sparsity_check(f)

    def test_a_tiny_vector_is_not_zero(self):
        f = Frame.from_vectors(1e-13 * np.eye(3))
        assert outer.induce(f).rank == 3
        assert outer.sparsity_check(f)

    def test_true_implies_exact_independence(self):
        # entries 0, +-1 and +-2^-44 make every outer product exact, so the
        # exact-rational rank is ground truth for each True verdict
        rng = np.random.default_rng(0)
        values = np.array([0.0, 1.0, -1.0, 2.0 ** -44, -(2.0 ** -44)])
        verdicts = 0
        for _ in range(3000):
            n = int(rng.choice([2, 3]))
            m = int(rng.integers(1, n * (n + 1) // 2 + 2))
            v = values[rng.integers(0, len(values), size=(m, n))]
            if not v.any(axis=1).all():
                continue
            if outer.sparsity_check(Frame.from_vectors(v)):
                verdicts += 1
                assert verify.rational_rank(matcore.vectorize_outer(v)) == m, v
        assert verdicts > 500

    def test_sufficiency(self):
        rng = np.random.default_rng(35)
        for _ in range(25):
            mask = rng.integers(0, 2, size=(3, 3)).astype(float)
            v = rng.standard_normal((3, 3)) * mask
            norms = np.linalg.norm(v, axis=1)
            if np.any(norms < 1e-9):
                continue
            f = Frame.from_vectors(v / norms[:, None])
            if outer.sparsity_check(f):
                assert outer.is_independent(outer.induce(f))


class TestOptimalBounds:
    def test_untf_achieves_floor(self):
        rep = outer.optimal_bound_report(outer.induce(cons.simplex(2)))
        assert abs(rep.achieved_upper - rep.upper_bound_floor) < 1e-9

    def test_simplex_achieves_ceiling(self):
        rep = outer.optimal_bound_report(outer.induce(cons.simplex(4)))
        assert abs(rep.achieved_lower - rep.lower_bound_ceiling) < 1e-9

    def test_non_tight_exceeds_floor(self):
        f = frame_of([1.0, 0.0], [0.0, 1.0], [1.0, 0.0])
        rep = outer.optimal_bound_report(outer.induce(f))
        assert rep.achieved_upper == pytest.approx(2.0)
        assert rep.upper_bound_floor == pytest.approx(1.5)
        assert eig_desc(outer.induce(f).gram_op)[0] == pytest.approx(2.0)

    def test_no_ceiling_when_m_le_n(self):
        rep = outer.optimal_bound_report(outer.induce(cons.orthonormal(3)))
        assert rep.lower_bound_ceiling is None

    def test_requires_unit_norm(self):
        with pytest.raises(NotUnitNorm):
            outer.optimal_bound_report(outer.induce(frame_of([2.0, 0.0], [0.0, 1.0])))


class TestOuterDuals:
    def test_orthonormal_self_dual(self):
        f = cons.orthonormal(2)
        duals = outer.outer_duals(f)
        for d, o in zip(duals, outer.induce(f).outers):
            np.testing.assert_allclose(d, o, atol=1e-12)

    def test_biorthogonality_2d(self):
        f = frame_of([1.0, 0.0], [np.cos(0.7), np.sin(0.7)])
        duals = outer.outer_duals(f)
        os_ = outer.induce(f)
        bio = np.array([[trace_ip(os_.outers[i], duals[j])
                         for j in range(2)] for i in range(2)])
        np.testing.assert_allclose(bio, np.eye(2), atol=1e-9)

    def test_unprojected_dual_fails_membership(self):
        # scaled biorthogonal vector of a non-orthogonal pair: its outer
        # product leaves the span, and the bordered Gram the construction
        # pretends to have carries a negative determinant
        alpha = 0.7
        phi1 = np.array([1.0, 0.0])
        phi2 = np.array([np.cos(alpha), np.sin(alpha)])
        psi1 = np.array([-np.sin(alpha), np.cos(alpha)])
        dual1 = psi1 / (psi1 @ phi1)
        c = abs(phi1 @ phi2) ** 2
        b = np.array([
            [1.0, c, abs(phi1 @ dual1) ** 2],
            [c, 1.0, abs(phi2 @ dual1) ** 2],
            [abs(phi1 @ dual1) ** 2, abs(phi2 @ dual1) ** 2, 1.0],
        ])
        assert abs(np.linalg.det(b) - (-c * c)) <= 1e-9 * c * c
        os_ = outer.induce(frame_of(phi1, phi2))
        u1 = np.outer(dual1, dual1)
        residual = np.linalg.norm(u1 - outer.project_onto_outer_span(os_, u1))
        assert residual > 1e-3

    def test_rejects_dependent_vectors(self):
        with pytest.raises(NotIndependent):
            outer.outer_duals(frame_of([1.0, 0.0], [1.0, 0.0]))

    @pytest.mark.parametrize("cplx", [False, True])
    def test_stacked_duals_equal_one_frame_at_a_time(self, cplx):
        field = "complex" if cplx else "real"
        for n, m in ((2, 2), (3, 2), (3, 3)):
            frames = [cons.random_unit(n, m, 600 + k, field) for k in range(8)]
            duals = outer.outer_duals_of(outer.induce_batch(_stack(frames)))
            assert duals.shape == (8, m, n, n)
            for k, f in enumerate(frames):
                assert duals[k].tobytes() == outer.outer_duals(f).tobytes()

    def test_stacked_duals_reject_one_dependent_frame(self):
        frames = [cons.random_unit(2, 2, 600 + k) for k in range(4)]
        frames[2] = frame_of([1.0, 0.0], [-1.0, 0.0])
        with pytest.raises(NotIndependent, match="vectors themselves"):
            outer.outer_duals_of(outer.induce_batch(_stack(frames)))


class TestCrossProducts:
    def test_orthonormal_cross_identity(self):
        h = outer.cross_gram(cons.orthonormal(2), cons.orthonormal(2))
        np.testing.assert_array_equal(h, np.eye(4))

    def test_bounds_multiply(self):
        f = cons.epsilon_pair(0.25)
        h = outer.cross_gram(f, f)
        w = eig_desc(h)
        assert abs(w[-1] - 0.25) < 1e-10 and abs(w[0] - 2.25) < 1e-10

    def test_matches_kron_of_grams(self):
        rng = np.random.default_rng(36)
        f = random_unit_frame(rng, 2, 3, cplx=True)
        g = random_unit_frame(rng, 2, 2, cplx=True)
        h = outer.cross_gram(f, g)
        np.testing.assert_array_equal(h, np.kron(gram(f), gram(g).T))
        # entry oracle: <phi_i psi_j*, phi_k psi_l*> at (i*L+j, k*L+l)
        i, j, k, l = 2, 1, 0, 0
        big = np.outer(f.vectors[i], g.vectors[j].conj())
        small = np.outer(f.vectors[k], g.vectors[l].conj())
        want = trace_ip(small, big)
        got = h[i * 2 + j, k * 2 + l]
        assert abs(got - np.conj(want)) < 1e-12 or abs(got - want) < 1e-12

    def test_field_mismatch(self):
        with pytest.raises(DimensionMismatch):
            outer.cross_gram(cons.orthonormal(2), cons.orthonormal(3))

    def test_cross_duals_biorthogonal(self):
        rng = np.random.default_rng(37)
        for cplx in (False, True):
            f = random_unit_frame(rng, 2, 2, cplx)
            g = random_unit_frame(rng, 2, 2, cplx)
            duals = outer.cross_duals(f, g)
            originals = [np.outer(f.vectors[i], g.vectors[j].conj())
                         for i in range(2) for j in range(2)]
            bio = np.array([[abs(trace_ip(d, o)) for o in originals]
                            for d in duals])
            np.testing.assert_allclose(bio, np.eye(4), atol=1e-9)

    def test_cross_duals_of_equal_bases_need_no_projection(self):
        rng = np.random.default_rng(38)
        f = random_unit_frame(rng, 2, 2)
        duals = outer.cross_duals(f, f)
        tilde = np.linalg.solve(gram(f).T, f.vectors)
        for idx, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            np.testing.assert_allclose(duals[idx], np.outer(tilde[i], tilde[j].conj()),
                                       atol=1e-10)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_cross_duals_equal_the_per_pair_outer_products(self, cplx):
        rng = np.random.default_rng(41 + cplx)
        for n in (2, 3):
            f = random_unit_frame(rng, n, n, cplx)
            g = random_unit_frame(rng, n, n, cplx)
            fd = f.vectors.T @ matcore.spectral_inverse(matcore.hermitian_eig(gram(f)))
            gd = g.vectors.T @ matcore.spectral_inverse(matcore.hermitian_eig(gram(g)))
            want = np.array([np.outer(fd[:, i], gd[:, j].conj())
                             for i in range(n) for j in range(n)])
            assert outer.cross_duals(f, g).tobytes() == want.tobytes()

    def test_stacked_cross_products_have_the_cross_gram_order(self):
        rng = np.random.default_rng(43)
        f = random_unit_frame(rng, 3, 2, cplx=True)
        g = random_unit_frame(rng, 3, 4, cplx=True)
        o = outer._cross_products(f.vectors, g.vectors)
        assert o.shape == (8, 3, 3)
        assert o[1 * 4 + 2].tobytes() == np.outer(f.vectors[1], g.vectors[2].conj()).tobytes()
        o = o.reshape(8, -1)
        np.testing.assert_allclose(outer.cross_gram(f, g), o.conj() @ o.T, atol=1e-12)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_stacked_cross_gram_and_duals_equal_one_pair_at_a_time(self, cplx):
        field = "complex" if cplx else "real"
        for n in (2, 3):
            fs = [cons.random_unit(n, n, 700 + k, field) for k in range(6)]
            gs = [cons.random_unit(n, n - 1, 800 + k, field) for k in range(6)]
            u = np.array([f.vectors for f in fs])
            w = np.array([g.vectors for g in gs])
            h = outer.cross_gram(u, w)
            for k in range(6):
                assert h[k].tobytes() == outer.cross_gram(fs[k], gs[k]).tobytes()
            w = np.array([cons.random_unit(n, n, 900 + k, field).vectors for k in range(6)])
            duals = outer.cross_duals(u, w)
            assert duals.shape == (6, n * n, n, n)
            for k in range(6):
                g = Frame(field=field, vectors=w[k])
                assert duals[k].tobytes() == outer.cross_duals(fs[k], g).tobytes()
        with pytest.raises(DimensionMismatch):
            outer.cross_gram(u, w[..., :-1])
        with pytest.raises(DimensionMismatch):
            outer.cross_gram(u, w.astype(complex) if not cplx else w.real)

    def test_cross_duals_rejects_non_basis(self):
        with pytest.raises(NotABasis):
            outer.cross_duals(cons.simplex(2), cons.simplex(2))


def test_orthogonality_transfer():
    rng = np.random.default_rng(39)
    for cplx in (False, True):
        for _ in range(20):
            phi = random_unit_vec(rng, 3, cplx)
            psi = random_unit_vec(rng, 3, cplx)
            psi = psi - np.vdot(phi, psi) / np.vdot(phi, phi) * phi
            psi /= np.linalg.norm(psi)
            ip = trace_ip(np.outer(phi, phi.conj()), np.outer(psi, psi.conj()))
            assert abs(ip) <= 1e-12


def test_appendix_row_norm_identity():
    # ||sum a_i phi_i phi_i*||_F^2 equals the sum of squared row norms
    rng = np.random.default_rng(40)
    f = Frame.from_vectors(rng.standard_normal((4, 4)))
    a = rng.standard_normal(4)
    s = sum(a[i] * np.outer(f.vectors[i], f.vectors[i]) for i in range(4))
    rows = sum(np.linalg.norm(s[i]) ** 2 for i in range(4))
    cols = sum(np.linalg.norm(s[:, i]) ** 2 for i in range(4))
    assert abs(np.linalg.norm(s) ** 2 - rows) <= 1e-10
    assert abs(np.linalg.norm(s) ** 2 - cols) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.booleans())
def test_pc2_identity_property(seed, cplx):
    rng = np.random.default_rng(seed)
    phi = random_unit_vec(rng, 4, cplx)
    psi = random_unit_vec(rng, 4, cplx)
    lhs = trace_ip(np.outer(phi, phi.conj()), np.outer(psi, psi.conj()))
    lhs = lhs.real if cplx else lhs
    assert abs(lhs - abs(np.vdot(psi, phi)) ** 2) <= 1e-12


@pytest.mark.parametrize("cplx", [False, True])
def test_vectorized_synthesis_equals_stacked_kron_rows(cplx):
    rng = np.random.default_rng(61 + cplx)
    for n, m in ((1, 1), (2, 3), (4, 9), (12, 77)):
        f = random_unit_frame(rng, n, m, cplx)
        want = np.vstack([np.kron(v, np.conj(v)) for v in f.vectors])
        got = outer.vectorized_synthesis(f)
        assert got.shape == (m, n * n) and got.tobytes() == want.tobytes()


def _loop_projection(os_, x):
    """The per-matrix projection: M trace inner products, then M additions."""
    v, w = os_.gram_spectrum.eigenvectors, os_.gram_spectrum.eigenvalues
    b = np.real([trace_ip(o, x) for o in os_.outers])
    coeff = v @ ((v.conj().T @ b) / w)
    out = np.zeros_like(os_.outers[0], dtype=np.result_type(x, os_.outers[0]))
    for c, o in zip(coeff, os_.outers):
        out = out + c * o
    return out


def _dependent_frame(rng, n, m, cplx):
    f = random_unit_frame(rng, n, m, cplx)
    v = f.vectors.copy()
    v[-1] = v[1] * (np.exp(0.3j) if cplx else -1.0)  # same outer product
    return Frame(field=f.field, vectors=v)


def _random_unitary(rng, n, cplx):
    a = rng.standard_normal((n, n))
    if cplx:
        a = a + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diagonal(r).real)


@pytest.mark.parametrize("cplx", [False, True])
def test_the_eigenvalue_rank_is_the_rank_induce_decides(cplx):
    # outer._outer_rank ranks the outer Gram from eigvalsh alone: an int for
    # one frame, one rank per frame of a stack, and on frames away from the
    # threshold the rank of induce's eigh
    rng = np.random.default_rng(62 + cplx)
    n, d = 3, 9 if cplx else 6
    for m in (2, d - 1, d, d + 1):
        frames = [random_unit_frame(rng, n, m, cplx) for _ in range(4)]
        frames += [_dependent_frame(rng, n, m, cplx) for _ in range(4)]
        stack = np.stack([f.vectors for f in frames])
        ranks = [outer.induce(f).rank for f in frames]
        assert outer._outer_rank(stack).tolist() == ranks
        assert outer.induce_batch(stack).rank.tolist() == ranks
        assert [outer._outer_rank(f.vectors) for f in frames] == ranks
        assert type(outer._outer_rank(frames[0].vectors)) is int


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31), st.booleans(), st.integers(2, 4),
       st.sampled_from(["free", "repeat", "full"]))
def test_outer_rank_is_invariant_under_unitaries_phases_and_order(seed, cplx, n, kind):
    # U phi_i c_i for a unitary U and unimodular c_i keeps every
    # |<phi_j, phi_i>|^2, and reordering the vectors permutes them, so the
    # outer rank and the independence verdict must not move
    rng = np.random.default_rng(seed)
    d = n * n if cplx else n * (n + 1) // 2
    if kind == "repeat":  # one outer product twice
        f = _dependent_frame(rng, n, int(rng.integers(3, d + 2)), cplx)
    else:  # at most the ambient dimension, or one more
        m = int(rng.integers(1, d + 1)) if kind == "free" else d + 1
        f = random_unit_frame(rng, n, m, cplx)
    if cplx:
        c = np.exp(2j * np.pi * rng.uniform(size=f.m))
    else:
        c = rng.choice([-1.0, 1.0], size=f.m)
    moved = (f.vectors @ _random_unitary(rng, n, cplx).T * c[:, None])[rng.permutation(f.m)]
    before, after = outer.induce(f), outer.induce(Frame(field=f.field, vectors=moved))
    assert after.rank == before.rank == min(f.m - (kind == "repeat"), d)
    assert outer.is_independent(after) == outer.is_independent(before)


def _integers(draw, shape, bound, cplx):
    """An array of integers in [-bound, bound], Gaussian integers if cplx, as floats."""
    count = int(np.prod(shape))
    parts = [np.array(draw(st.lists(st.integers(-bound, bound), min_size=count,
                                    max_size=count)), dtype=float).reshape(shape)
             for _ in range(1 + cplx)]
    return parts[0] + 1j * parts[1] if cplx else parts[0]


@st.composite
def integer_frames_and_maps(draw):
    """Integer rows phi_i (Gaussian integers over C), at most one more than
    the ambient dimension, and an invertible integer S = P U: a permutation
    times a unit upper triangular U whose entries above the diagonal reach
    100 (per part), so cond(S) reaches 1e4 at N = 2 and 1e8 at N = 3."""
    cplx, n = draw(st.booleans()), draw(st.integers(2, 3))
    m = draw(st.integers(1, outer.ambient_outer_dim(n, "complex" if cplx else "real") + 1))
    rows = _integers(draw, (m, n), 2, cplx)
    u = np.eye(n) + np.triu(_integers(draw, (n, n), 100, cplx), 1)
    return rows, u[draw(st.permutations(range(n)))]


def _exact_outer_gram(v):
    """|<phi_i, phi_j>|^2 of integer rows, formed in floats: every product,
    sum and square is an integer below 2^53, so each is exact."""
    g = v.conj() @ v.T
    gram = g.real ** 2 + g.imag ** 2
    assert np.abs(gram).max() < 2.0 ** 53
    return gram


@settings(max_examples=150, deadline=None)
@given(integer_frames_and_maps())
@example((np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([[1.0, 100.0], [0.0, 1.0]])))
@example((np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, -100.0]])))
def test_outer_rank_is_invariant_under_invertible_maps(case):
    # phi -> S phi acts on the outers as X -> S X S*, which an invertible S
    # inverts: the exact rank of the outer Gram does not move, however
    # ill-conditioned S is (in floating point the mapped Gram's condition
    # can grow by cond(S)^4, past what a rank rule resolves)
    rows, s = case
    assert verify.rational_rank(_exact_outer_gram(rows @ s.T)) == \
        verify.rational_rank(_exact_outer_gram(rows))


class TestProductsWithTheVectorizedSynthesis:
    """Each sum over the outer products is one product with the vectorized
    synthesis S, against the per-matrix loop it replaced, kept here inline.
    The two differ only in summation order; the frames here have outer Grams
    of condition number below 1e4, so they agree within RTOL of the norm
    of the reference (observed: below 3e-15)."""

    RTOL = 1e-11
    SHAPES = [(2, 3, False), (3, 5, False), (3, 6, False), (2, 3, True), (2, 4, True),
              (3, 7, True)]
    BASES = [(2, 2, False), (3, 2, False), (4, 4, False), (2, 2, True), (3, 3, True)]

    def close(self, got, want):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= self.RTOL * max(np.linalg.norm(want), 1.0)

    def independent_frames(self, seed, shapes):
        rng = np.random.default_rng(seed)
        for n, m, cplx in shapes:
            f = random_unit_frame(rng, n, m, cplx)
            os_ = outer.induce(f)
            assert os_.rank == m and np.linalg.cond(os_.gram_op) < 1e4
            yield f, os_

    def test_projection_equals_the_loop(self):
        rng = np.random.default_rng(70)
        for f, os_ in self.independent_frames(71, self.SHAPES):
            xs = np.array([random_self_adjoint(rng, f.n, f.field == "complex")
                           for _ in range(3)])
            for x in xs:
                self.close(outer.project_onto_outer_span(os_, x), _loop_projection(os_, x))
            stacked = outer.project_onto_outer_span(os_, xs)
            assert stacked.shape == xs.shape
            for got, x in zip(stacked, xs):
                self.close(got, _loop_projection(os_, x))

    def test_duals_equal_the_per_dual_loop(self):
        # the vectors themselves must be independent, so M <= N
        for f, os_ in self.independent_frames(72, self.BASES):
            dual_cols = f.vectors.T @ np.linalg.inv(gram(f))
            want = np.array([_loop_projection(os_, np.outer(dv, dv.conj()))
                             for dv in dual_cols.T])
            self.close(outer.outer_duals(f), want)

    def test_residual_and_split_equal_the_loops(self):
        rng = np.random.default_rng(75)
        for n, m, cplx in self.SHAPES:
            f = _dependent_frame(rng, n, m, cplx)
            os_ = outer.induce(f)
            cert = outer.dependence_certificate(os_)
            a = cert.coefficients
            residual = float(np.linalg.norm(sum(a[i] * os_.outers[i] for i in range(m))))
            assert abs(cert.residual - residual) <= 1e-14
            want_pos = np.zeros((n, n), dtype=os_.outers.dtype)
            want_neg = np.zeros((n, n), dtype=os_.outers.dtype)
            for i, ai in enumerate(a):
                if i in cert.split:
                    want_pos += ai * os_.outers[i]
                else:
                    want_neg += -ai * os_.outers[i]
            s_pos, s_neg = outer.split_frame_operators(os_, cert)
            assert s_pos.dtype == want_pos.dtype and s_neg.dtype == want_neg.dtype
            self.close(s_pos, want_pos)
            self.close(s_neg, want_neg)

    def test_projection_keeps_its_shape_check(self):
        f = cons.random_unit(2, 3, 76)
        os_ = outer.induce(f)
        for bad in (np.eye(3), np.ones((1, 4)), np.ones(4)):
            with pytest.raises(ShapeMismatch):
                outer.project_onto_outer_span(os_, bad)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_spectral_solve_takes_a_vector_or_a_matrix_right_side(k):
    # distinct eigenvalues, so dividing along the wrong axis cannot pass;
    # k = 5 is the square case, where it would not raise either
    rng = np.random.default_rng(77)
    q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    g = q @ np.diag([8.0, 4.0, 2.0, 1.0, 0.5]) @ q.T
    spectrum = matcore.hermitian_eig(g)
    b = rng.standard_normal((5, k))
    got = matcore.spectral_solve(spectrum, b)
    assert got.shape == (5, k)
    np.testing.assert_allclose(g @ got, b, atol=1e-12)
    for j in range(k):
        np.testing.assert_allclose(matcore.spectral_solve(spectrum, b[:, j]), got[:, j],
                                   atol=1e-12)


@pytest.mark.parametrize("cplx", [False, True])
def test_spectral_solve_with_a_leading_axis_equals_one_matrix_at_a_time(cplx):
    rng = np.random.default_rng(78 + cplx)
    field = "complex" if cplx else "real"
    frames = [cons.random_unit(3, 4, 610 + k, field) for k in range(7)]
    batch = outer.induce_batch(_stack(frames))
    b = rng.standard_normal((7, 4, 3))
    got = matcore.spectral_solve(batch.gram_spectrum, b)
    vec = matcore.spectral_solve(batch.gram_spectrum, b[..., 0])
    assert got.shape == (7, 4, 3) and vec.shape == (7, 4)
    for k, f in enumerate(frames):
        spectrum = outer.induce(f).gram_spectrum
        assert got[k].tobytes() == matcore.spectral_solve(spectrum, b[k]).tobytes()
        assert vec[k].tobytes() == matcore.spectral_solve(spectrum, b[k, :, 0]).tobytes()


@pytest.mark.parametrize("name, args", [
    ("is_independent", ()), ("outer_riesz_bounds", ()), ("dependence_certificate", ()),
    ("project_onto_outer_span", (np.eye(2),)), ("optimal_bound_report", ())])
@pytest.mark.parametrize("count", [1, 2])
def test_one_frame_functions_reject_a_stacked_batch(name, args, count):
    frames = [cons.random_unit(2, 3, 620 + k) for k in range(count)]
    batch = outer.induce_batch(_stack(frames))
    with pytest.raises(ShapeMismatch, match=f"^{name} takes the OuterBatch of one frame"):
        getattr(outer, name)(batch, *args)
    getattr(outer, name)(outer.induce(frames[0]), *args)  # one frame is fine


def test_split_frame_operators_rejects_a_stacked_batch():
    f = frame_of([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0])
    cert = outer.dependence_certificate(outer.induce(f))
    with pytest.raises(ShapeMismatch, match="^split_frame_operators takes the OuterBatch"):
        outer.split_frame_operators(outer.induce_batch(_stack([f, f])), cert)
    outer.split_frame_operators(outer.induce(f), cert)
