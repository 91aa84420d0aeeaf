import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import constructions as cons
from framekit import matcore, outer, perturb
from framekit.frame import Frame, gram
from framekit.errors import (
    BadParam,
    DimensionMismatch,
    NotABasis,
    NotIndependent,
    NotUnitNorm,
    ZeroVector,
)

from oracles import eig_desc, random_unit_vec, rational_rank_exact


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
        os_ = outer.induce(cons.orthonormal(2))
        np.testing.assert_array_equal(os_.outers[0], np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(os_.outers[1], np.diag([0.0, 1.0]))
        np.testing.assert_array_equal(os_.gram_op, np.eye(2))
        assert os_.rank == 2 and os_.ambient_dim == 3

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

    def test_paths_agree_under_env_tolerance(self, monkeypatch):
        monkeypatch.setenv("FRAMEKIT_TOL", "1e-3")
        os_ = outer.induce(cons.epsilon_pair(0.9999))
        assert os_.rank == 1
        assert outer.is_independent(os_) is False


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
            batch = outer.induce_batch(frames)
            assert batch.vectors.shape == (25, m, n)
            for i, f in enumerate(frames):
                one = outer.induce(f)
                assert batch.gram_op[i].tobytes() == one.gram_op.tobytes()
                spectrum = batch.gram_spectrum
                assert spectrum.eigenvalues[i].tobytes() == one.gram_spectrum.eigenvalues.tobytes()
                assert spectrum.eigenvectors[i].tobytes() == \
                    one.gram_spectrum.eigenvectors.tobytes()
                assert batch.ranks[i] == one.rank
                assert bool(batch.independent[i]) == (one.rank == m)
                seq = batch.sequence(i)
                assert seq.source is f and seq.rank == one.rank and type(seq.rank) is int
                assert seq.ambient_dim == one.ambient_dim
                assert all(a.tobytes() == b.tobytes() for a, b in zip(seq.outers, one.outers))
            if m > 1:
                assert not batch.independent[3]

    def test_ranks_follow_env_tolerance(self, monkeypatch):
        monkeypatch.setenv("FRAMEKIT_TOL", "0.5")
        frames = self._frames(np.random.default_rng(35), 3, 4, False)
        batch = outer.induce_batch(frames)
        assert [int(r) for r in batch.ranks] == [outer.induce(f).rank for f in frames]

    def test_independence_radius_from_a_batch_sequence(self):
        frames = self._frames(np.random.default_rng(36), 2, 3, False)
        batch = outer.induce_batch(frames)
        for i in (0, 1, 2):
            assert perturb.independence_radius(batch.sequence(i)) == \
                perturb.independence_radius(outer.induce(frames[i]))

    def test_mixed_or_empty_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            outer.induce_batch([cons.orthonormal(2), cons.orthonormal(3)])
        with pytest.raises(DimensionMismatch):
            outer.induce_batch([cons.orthonormal(2), cons.orthonormal(2, field="complex")])
        with pytest.raises(BadParam):
            outer.induce_batch([])


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
        bio = np.array([[matcore.frobenius_ip(os_.outers[i], duals[j])
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
        want = matcore.frobenius_ip(small, big)
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
            bio = np.array([[abs(matcore.frobenius_ip(d, o)) for o in originals]
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
            ip = matcore.frobenius_ip(np.outer(phi, phi.conj()), np.outer(psi, psi.conj()))
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
    lhs = matcore.frobenius_ip(np.outer(phi, phi.conj()), np.outer(psi, psi.conj()))
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
