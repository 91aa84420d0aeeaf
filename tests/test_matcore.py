import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import matcore
from framekit.errors import BadParam, NotSelfAdjoint, ShapeMismatch

from oracles import (
    det_cofactor,
    eig_desc,
    eigvals_2x2_symmetric,
    random_self_adjoint,
    rational_rank_exact,
)


class TestHermitianEig:
    def test_identity(self):
        sd = matcore.hermitian_eig(np.eye(2))
        np.testing.assert_allclose(sd.eigenvalues, [1.0, 1.0])

    def test_diagonal(self):
        sd = matcore.hermitian_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(sd.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(sd.eigenvectors, np.eye(2))

    def test_two_by_two_against_characteristic_polynomial(self):
        # hand oracle: roots of (1 - lam)^2 - c^2 for c = 0.5
        hi, lo = eigvals_2x2_symmetric(1.0, 0.5, 1.0)
        assert (hi, lo) == (1.5, 0.5)
        sd = matcore.hermitian_eig([[1.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(sd.eigenvalues, [1.5, 0.5], atol=1e-14)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_reconstruction_random(self, cplx):
        rng = np.random.default_rng(7)
        for n in range(1, 13):
            a = random_self_adjoint(rng, n, cplx)
            sd = matcore.hermitian_eig(a)
            v = sd.eigenvectors
            assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-10 * n
            rebuilt = v @ np.diag(sd.eigenvalues) @ v.conj().T
            assert np.linalg.norm(rebuilt - a) <= 1e-10 * np.linalg.norm(a)
            assert np.all(np.diff(sd.eigenvalues) <= 0)
            np.testing.assert_allclose(sd.eigenvalues, eig_desc(a), atol=1e-12 * n)

    def test_phase_convention(self):
        rng = np.random.default_rng(8)
        a = random_self_adjoint(rng, 5, True)
        v = matcore.hermitian_eig(a).eigenvectors
        for j in range(5):
            lead = v[np.abs(v[:, j]) > 1e-10, j][0]
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_phases_match_a_column_by_column_pass(self):
        # the vectorised pass forms the same product per column as this loop
        rng = np.random.default_rng(9)
        for n in range(2, 9):
            for cplx in (False, True):
                v = np.linalg.eigh(random_self_adjoint(rng, n, cplx))[1]
                expected = v.copy()
                for j in range(n):
                    col = v[:, j]
                    z = col[np.flatnonzero(np.abs(col) > 1e-10)[0]]
                    expected[:, j] = col * (np.conj(z) / abs(z))
                np.testing.assert_array_equal(matcore._canonical_phases(v), expected)

    def test_phases_of_tiny_complex_and_real_columns(self):
        v = np.array([[1e-11, -1e-11, 0.6], [-1e-12, -1.0, -0.8], [0.0, 0.0, 0.0]])
        out = matcore._canonical_phases(v)
        # an all-tiny column is left as it is; tiny leading entries are skipped
        np.testing.assert_array_equal(out[:, 0], v[:, 0])
        np.testing.assert_array_equal(out[:, 1], [1e-11, 1.0, 0.0])
        np.testing.assert_array_equal(out[:, 2], v[:, 2])
        z = np.array([[1e-12j, 0.0], [1j, (1 + 1j) / np.sqrt(2)], [2.0, 1e-13j]])
        out = matcore._canonical_phases(z)
        np.testing.assert_array_equal(out[:, 0], [1e-12, 1.0, -2j])
        assert abs(out[1, 1].imag) < 1e-15 and out[1, 1].real > 0
        np.testing.assert_allclose(np.abs(out), np.abs(z), rtol=1e-15)

    def test_rejects_non_self_adjoint(self):
        with pytest.raises(NotSelfAdjoint):
            matcore.hermitian_eig([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotSelfAdjoint):
            matcore.hermitian_eig(np.ones((2, 3)))

    def test_stacked_eigenvalues_match_one_matrix_at_a_time(self):
        rng = np.random.default_rng(13)
        for cplx in (False, True):
            stack = np.array([random_self_adjoint(rng, 5, cplx) for _ in range(7)])
            got = matcore.hermitian_eigvalues(stack)
            assert got.shape == (7, 5)
            for a, w in zip(stack, got):
                np.testing.assert_allclose(w, eig_desc(a), atol=1e-12)

    def test_stack_with_one_non_self_adjoint_matrix_rejected(self):
        stack = np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(NotSelfAdjoint):
            matcore.hermitian_eigvalues(stack)
        with pytest.raises(NotSelfAdjoint):
            matcore.hermitian_eig(stack)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_stacked_eig_equals_one_matrix_at_a_time_bit_for_bit(self, cplx):
        rng = np.random.default_rng(15 + cplx)
        for n in range(1, 9):
            stack = []
            for k in range(40):
                a = random_self_adjoint(rng, n, cplx)
                if k % 4 == 1:
                    # block diagonal: eigenvectors with exact zero entries
                    a[: n // 2, n // 2:] = 0.0
                    a[n // 2:, : n // 2] = 0.0
                elif k % 4 == 2:
                    # weak couplings: eigenvector entries near 1e-12, below
                    # the phase threshold, so a later entry sets the phase
                    a = np.diag(np.arange(1.0, n + 1.0)) + 1e-12 * a
                stack.append(a)
            stack = np.array(stack).reshape(2, 20, n, n)
            sd = matcore.hermitian_eig(stack)
            assert sd.eigenvalues.shape == (2, 20, n)
            assert sd.eigenvectors.shape == (2, 20, n, n)
            for i in np.ndindex(2, 20):
                one = matcore.hermitian_eig(stack[i])
                assert sd.eigenvalues[i].tobytes() == one.eigenvalues.tobytes()
                assert sd.eigenvectors[i].tobytes() == one.eigenvectors.tobytes()


class TestNumericalRank:
    def test_identity_and_zero(self):
        assert matcore.numerical_rank(np.eye(3)) == 3
        assert matcore.numerical_rank(np.zeros((2, 2))) == 0

    def test_vectorized_outers_of_mixed_basis(self):
        # outer products of e1, e2, (e1+e2)/sqrt(2), vectorized as columns;
        # scaling the third by 2 keeps entries integral for the exact oracle
        cols = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.5, 0.5, 0.5, 0.5],
        ]).T
        assert rational_rank_exact(2.0 * cols) == 3
        assert matcore.numerical_rank(cols) == 3

    def test_agrees_with_rational_oracle_on_integer_matrices(self):
        rng = np.random.default_rng(11)
        for trial in range(120):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            a = rng.integers(-3, 4, size=(m, n)).astype(float)
            if trial % 3 == 0 and min(m, n) > 1:
                a[-1] = a[0]  # force a deficiency
            if trial % 2 == 0:
                b = a + 1j * rng.integers(-3, 4, size=(m, n)).astype(float)
            else:
                b = a
            assert matcore.numerical_rank(b) == rational_rank_exact(b)

    def test_explicit_tolerance_override(self):
        a = np.diag([1.0, 1e-6])
        assert matcore.numerical_rank(a) == 2
        assert matcore.numerical_rank(a, tol=1e-3) == 1

    def test_env_override(self, monkeypatch):
        a = np.diag([1.0, 1e-6])
        monkeypatch.setenv("FRAMEKIT_TOL", "1e-3")
        assert matcore.numerical_rank(a) == 1

    @pytest.mark.parametrize("value", ["abc", "", "nan", "inf", "-1e-3", "1e400"])
    def test_env_override_must_be_finite_and_non_negative(self, monkeypatch, value):
        monkeypatch.setenv("FRAMEKIT_TOL", value)
        with pytest.raises(BadParam):
            matcore.numerical_rank(np.eye(2))

    def test_stacked_ranks_match_one_matrix_at_a_time(self, monkeypatch):
        rng = np.random.default_rng(12)
        stack = rng.standard_normal((6, 4, 4))
        stack[::2, 3] = stack[::2, 0]  # every other matrix rank-deficient
        stack[1] *= 1e-9  # its own default tolerance, not the stack's
        sigma = np.linalg.svd(stack, compute_uv=False)
        singles = [matcore.numerical_rank(a) for a in stack]
        np.testing.assert_array_equal(
            matcore.rank_from_singular_values(sigma, (4, 4)), singles)
        assert singles == [3, 4, 3, 4, 3, 4]
        monkeypatch.setenv("FRAMEKIT_TOL", "1e-3")
        np.testing.assert_array_equal(
            matcore.rank_from_singular_values(sigma, (4, 4)),
            [matcore.numerical_rank(a) for a in stack])
        assert matcore.rank_from_singular_values(sigma, (4, 4))[1] == 0


class TestHadamard:
    def test_entrywise(self):
        out = matcore.hadamard([[1, 2], [3, 4]], [[5, 6], [7, 8]])
        np.testing.assert_array_equal(out, [[5, 12], [21, 32]])

    def test_all_ones_is_identity_element(self):
        a = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(matcore.hadamard(a, np.ones((2, 3))), a)

    def test_gram_with_its_conjugate(self):
        g = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
        out = matcore.hadamard(g, g.conj())
        np.testing.assert_allclose(out, [[1.0, 0.25], [0.25, 1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            matcore.hadamard(np.eye(2), np.eye(3))

    def test_psd_eigenvalue_envelope(self):
        # every eigenvalue of A o B sits between min(diag A) * lambda_min(B)
        # and max(diag A) * lambda_max(B) when both are PSD
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            fa = rng.standard_normal((n, n))
            fb = rng.standard_normal((n, n))
            a = fa @ fa.T
            b = fb @ fb.T
            wb = eig_desc(b)
            w = eig_desc(a * b)
            d = np.diag(a)
            assert w[-1] >= d.min() * wb[-1] - 1e-9
            assert w[0] <= d.max() * wb[0] + 1e-9


class TestKronecker:
    def test_identities(self):
        np.testing.assert_array_equal(matcore.kronecker(np.eye(2), np.eye(2)), np.eye(4))
        out = matcore.kronecker(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))
        np.testing.assert_array_equal(out, np.diag([10.0, 14.0, 15.0, 21.0]))

    @pytest.mark.parametrize("cplx", [False, True])
    def test_spectrum_is_product_multiset(self, cplx):
        rng = np.random.default_rng(13)
        for _ in range(25):
            a = random_self_adjoint(rng, 2, cplx)
            b = random_self_adjoint(rng, 2, cplx)
            got = eig_desc(matcore.kronecker(a, b))
            want = np.sort(np.outer(eig_desc(a), eig_desc(b)).ravel())[::-1]
            np.testing.assert_allclose(got, want, atol=1e-9)


class TestFrobeniusInnerProduct:
    def test_identity(self):
        assert matcore.frobenius_ip(np.eye(2), np.eye(2)) == 2.0

    def test_orthogonal_projections(self):
        e1 = np.outer([1.0, 0.0], [1.0, 0.0])
        e2 = np.outer([0.0, 1.0], [0.0, 1.0])
        assert matcore.frobenius_ip(e1, e2) == 0.0

    def test_equals_squared_inner_product(self):
        phi = np.array([1.0, 0.0])
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        got = matcore.frobenius_ip(np.outer(phi, phi), np.outer(psi, psi))
        assert abs(got - 0.5) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            matcore.frobenius_ip(np.eye(2), np.eye(3))


class TestVectorizeOuter:
    def test_standard_basis(self):
        np.testing.assert_array_equal(matcore.vectorize_outer([1.0, 0.0]), [1, 0, 0, 0])

    def test_uniform(self):
        out = matcore.vectorize_outer(np.array([1.0, 1.0]) / np.sqrt(2))
        np.testing.assert_allclose(out, [0.5, 0.5, 0.5, 0.5])

    def test_complex_blocks(self):
        # phi[k] * conj(phi) blocks, worked by hand for (1, i)/sqrt(2)
        out = matcore.vectorize_outer(np.array([1.0, 1.0j]) / np.sqrt(2))
        np.testing.assert_allclose(out, [0.5, -0.5j, 0.5j, 0.5])


class TestSylvester:
    def test_rank_one(self):
        ones = np.ones((3, 1))
        left, right = matcore.sylvester_det_check(ones, ones.T)
        assert left == pytest.approx(4.0) and right == pytest.approx(4.0)

    def test_zero(self):
        left, right = matcore.sylvester_det_check(np.zeros((2, 3)), np.zeros((3, 2)))
        assert left == 1.0 and right == 1.0

    def test_random_rectangular(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            s = rng.standard_normal((3, 2))
            t = rng.standard_normal((2, 3))
            left, right = matcore.sylvester_det_check(s, t)
            assert abs(left - right) <= 1e-10 * max(1.0, abs(left))
            # cofactor-expansion oracle on the 3x3 side
            oracle = det_cofactor(np.eye(3) + s @ t)
            assert abs(left - oracle) <= 1e-10 * max(1.0, abs(oracle))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            matcore.sylvester_det_check(np.eye(2), np.eye(3))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.booleans(), st.integers(0, 2**31))
def test_eig_reconstruction_property(n, cplx, seed):
    rng = np.random.default_rng(seed)
    a = random_self_adjoint(rng, n, cplx)
    sd = matcore.hermitian_eig(a)
    rebuilt = sd.eigenvectors @ np.diag(sd.eigenvalues) @ sd.eigenvectors.conj().T
    assert np.linalg.norm(rebuilt - a) <= 1e-10 * max(np.linalg.norm(a), 1e-30)
