import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import matcore
from framekit.errors import NotSelfAdjoint, ShapeMismatch

from oracles import (
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

    def test_stacked_ranks_match_one_matrix_at_a_time(self):
        rng = np.random.default_rng(12)
        stack = rng.standard_normal((6, 4, 4))
        stack[::2, 3] = stack[::2, 0]  # every other matrix rank-deficient
        stack[1] *= 1e-9  # its own default tolerance, not the stack's
        sigma = np.linalg.svd(stack, compute_uv=False)
        singles = [matcore.numerical_rank(a) for a in stack]
        np.testing.assert_array_equal(
            matcore.rank_from_singular_values(sigma, (4, 4)), singles)
        assert singles == [3, 4, 3, 4, 3, 4]

        # numerical_rank itself takes a stack: per-matrix ranks by the same rule
        def per_matrix(deep):
            ranks = matcore.numerical_rank(deep)
            assert ranks.shape == (2, 3)
            for i in np.ndindex(2, 3):
                one = matcore.numerical_rank(deep[i])
                assert isinstance(one, int) and ranks[i] == one
            return ranks.tolist()

        for cplx in (False, True):
            deep = rng.standard_normal((2, 3, 4, 4))
            if cplx:
                deep = deep + 1j * rng.standard_normal((2, 3, 4, 4))
            deep[:, ::2, 3] = deep[:, ::2, 0]  # the first and last of each row rank-deficient
            deep[0, 1] *= 1e-16  # its own default tolerance, not the stack's
            deep[1, 1, 2:] *= 1e-5  # two singular values near 1e-5
            assert per_matrix(deep) == [[3, 4, 3], [3, 4, 3]]
        with pytest.raises(ShapeMismatch):  # a vector is no matrix
            matcore.numerical_rank(np.ones(3))


class TestStackedSingularValues:
    @pytest.mark.parametrize("cplx", [False, True])
    def test_stack_equals_one_matrix_at_a_time(self, cplx):
        # rectangular both ways, exactly rank-deficient members, and a
        # member scaled by 1e-12: each row is that of its matrix alone
        rng = np.random.default_rng(13 + cplx)
        for m, n in ((1, 1), (2, 5), (5, 2), (4, 4), (7, 3), (9, 9)):
            stack = rng.standard_normal((3, 8, m, n))
            if cplx:
                stack = stack + 1j * rng.standard_normal((3, 8, m, n))
            stack[0, ::2, -1] = stack[0, ::2, 0]
            stack[1, 3] *= 1e-12
            for f in (matcore.singular_values, matcore.stacked_singular_values):
                sigma = f(stack)
                assert sigma.shape == (3, 8, min(m, n))
                for i in np.ndindex(3, 8):
                    assert sigma[i].tobytes() == matcore.singular_values(stack[i]).tobytes()

    def test_non_array_input_and_shape_errors(self):
        np.testing.assert_array_equal(matcore.singular_values([[3.0, 0.0], [0.0, 4.0]]), [4.0, 3.0])
        with pytest.raises(ShapeMismatch):
            matcore.singular_values([1.0, 2.0])


class TestSpectralInverse:
    @pytest.mark.parametrize("cplx", [False, True])
    def test_equals_the_inline_eigendecomposition_form(self, cplx):
        rng = np.random.default_rng(19 + cplx)
        for n in (1, 2, 5, 9):
            b = rng.standard_normal((n, n))
            if cplx:
                b = b + 1j * rng.standard_normal((n, n))
            a = b @ b.conj().T + 0.1 * np.eye(n)
            sd = matcore.hermitian_eig(a)
            v = sd.eigenvectors
            want = v @ np.diag(1.0 / sd.eigenvalues) @ v.conj().T
            got = matcore.spectral_inverse(sd)
            assert got.tobytes() == want.tobytes()
            np.testing.assert_allclose(got @ a, np.eye(n), atol=1e-8)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_stack_equals_one_matrix_at_a_time(self, cplx):
        rng = np.random.default_rng(21 + cplx)
        for n in (1, 2, 5, 9):
            b = rng.standard_normal((6, n, n))
            if cplx:
                b = b + 1j * rng.standard_normal((6, n, n))
            a = b @ b.conj().swapaxes(-1, -2) + 0.1 * np.eye(n)
            got = matcore.spectral_inverse(matcore.hermitian_eig(a))
            assert got.shape == (6, n, n)
            for k in range(6):
                one = matcore.spectral_inverse(matcore.hermitian_eig(a[k]))
                assert got[k].tobytes() == one.tobytes()


class TestRankFromEigenvalues:
    @pytest.mark.parametrize("cplx", [False, True])
    def test_stack_equals_one_matrix_at_a_time(self, cplx):
        # indefinite members of every rank, so the moduli and the sort matter
        rng = np.random.default_rng(23 + cplx)
        for n in (1, 3, 6):
            mats = []
            for k in range(8):
                b = rng.standard_normal((n, k % (n + 1)))
                if cplx:
                    b = b + 1j * rng.standard_normal(b.shape)
                mats.append(b @ np.diag(rng.choice([-1.0, 1.0], b.shape[1])) @ b.conj().T)
            w = matcore.hermitian_eigvalues(np.array(mats))
            ranks = matcore.rank_from_eigenvalues(w, (n, n))
            assert ranks.shape == (8,)
            for k in range(8):
                sigma = np.sort(np.abs(w[k]))[::-1]  # the inline original
                want = matcore.rank_from_singular_values(sigma, (n, n))
                assert ranks[k] == want == matcore.rank_from_eigenvalues(w[k], (n, n))
                assert want == min(k % (n + 1), n)


class TestRowNorms:
    @pytest.mark.parametrize("cplx", [False, True])
    def test_equal_to_linalg_norm_of_each_row(self, cplx):
        rng = np.random.default_rng(15 + cplx)
        for n in (0, 1, 3, 8, 17):
            z = rng.standard_normal((4, 6, n))
            if cplx:
                z = z + 1j * rng.standard_normal((4, 6, n))
            norms = matcore.row_norms(z)
            assert norms.shape == (4, 6)
            for i in np.ndindex(4, 6):
                assert norms[i] == np.linalg.norm(z[i])


class TestScalarSquare:
    def test_equals_the_scalar_power_of_each_entry(self):
        # a product and libm's pow differ in the last bit for some of these
        rng = np.random.default_rng(17)
        x = rng.standard_normal(2000) * rng.choice([1e-3, 1.0, 1e3], 2000)
        got = matcore.scalar_square(x)
        assert [float(v) for v in got] == [float(v) ** 2 for v in x]
        assert [float(v) for v in got] == [float(np.float64(v) ** 2) for v in x]
        assert matcore.scalar_square(1.5) == 2.25


class TestHadamard:
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

    @pytest.mark.parametrize("cplx", [False, True])
    def test_stack_equals_np_kron_of_each_pair(self, cplx):
        rng = np.random.default_rng(14 + cplx)
        a = rng.standard_normal((5, 2, 3))
        b = rng.standard_normal((5, 4, 2))
        if cplx:
            b = b + 1j * rng.standard_normal((5, 4, 2))
        got = matcore.kronecker(a, b)
        assert got.shape == (5, 8, 6)
        for k in range(5):
            assert got[k].tobytes() == np.kron(a[k], b[k]).tobytes()
        assert matcore.kronecker(a[0], b[0]).tobytes() == np.kron(a[0], b[0]).tobytes()


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

    @pytest.mark.parametrize("cplx", [False, True])
    def test_rows_equal_kron_row_by_row(self, cplx):
        rng = np.random.default_rng(15 + cplx)
        rows = rng.standard_normal((2, 5, 3))
        if cplx:
            rows = rows + 1j * rng.standard_normal((2, 5, 3))
        out = matcore.vectorize_outer(rows)
        assert out.shape == (2, 5, 9) and out.dtype == rows.dtype
        for i in np.ndindex(2, 5):
            assert out[i].tobytes() == np.kron(rows[i], np.conj(rows[i])).tobytes()
            assert matcore.vectorize_outer(rows[i]).tobytes() == out[i].tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.booleans(), st.integers(0, 2**31))
def test_eig_reconstruction_property(n, cplx, seed):
    rng = np.random.default_rng(seed)
    a = random_self_adjoint(rng, n, cplx)
    sd = matcore.hermitian_eig(a)
    rebuilt = sd.eigenvectors @ np.diag(sd.eigenvalues) @ sd.eigenvectors.conj().T
    assert np.linalg.norm(rebuilt - a) <= 1e-10 * max(np.linalg.norm(a), 1e-30)
