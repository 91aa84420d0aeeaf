import numpy as np
import pytest

from framekit import constructions as cons
from framekit import geometry, matcore, outer
from framekit.frame import Frame, analysis
from framekit.errors import (
    BadCoefficients,
    BadParam,
    InternalInconsistency,
    NotAFrame,
    NotIndependent,
    NotPsd,
    NotUnitNorm,
    RankDeficient,
    ShapeMismatch,
    TooMany,
)

from oracles import elliptic_values_solve, random_unit_vec, rational_rank_exact


def random_psd(rng, n, rank, cplx):
    g = rng.standard_normal((n, n))
    if cplx:
        g = g + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    lam = 0.5 + rng.random(rank)
    t = (q[:, :rank] * lam) @ q[:, :rank].conj().T
    return (t + t.conj().T) / 2


class TestPsdExtension:
    def test_i_plus_counts_positive_eigenvalues(self):
        ext = geometry.psd_extension(np.diag([2.0, 1.0, 0.0]))
        assert ext.i_plus == (0, 1)
        assert len(ext.i_plus) == matcore.numerical_rank(np.diag([2.0, 1.0, 0.0]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            geometry.psd_extension(np.diag([1.0, -1.0]))


class TestExtensionRankPreserved:
    def test_eigenvector_scaled_by_sqrt_lambda(self):
        t = np.diag([2.0, 1.0, 0.0])
        assert geometry.extension_rank_preserved(t, [np.sqrt(2.0), 0.0, 0.0])

    def test_kernel_vector_grows_rank(self):
        t = np.diag([2.0, 1.0, 0.0])
        assert not geometry.extension_rank_preserved(t, [0.0, 0.0, 1.0])

    def test_two_eigenvector_combination(self):
        # a = (1/sqrt(2), 1/sqrt(2)): v = (1, 1/sqrt(2), 0).  Scaling the
        # second coordinate by sqrt(2) is a congruence, so the bordered
        # matrix has the same rank as the integer matrix below (worked by
        # hand); the exact oracle pins that rank at 2 = rank(t).
        t = np.diag([2.0, 1.0, 0.0])
        v = np.array([1.0, 1.0 / np.sqrt(2.0), 0.0])
        congruent = np.array([
            [2, 0, 0, 1],
            [0, 2, 0, 1],
            [0, 0, 0, 0],
            [1, 1, 0, 1],
        ], dtype=float)
        assert rational_rank_exact(congruent) == 2
        assert geometry.extension_rank_preserved(t, v)

    def test_rejects_non_psd(self):
        with pytest.raises(NotPsd):
            geometry.extension_rank_preserved(np.diag([1.0, -2.0]), [1.0, 0.0])

    def test_same_psd_rule_as_psd_extension(self):
        # PSD_RELTOL = 1e-10 relative to the top eigenvalue, one rule for both
        inside, outside = np.diag([4.0, -3e-10]), np.diag([4.0, -5e-10])
        geometry.psd_extension(inside)
        assert geometry.extension_rank_preserved(inside, [2.0, 0.0])
        for call in (lambda: geometry.psd_extension(outside),
                     lambda: geometry.extension_rank_preserved(outside, [2.0, 0.0])):
            with pytest.raises(NotPsd):
                call()


class TestAdmissibleVectors:
    def test_single_eigenvalue(self):
        ext = geometry.psd_extension(np.diag([4.0, 0.0]))
        np.testing.assert_allclose(geometry.admissible_vector(ext, [1.0]), [2.0, 0.0])

    def test_identity(self):
        ext = geometry.psd_extension(np.eye(2))
        v = geometry.admissible_vector(ext, np.array([1.0, 1.0]) / np.sqrt(2))
        np.testing.assert_allclose(np.abs(v), [1, 1] / np.sqrt(2))

    def test_rejects_unnormalized(self):
        ext = geometry.psd_extension(np.eye(2))
        with pytest.raises(BadCoefficients):
            geometry.admissible_vector(ext, [1.0, 1.0])

    def test_fuzz_forward(self):
        rng = np.random.default_rng(51)
        for trial in range(60):
            cplx = trial % 2 == 1
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, n + 1))
            t = random_psd(rng, n, r, cplx)
            ext = geometry.psd_extension(t)
            a = random_unit_vec(rng, len(ext.i_plus), cplx)
            v = geometry.admissible_vector(ext, a)
            assert geometry.extension_rank_preserved(t, v)

    def test_coefficient_recovery(self):
        ext = geometry.psd_extension(np.diag([2.0, 1.0, 0.0]))
        a = geometry.admissible_coefficients(ext, [np.sqrt(2.0), 0.0, 0.0])
        np.testing.assert_allclose(a, [1.0, 0.0], atol=1e-12)

    def test_kernel_component_returns_none(self):
        ext = geometry.psd_extension(np.diag([2.0, 1.0, 0.0]))
        assert geometry.admissible_coefficients(ext, [0.0, 0.0, 1.0]) is None

    def test_wrong_scale_returns_none(self):
        # rank preserved iff |c| = sqrt(lambda_i)
        ext = geometry.psd_extension(np.diag([2.0, 1.0, 0.0]))
        assert geometry.admissible_coefficients(ext, [0.7, 0.0, 0.0]) is None
        t = np.diag([2.0, 1.0, 0.0])
        assert not geometry.extension_rank_preserved(t, [0.7, 0.0, 0.0])

    def test_normalization_forced_when_rank_preserved(self):
        rng = np.random.default_rng(52)
        for trial in range(30):
            n = int(rng.integers(2, 6))
            r = int(rng.integers(1, n + 1))
            t = random_psd(rng, n, r, trial % 2 == 1)
            ext = geometry.psd_extension(t)
            a = random_unit_vec(rng, r, trial % 2 == 1)
            back = geometry.admissible_coefficients(ext, geometry.admissible_vector(ext, a))
            assert back is not None
            assert abs(np.sum(np.abs(back) ** 2) - 1.0) <= 1e-9


class TestEllipticValue:
    def test_duplicate_projection(self):
        assert geometry.elliptic_value(cons.orthonormal(2), [1.0, 0.0]) == pytest.approx(1.0)

    def test_diagonal_mix(self):
        v = geometry.elliptic_value(cons.orthonormal(2), np.array([1.0, 1.0]) / np.sqrt(2))
        assert v == pytest.approx(0.5)

    def test_too_many(self):
        with pytest.raises(TooMany):
            geometry.elliptic_value(cons.eij_basis(2), [1.0, 0.0])

    def test_not_unit(self):
        with pytest.raises(NotUnitNorm):
            geometry.elliptic_value(cons.orthonormal(2), [2.0, 0.0])

    def test_dependent_frame_rejected(self):
        f = Frame.from_vectors(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        with pytest.raises(NotIndependent):
            geometry.elliptic_value(f, [0.0, 1.0, 0.0])


class TestQuarticAndEllipsoid:
    def test_quartic_examples(self):
        f = cons.orthonormal(2)
        assert geometry.quartic_residual(f, [1.0, 0.0]) == pytest.approx(0.0)
        assert geometry.quartic_residual(
            f, np.array([1.0, 1.0]) / np.sqrt(2)) == pytest.approx(0.5)

    def test_analysis_image_of_dependent_candidate_lies_on_quartic(self):
        f = cons.orthonormal(3)
        tv = analysis(f) @ np.array([0.0, 1.0, 0.0])
        assert geometry.quartic_residual(f, tv) <= 1e-12

    def test_ellipsoid_examples(self):
        f = cons.orthonormal(3)
        psi = random_unit_vec(np.random.default_rng(53), 3, False)
        assert geometry.ellipsoid_residual(f, analysis(f) @ psi) <= 1e-12
        s = cons.simplex(2)
        tv = analysis(s) @ np.array([1.0, 0.0])
        assert geometry.ellipsoid_residual(s, tv) <= 1e-12
        outside = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        assert geometry.ellipsoid_residual(s, outside) == np.inf

    def test_ellipsoid_needs_spanning(self):
        with pytest.raises(NotAFrame):
            geometry.ellipsoid_residual(Frame.from_vectors(np.array([[1.0, 0.0]])), [1.0])

    def test_elliptic_quartic_coherence(self):
        rng = np.random.default_rng(54)
        for trial in range(40):
            cplx = trial % 2 == 1
            f = cons.random_unit(2, 2, 5400 + trial, field="complex" if cplx else "real")
            if outer.induce(f).rank < 2:
                continue
            cand = random_unit_vec(rng, 2, cplx)
            value = geometry.elliptic_value(f, cand)
            qr = geometry.quartic_residual(f, analysis(f) @ cand)
            assert abs(abs(value - 1.0) - qr) <= 1e-10


class TestClassify:
    def test_orthonormal_examples(self):
        f = cons.orthonormal(3)
        assert geometry.classify(f, [0.0, 1.0, 0.0]).verdict == "dependent"
        rep = geometry.classify(f, np.array([1.0, 1.0, 0.0]) / np.sqrt(2))
        assert rep.verdict == "independent"
        assert rep.elliptic_value == pytest.approx(0.5)
        assert rep.quartic_value == pytest.approx(rep.elliptic_value)
        assert rep.ellipsoid_residual <= 1e-10

    def test_truncated_eij(self):
        # eij_basis(2) minus its last vector: both decision paths agree
        f = Frame.from_vectors(cons.eij_basis(2).vectors[:2])
        cand = np.array([1.0, 1.0]) / np.sqrt(2)
        rep = geometry.classify(f, cand)
        ext = Frame.from_vectors(np.vstack([f.vectors, cand]))
        grew = outer.induce(ext).rank == 3
        assert (rep.verdict == "independent") == grew

    def test_dependent_input_reordered(self):
        f = Frame.from_vectors(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        rep = geometry.classify(f, np.array([1.0, 1.0]) / np.sqrt(2))
        assert rep.permutation == (0, 2)
        assert rep.verdict == "independent"

    def test_consistency_fuzz(self):
        count = 0
        stream_rng = np.random.default_rng(55)
        for trial in range(150):
            cplx = trial % 3 == 2
            n = 2 if cplx else 2 + trial % 2
            d = n * n if cplx else n * (n + 1) // 2
            m = 2 + trial % max(1, d - 2)
            f = cons.random_unit(n, m, 5500 + trial,
                                 field="complex" if cplx else "real")
            if outer.induce(f).rank < m:
                continue
            cand = random_unit_vec(stream_rng, n, cplx)
            geometry.classify(f, cand)  # raises InternalInconsistency on disagreement
            count += 1
        assert count > 100


    def test_near_dependent_candidate_is_dependent(self):
        # 1 - elliptic = 2 sin(1e-5)^2 cos(1e-5)^2 = 2e-10: inside the verdict
        # tolerance, although the bordered rank grows (its smallest eigenvalue
        # is far above (M+1) eps lambda_max)
        f = cons.orthonormal(3)
        rep = geometry.classify(f, [np.cos(1e-5), np.sin(1e-5), 0.0])
        assert rep.verdict == "dependent"
        assert 1.0 - rep.elliptic_value == pytest.approx(2e-10, rel=1e-6)

    @pytest.mark.parametrize("shift", [1e-6, -1e-6])
    @pytest.mark.parametrize("candidate", [[0.0, 1.0, 0.0], [0.6, 0.8, 0.0]])
    def test_cross_check_catches_a_shifted_elliptic_value(self, monkeypatch, shift,
                                                         candidate):
        f = cons.orthonormal(3)
        geometry.classify(f, candidate)
        exact = geometry._inverse_gram_form
        monkeypatch.setattr(geometry, "_inverse_gram_form",
                            lambda os_, tv: exact(os_, tv) + shift)
        with pytest.raises(InternalInconsistency):
            geometry.classify(f, candidate)


class TestFramesOfAnyNorm:
    """prepare equilibrates the outer Gram to unit diagonal, so neither the
    values, the verdicts nor their cross-check depend on the norms of the
    frame's vectors."""

    def test_large_diagonal_frame(self):
        f = Frame.from_vectors(np.array([[1e5, 0.0], [0.0, 1e5]]))
        rep = geometry.classify(f, [0.6, 0.8])
        assert rep.verdict == "independent"
        assert rep.elliptic_value == pytest.approx(0.5392, rel=1e-12)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_values_and_verdicts_are_scale_invariant(self, field):
        n, m = (3, 4) if field == "real" else (2, 3)
        f = cons.random_unit(n, m, 77, field=field)
        cands = _unit_rows(np.random.default_rng(77), 60, n, field == "complex")
        cands[::10] = f.vectors[1]  # exact dependent extensions among them
        unit = geometry.classify_batch(geometry.prepare(f), cands)
        for scale in (1e-30, 1e-5, 3.0, 1e5, 1e30):
            scaled = Frame(field=field, vectors=scale * f.vectors)
            batch = geometry.classify_batch(geometry.prepare(scaled), cands)
            np.testing.assert_array_equal(batch.dependent, unit.dependent)
            np.testing.assert_allclose(batch.elliptic_value, unit.elliptic_value,
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shift", [1e-6, -1e-6])
    @pytest.mark.parametrize("candidate", [[1.0, 0.0], [0.6, 0.8]])
    def test_cross_check_still_two_sided(self, monkeypatch, shift, candidate):
        f = Frame.from_vectors(np.array([[1e5, 0.0], [0.0, 1e5]]))
        geometry.classify(f, candidate)
        exact = geometry._inverse_gram_form
        monkeypatch.setattr(geometry, "_inverse_gram_form",
                            lambda spectrum, w: exact(spectrum, w) + shift)
        with pytest.raises(InternalInconsistency):
            geometry.classify(f, candidate)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_vectors_of_very_different_norms(self, field):
        # norms spread over 10^-1.5..10^1.5 scale the outer Gram's diagonal
        # over 1e-6..1e6; its equilibrated copy is as well conditioned as
        # the unit frame's, so values and verdicts stay those of the unit frame
        n, m = (3, 5) if field == "real" else (2, 3)
        f = cons.random_unit(n, m, 78, field=field)
        norms = 10.0 ** np.linspace(-1.5, 1.5, m)
        graded = Frame(field=field, vectors=f.vectors * norms[:, None])
        cands = _unit_rows(np.random.default_rng(78), 100, n, field == "complex")
        cands[::10] = f.vectors[2]
        batch = geometry.classify_batch(geometry.prepare(graded), cands)
        unit = geometry.classify_batch(geometry.prepare(f), cands)
        np.testing.assert_array_equal(batch.dependent, unit.dependent)
        np.testing.assert_allclose(batch.elliptic_value, unit.elliptic_value,
                                   rtol=1e-9, atol=1e-9)


def _unit_rows(rng, k, n, cplx):
    return np.array([random_unit_vec(rng, n, cplx) for _ in range(k)])


class TestClassifyBatch:
    def assert_matches_one_row_calls(self, f, candidates):
        batch = geometry.classify_batch(geometry.prepare(f), candidates)
        for k, cand in enumerate(candidates):
            one = geometry.classify(f, cand)
            rep = batch.report(k)
            assert rep.verdict == one.verdict
            assert rep.permutation == one.permutation
            # one matmul for the batch against one per row: the sums may
            # round differently, by a few ulps of the inputs
            np.testing.assert_allclose(rep.tv, one.tv, rtol=0, atol=1e-14)
            for name in ("elliptic_value", "quartic_value", "ellipsoid_residual"):
                np.testing.assert_allclose(getattr(rep, name), getattr(one, name),
                                           rtol=1e-12, atol=1e-14)
        return batch

    def test_real_and_complex_frames(self):
        rng = np.random.default_rng(57)
        for n, m, field in ((3, 4, "real"), (3, 2, "real"), (2, 3, "complex"), (3, 7, "complex")):
            f = cons.random_unit(n, m, 5700 + m, field=field)
            cands = _unit_rows(rng, 40, n, field == "complex")
            cands[::7] = f.vectors[0]  # exact dependent extensions among them
            batch = self.assert_matches_one_row_calls(f, cands)
            assert batch.dependent[::7].all()
            assert np.isnan(batch.ellipsoid_residual).all() == (m < n)

    def test_dependent_input_frame_is_reordered_once(self):
        f = Frame.from_vectors(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        prep = geometry.prepare(f)
        assert prep.permutation == (0, 2)
        cands = _unit_rows(np.random.default_rng(58), 25, 2, False)
        batch = self.assert_matches_one_row_calls(f, cands)
        assert batch.permutation == (0, 2)

    def test_under_env_rank_tolerance(self, monkeypatch):
        # a near-duplicate pair: three independent outers at the default
        # tolerance (so M + 1 exceeds dimension 3), a dependent pair at 1e-8,
        # whose outer Gram has eigenvalues 2 and 1e-10
        v = np.array([[1.0, 0.0], [1.0, 1e-5], [0.0, 1.0]])
        f = Frame.from_vectors(v / np.linalg.norm(v, axis=1, keepdims=True))
        cands = _unit_rows(np.random.default_rng(59), 25, 2, False)
        with pytest.raises(TooMany):
            geometry.classify_batch(geometry.prepare(f), cands)
        monkeypatch.setenv("FRAMEKIT_TOL", "1e-8")
        batch = self.assert_matches_one_row_calls(f, cands)
        assert batch.permutation == (0, 2)

    def test_slicing_the_stack_changes_nothing(self, monkeypatch):
        f = cons.random_unit(2, 3, 61, field="complex")
        cands = _unit_rows(np.random.default_rng(61), 30, 2, True)
        whole = geometry.classify_batch(geometry.prepare(f), cands)
        monkeypatch.setattr(geometry, "STACK_ENTRIES", 7 * 16)  # slices of 7 bordered Grams
        sliced = geometry.classify_batch(geometry.prepare(f), cands)
        np.testing.assert_array_equal(sliced.elliptic_value, whole.elliptic_value)
        np.testing.assert_array_equal(sliced.dependent, whole.dependent)
        exact = geometry._inverse_gram_form
        monkeypatch.setattr(geometry, "_inverse_gram_form",
                            lambda os_, tv: exact(os_, tv) + np.where(np.arange(30) == 23, 1e-6, 0.0))
        with pytest.raises(InternalInconsistency, match="candidate 23"):
            geometry.classify_batch(geometry.prepare(f), cands)

    def test_values_match_lapack_solve(self):
        f = cons.random_unit(3, 5, 60, field="complex")
        cands = _unit_rows(np.random.default_rng(60), 200, 3, True)
        batch = geometry.classify_batch(geometry.prepare(f), cands)
        np.testing.assert_allclose(batch.elliptic_value,
                                   elliptic_values_solve(f.vectors, cands), rtol=1e-12)

    def test_batch_validation(self):
        prep = geometry.prepare(cons.orthonormal(3))
        cands = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        with pytest.raises(NotUnitNorm):
            geometry.classify_batch(prep, cands)
        with pytest.raises(NotUnitNorm):
            geometry.classify_batch(prep, [[np.nan, 0.0, 0.0]])
        with pytest.raises(ShapeMismatch):
            geometry.classify_batch(prep, [1.0, 0.0, 0.0])
        with pytest.raises(BadParam):
            geometry.classify_batch(prep, [[1j, 0.0, 0.0]])
        assert len(geometry.classify_batch(prep, np.zeros((0, 3))).dependent) == 0


class TestProbe:
    def test_eij_bases(self):
        assert geometry.mu2_subset_mu4_probe(cons.eij_basis(2), 100, 7) <= 1e-8
        assert geometry.mu2_subset_mu4_probe(cons.eij_basis(3), 50, 8) <= 1e-8

    def test_biangular_4_reordered_prefix(self):
        assert geometry.mu2_subset_mu4_probe(cons.biangular(4), 50, 9) <= 1e-8

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            geometry.mu2_subset_mu4_probe(cons.orthonormal(2), 10, 0)
        with pytest.raises(RankDeficient):
            geometry.mu2_subset_mu4_probe(cons.biangular(3), 10, 0)

    def test_per_sample_rank_oracle(self):
        # each sampled candidate really does extend dependently
        f = cons.eij_basis(2)
        a = analysis(f)
        rng = np.random.default_rng(56)
        for _ in range(10):
            psi = random_unit_vec(rng, 2, False)
            assert geometry.quartic_residual(f, a @ psi) <= 1e-10
            ext = Frame.from_vectors(np.vstack([f.vectors, psi]))
            assert outer.induce(ext).rank == 3


def test_independent_prefix_greedy():
    f = cons.biangular(3)
    prefix = geometry.independent_prefix(f)
    assert len(prefix) == 3
    assert outer.induce(f.subframe(prefix)).rank == 3
