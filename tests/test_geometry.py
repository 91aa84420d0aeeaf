import numpy as np
import pytest

from framekit import constructions as cons
from framekit import geometry, matcore, outer
from framekit.frame import Frame, analysis
from framekit.rng import Stream, unit_vectors
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
        # a leak of 1e-6 beside unit coefficients: its square exceeds tol^2
        assert geometry.admissible_coefficients(ext, [np.sqrt(2.0), 0.0, 1e-6]) is None

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
        with pytest.raises(NotIndependent):
            geometry.quartic_residual(f, [1.0, 1.0])

    @pytest.mark.parametrize("vectors", [[[0.0, 0.0]], [[1e-160, 0.0], [0.0, 1e-160]]])
    def test_frame_without_a_nonzero_outer_product_names_the_cause(self, vectors):
        # the greedy prefix is empty (|phi|^4 underflows in the second):
        # every classifier entry point says so, not a shape error of the
        # empty prefix
        f = Frame.from_vectors(np.array(vectors))
        calls = [lambda: geometry.classify(f, [1.0, 0.0]),
                 lambda: geometry.classify_batch(geometry.prepare(f), np.eye(2)),
                 lambda: geometry.elliptic_value(f, [1.0, 0.0]),
                 lambda: geometry.quartic_residual(f, np.ones(f.m)),
                 lambda: geometry.mu2_subset_mu4_probe(f, 3, 1)]
        for call in calls:
            with pytest.raises(NotIndependent, match="no outer product of the frame is nonzero"):
                call()


class TestQuarticAndEllipsoid:
    def test_quartic_examples(self):
        f = cons.orthonormal(2)
        assert geometry.quartic_residual(f, [1.0, 0.0]) == pytest.approx(0.0)
        assert geometry.quartic_residual(
            f, np.array([1.0, 1.0]) / np.sqrt(2)) == pytest.approx(0.5)
        for bad in ([np.nan, 0.0], [1e200, 0.0]):
            with pytest.raises(BadParam, match="finite squared moduli"):
                geometry.quartic_residual(f, bad)

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
        assert geometry.ellipsoid_residual(s, tv + 1e-6 * outside) == np.inf

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


    @staticmethod
    def equilibrated_values(f, w):
        """(D w)^T (D G D)^{-1} (D w) for the rows of w, written out from the
        outer Gram G of f and D = diag(G_ii^{-1/2})."""
        g = outer.induce(f).gram_op
        d = 1.0 / np.sqrt(np.diagonal(g))
        sd = matcore.hermitian_eig(d[:, None] * g * d[None, :])
        y = (w * d) @ sd.eigenvectors
        return np.sum(y ** 2 / sd.eigenvalues, axis=-1)

    @pytest.mark.parametrize("field, n, m, seed", [("real", 3, 5, 78), ("complex", 2, 3, 78),
                                                   ("real", 3, 6, 1203), ("complex", 2, 4, 5)])
    def test_every_formula_reads_the_equilibrated_spectrum(self, field, n, m, seed):
        # norms over 10^-1.5..10^1.5: values from the unscaled outer Gram
        # move by up to 1e-9 (elliptic) and 3e-6 (probe) on these frames
        f = cons.random_unit(n, m, seed, field=field)
        graded = Frame(field=field, vectors=f.vectors * 10.0 ** np.linspace(-1.5, 1.5, m)[:, None])
        assert outer.induce(graded).rank == m
        if m < outer.ambient_outer_dim(f):
            for c in _unit_rows(np.random.default_rng(seed), 10, n, field == "complex"):
                value = geometry.elliptic_value(graded, c)
                assert value == geometry.classify(graded, c).elliptic_value
                tv = analysis(graded) @ c
                assert value == self.equilibrated_values(graded, np.abs(tv[None]) ** 2)[0]
                assert geometry.quartic_residual(graded, tv) == abs(value - 1.0)
        else:
            psi = unit_vectors(Stream(3), 50, n, field == "complex")
            w = np.abs(psi @ analysis(graded).T) ** 2
            worst = np.max(np.abs(self.equilibrated_values(graded, w) - 1.0))
            assert geometry.mu2_subset_mu4_probe(graded, 50, 3) == worst


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

    def test_quartic_and_probe_values_are_cross_checked(self, monkeypatch):
        # every route to an elliptic value checks it against its bordered Gram
        f = cons.random_unit(2, 3, 61, field="complex")
        tv = analysis(f) @ _unit_rows(np.random.default_rng(62), 1, 2, True)[0]
        probe = cons.eij_basis(2)
        geometry.quartic_residual(f, tv)
        geometry.mu2_subset_mu4_probe(probe, 30, 7)
        exact = geometry._inverse_gram_form

        def shift(at):
            monkeypatch.setattr(geometry, "_inverse_gram_form", lambda sd, w: exact(sd, w)
                                + np.where(np.arange(w.shape[-2]) == at, 1e-6, 0.0))

        shift(0)
        with pytest.raises(InternalInconsistency, match="candidate 0"):
            geometry.quartic_residual(f, tv)
        shift(23)
        with pytest.raises(InternalInconsistency, match="candidate 23"):
            geometry.mu2_subset_mu4_probe(probe, 30, 7)

    def test_values_match_lapack_solve(self):
        # the last two at the shapes of the benchmark's analyze frames
        for f in (cons.random_unit(3, 5, 60, field="complex"), cons.random_unit(12, 77, 5),
                  cons.random_unit(8, 63, 5, field="complex")):
            cands = _unit_rows(np.random.default_rng(60), 200, f.n, f.field == "complex")
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


class TestStackedPsdExtension:
    """A PsdExtension over a stack of matrices sharing i_plus gives, row for
    row and bit for bit, what each matrix's own extension gives."""

    @pytest.mark.parametrize("cplx", [False, True])
    def test_rows_equal_single_extensions(self, cplx):
        rng = np.random.default_rng(53 + cplx)
        for n, r in ((2, 1), (3, 3), (5, 2), (8, 5)):
            ts = np.array([random_psd(rng, n, r, cplx) for _ in range(12)])
            singles = [geometry.psd_extension(t) for t in ts]
            assert all(e.i_plus == tuple(range(r)) for e in singles)
            sd = matcore.hermitian_eig(ts)
            assert not geometry._psd_violations(sd.eigenvalues).any()
            assert (geometry._positive_eigenvalues(sd.eigenvalues, (n, n)).sum(axis=1) == r).all()
            ext = geometry.PsdExtension(t=ts, spectrum=sd, i_plus=tuple(range(r)))
            a = np.array([random_unit_vec(rng, r, cplx) for _ in ts])
            v = geometry.admissible_vector(ext, a)
            t_rank = geometry._border_rank(ts)
            for i, e in enumerate(singles):
                assert v[i].tobytes() == geometry.admissible_vector(e, a[i]).tobytes()
                assert t_rank[i] == geometry._border_rank(ts[i])
            leak = v + 0.5 * sd.eigenvectors[..., -1]  # a kernel leak when r < n
            for x in (v, 1.5 * v, leak):
                back = geometry.admissible_coefficients(ext, x)
                ranks = geometry._border_rank(geometry.bordered(ts, x))
                for i, e in enumerate(singles):
                    one = geometry.admissible_coefficients(e, x[i])
                    if one is None:
                        assert np.isnan(back[i]).all()
                    else:
                        assert back[i].tobytes() == one.tobytes()
                    assert geometry.bordered(ts, x)[i].tobytes() == \
                        geometry.bordered(ts[i], x[i]).tobytes()
                    assert (ranks[i] == t_rank[i]) == geometry.extension_rank_preserved(ts[i], x[i])

    def test_psd_rule_on_a_stack(self):
        w = np.array([[2.0, 1.0, 0.0], [1.0, 0.0, -1e-3], [0.0, 0.0, -1e-300]])
        np.testing.assert_array_equal(geometry._psd_violations(w), [False, True, True])
        with pytest.raises(NotPsd, match="-0.001"):
            geometry._checked_psd(w)
        geometry._checked_psd(w[:1])


class TestPrepareBatch:
    """prepare_batch and classify_frames against prepare and classify, frame
    by frame."""

    @staticmethod
    def frames(n, m, field, count, seed, planar=()):
        out = [cons.random_unit(n, m, seed + i, field=field) for i in range(count)]
        for i in planar:  # vectors in a plane: independent outers, no span
            v = out[i].vectors.copy()
            v[:, -1] = 0.0
            out[i] = Frame(field=field, vectors=v / np.linalg.norm(v, axis=1, keepdims=True))
        return out

    @staticmethod
    def stack(frames):
        return np.stack([f.vectors for f in frames])

    @pytest.mark.parametrize("n, m, field", [(2, 2, "real"), (3, 4, "real"), (3, 2, "real"),
                                             (3, 3, "real"), (2, 3, "complex"), (3, 5, "complex")])
    def test_bit_for_bit_equal_to_prepare(self, n, m, field):
        frames = self.frames(n, m, field, 9, 6000 + 10 * n + m, planar=(0, 4))
        batch = outer.induce_batch(self.stack(frames))
        keep = np.flatnonzero(batch.independent)
        assert len(keep) >= 7
        prep = geometry.prepare_batch(batch.take(keep))
        for j, i in enumerate(keep):
            one = geometry.prepare(frames[i])
            assert one.permutation is None
            assert bool(prep.spans[j]) == bool(one.spans[0])
            pairs = [(prep.outer.vectors[j], one.outer.vectors[0]), (prep.scale[j], one.scale[0]),
                     (prep.scaled_gram[j], one.scaled_gram[0])]
            pairs += [(getattr(sd, a)[j], getattr(one_sd, a)[0])
                      for sd, one_sd in ((prep.scaled_spectrum, one.scaled_spectrum),
                                         (prep.vector_gram, one.vector_gram))
                      for a in ("eigenvalues", "eigenvectors")]
            for got, want in pairs:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_spans_under_env_rank_tolerance(self, monkeypatch):
        frames = self.frames(3, 3, "real", 6, 6100)
        frames[2] = Frame(field="real", vectors=frames[2].vectors * [[1.0], [1.0], [1e-4]])
        monkeypatch.setenv("FRAMEKIT_TOL", "1e-3")
        batch = outer.induce_batch(self.stack(frames))
        prep = geometry.prepare_batch(batch.take(np.flatnonzero(batch.independent)))
        keep = [f for f, ok in zip(frames, batch.independent) if ok]
        assert list(prep.spans) == [geometry.prepare(f).spans for f in keep]

    def test_dependent_member_rejected(self):
        frames = self.frames(2, 3, "real", 3, 6200)
        v = frames[1].vectors
        frames[1] = Frame(field="real", vectors=np.vstack([v[:2], -v[:1]]))  # a repeated outer
        batch = outer.induce_batch(self.stack(frames))
        assert not batch.independent[1]
        with pytest.raises(NotIndependent, match="frame 1"):
            geometry.prepare_batch(batch)

    @pytest.mark.parametrize("n, m, field", [(3, 3, "real"), (3, 5, "real"), (2, 3, "complex")])
    def test_classify_frames_equals_classify(self, n, m, field):
        frames = self.frames(n, m, field, 40, 6300 + m, planar=(3, 17) if m == n else ())
        rng = np.random.default_rng(63)
        cands = _unit_rows(rng, len(frames), n, field == "complex")
        cands[::5] = [f.vectors[1] for f in frames[::5]]  # exact dependent extensions
        prep = geometry.prepare_batch(outer.induce_batch(self.stack(frames)))
        result, disagrees = geometry.classify_frames(prep, cands)
        assert not disagrees.any()
        assert result.dependent[::5].all()
        for i, f in enumerate(frames):
            one = geometry.classify(f, cands[i])
            rep = result.report(i)
            assert (rep.verdict, rep.permutation) == (one.verdict, one.permutation)
            assert rep.tv.tobytes() == one.tv.tobytes()
            for name in ("elliptic_value", "quartic_value", "ellipsoid_residual"):
                assert np.array_equal(getattr(rep, name), getattr(one, name), equal_nan=True)

    def test_a_disagreement_hides_no_other_candidate(self, monkeypatch):
        frames = self.frames(3, 4, "real", 12, 6400)
        cands = _unit_rows(np.random.default_rng(64), 12, 3, False)
        prep = geometry.prepare_batch(outer.induce_batch(self.stack(frames)))
        exact, _ = geometry.classify_frames(prep, cands)
        shifted = geometry._inverse_gram_form
        monkeypatch.setattr(geometry, "_inverse_gram_form", lambda sd, w: shifted(sd, w) + np.where(
            np.arange(len(w))[:, None] % 5 == 3, 1e-6, 0.0))
        result, disagrees = geometry.classify_frames(prep, cands)
        np.testing.assert_array_equal(disagrees, np.arange(12) % 5 == 3)
        np.testing.assert_array_equal(result.dependent, exact.dependent)
        np.testing.assert_array_equal(result.elliptic_value[disagrees],
                                      exact.elliptic_value[disagrees] + 1e-6)

    def test_validation(self):
        frames = self.frames(3, 4, "real", 3, 6500)
        prep = geometry.prepare_batch(outer.induce_batch(self.stack(frames)))
        with pytest.raises(ShapeMismatch, match="2 candidates for 3 frames"):
            geometry.classify_frames(prep, np.eye(3)[:2])
        with pytest.raises(ShapeMismatch, match="one prepared frame, got 3"):
            geometry.classify_batch(prep, np.eye(3)[:1])
        with pytest.raises(NotUnitNorm):
            geometry.classify_frames(prep, 2.0 * np.eye(3))
        frames = self.frames(2, 3, "real", 2, 6600)
        too_many = geometry.prepare_batch(outer.induce_batch(self.stack(frames)))
        with pytest.raises(TooMany):
            geometry.classify_frames(too_many, np.eye(2))
