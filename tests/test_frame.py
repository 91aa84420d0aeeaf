import numpy as np
import pytest

from framekit import constructions as cons
from framekit import frame as fr
from framekit.errors import BadParam, NotAFrame, NotIndependent, NotUnitNorm

from oracles import eig_desc, eigvals_2x2_symmetric, random_unit_vec


def doubled_e1():
    return fr.Frame.from_vectors(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def random_frame(rng, n, m, cplx=False):
    v = rng.standard_normal((m, n))
    if cplx:
        v = v + 1j * rng.standard_normal((m, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return fr.Frame.from_vectors(v)


def test_frame_validation():
    with pytest.raises(BadParam):
        fr.Frame(field="quaternion", vectors=np.eye(2))
    with pytest.raises(BadParam):
        fr.Frame(field="real", vectors=np.array([[1.0 + 1j, 0.0]]))
    f = fr.Frame(field="real", vectors=np.array([[1.0 + 0j, 0.0]]))
    assert f.vectors.dtype == np.float64


def test_frame_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(BadParam):
            fr.Frame(field="real", vectors=np.array([[1.0, bad]]))
        with pytest.raises(BadParam):
            fr.Frame(field="complex", vectors=np.array([[1.0, complex(0.0, bad)]]))


def test_frame_rejects_vectors_whose_outer_gram_overflows():
    for big in (1e308, 1e100):  # squared norms overflow; their squares overflow
        with pytest.raises(BadParam):
            fr.Frame(field="real", vectors=np.array([[big, big], [0.0, 1.0]]))
        with pytest.raises(BadParam):
            fr.Frame(field="complex", vectors=np.array([[complex(big, big), 0.0]]))
    assert fr.Frame(field="real", vectors=np.array([[1e30, 0.0]])).m == 1
    # (sum_i |phi_i|^2)^2 bounds the outer Gram's Frobenius norm; its square must be finite
    edge = np.finfo(np.float64).max ** 0.25
    for m in (1, 3, 7):
        for scale, ok in ((0.9999, True), (1.0001, False)):
            norm = np.sqrt(scale * edge / m)
            vectors = np.zeros((m, 3))
            vectors[np.arange(m), np.arange(m) % 3] = norm
            vectors[0] = [norm / np.sqrt(2), norm / np.sqrt(2), 0.0]
            if ok:
                assert fr.Frame(field="real", vectors=vectors).m == m
            else:
                with pytest.raises(BadParam):
                    fr.Frame(field="real", vectors=vectors)


def test_synthesis_columns():
    np.testing.assert_array_equal(fr.synthesis(cons.orthonormal(2)), np.eye(2))
    f = fr.Frame.from_vectors(np.array([[1.0, 0.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(fr.synthesis(f), [[1.0, 1.0], [0.0, 0.0]])
    s = cons.simplex(2)
    t = fr.synthesis(s)
    assert t.shape == (2, 3)
    np.testing.assert_allclose(np.linalg.norm(t, axis=0), 1.0, atol=1e-12)
    g = t.T @ t
    np.testing.assert_allclose(g[~np.eye(3, dtype=bool)], -0.5, atol=1e-12)


def test_analysis_inner_products():
    np.testing.assert_array_equal(fr.analysis(cons.orthonormal(3)), np.eye(3))
    f = cons.orthonormal(2)
    np.testing.assert_allclose(fr.analysis(f) @ [3.0, 4.0], [3.0, 4.0])
    # complex adjoint: entries <psi, phi_i>
    g = fr.Frame.from_vectors(np.array([[1.0, 1j]]) / np.sqrt(2))
    psi = np.array([1.0, 0.0], dtype=complex)
    np.testing.assert_allclose(fr.analysis(g) @ psi, [1 / np.sqrt(2)])


def test_analysis_norm_between_frame_bounds():
    rng = np.random.default_rng(21)
    for _ in range(25):
        f = random_frame(rng, 3, 5)
        psi = random_unit_vec(rng, 3, False)
        w = eig_desc(fr.frame_operator(f))
        val = np.linalg.norm(fr.analysis(f) @ psi) ** 2
        assert w[-1] - 1e-10 <= val <= w[0] + 1e-10


def test_frame_operator():
    np.testing.assert_allclose(fr.frame_operator(cons.orthonormal(2)), np.eye(2))
    np.testing.assert_allclose(fr.frame_operator(doubled_e1()), np.diag([2.0, 1.0]))
    # unit-norm tight frame: trace forces S = (M/N) I
    s = fr.frame_operator(cons.simplex(2))
    np.testing.assert_allclose(s, 1.5 * np.eye(2), atol=1e-12)


def test_gram():
    np.testing.assert_allclose(fr.gram(cons.orthonormal(3)), np.eye(3))
    g = fr.gram(cons.epsilon_pair(0.25))
    np.testing.assert_allclose(g, [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)


def test_gram_and_frame_operator_share_nonzero_spectrum():
    rng = np.random.default_rng(22)
    for cplx in (False, True):
        for _ in range(10):
            f = random_frame(rng, 3, 5, cplx)
            ws = eig_desc(fr.frame_operator(f))
            wg = eig_desc(fr.gram(f))
            np.testing.assert_allclose(wg[:3], ws, atol=1e-9)
            np.testing.assert_allclose(wg[3:], 0.0, atol=1e-9)


def test_frame_bounds():
    b = fr.frame_bounds(cons.orthonormal(2))
    assert (b.lower, b.upper, b.parseval) == (1.0, 1.0, True)
    b = fr.frame_bounds(cons.simplex(3))
    assert b.tight and abs(b.upper - 4 / 3) < 1e-12
    b = fr.frame_bounds(doubled_e1())
    assert (b.lower, b.upper) == (1.0, 2.0) and not b.tight
    with pytest.raises(NotAFrame):
        fr.frame_bounds(fr.Frame.from_vectors(np.array([[1.0, 0.0]])))


def test_riesz_bounds():
    b = fr.riesz_bounds(cons.orthonormal(2))
    assert (b.lower, b.upper) == (1.0, 1.0)
    b = fr.riesz_bounds(cons.epsilon_pair(0.25))
    assert abs(b.lower - 0.5) < 1e-10 and abs(b.upper - 1.5) < 1e-10
    # closed-form 2x2 oracle for an arbitrary correlation
    c = 0.3
    f = fr.Frame.from_vectors(np.array([[1.0, 0.0], [c, np.sqrt(1 - c * c)]]))
    hi, lo = eigvals_2x2_symmetric(1.0, c, 1.0)
    b = fr.riesz_bounds(f)
    assert abs(b.lower - lo) < 1e-12 and abs(b.upper - hi) < 1e-12
    with pytest.raises(NotIndependent):
        fr.riesz_bounds(doubled_e1())


def test_frame_potential():
    assert fr.frame_potential(cons.orthonormal(4)) == pytest.approx(4.0)
    assert fr.frame_potential(cons.simplex(2)) == pytest.approx(4.5, abs=1e-12)
    two = fr.Frame.from_vectors(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert fr.frame_potential(two) == pytest.approx(4.0)


def test_frame_potential_floor_with_tightness():
    rng = np.random.default_rng(23)
    for _ in range(30):
        f = random_frame(rng, 2, 4)
        fp = fr.frame_potential(f)
        assert fp >= 4.0 ** 2 / 2 - 1e-9
    fp = fr.frame_potential(cons.biangular(4))
    m = cons.biangular(4).m
    assert abs(fp - m * m / 4) < 1e-9  # tight, so the floor is attained


def test_reconstruct():
    f = cons.orthonormal(3)
    psi = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(fr.reconstruct(f, psi), psi)
    s = cons.simplex(2)
    np.testing.assert_allclose(fr.reconstruct(s, [1.0, 2.0]), [1.0, 2.0], atol=1e-9)
    rng = np.random.default_rng(24)
    for cplx in (False, True):
        f = random_frame(rng, 3, 5, cplx)
        psi = random_unit_vec(rng, 3, cplx) * 3.0
        # direct solve oracle: S^{-1} psi through numpy, then resynthesize
        s = fr.frame_operator(f)
        want = fr.synthesis(f) @ (fr.analysis(f) @ np.linalg.solve(s, psi))
        got = fr.reconstruct(f, psi)
        np.testing.assert_allclose(got, psi, atol=1e-9 * np.linalg.norm(psi))
        np.testing.assert_allclose(got, want, atol=1e-9)
    with pytest.raises(NotAFrame):
        fr.reconstruct(fr.Frame.from_vectors(np.array([[1.0, 0.0]])), [1.0, 1.0])


def test_is_equiangular():
    assert fr.is_equiangular(cons.simplex(3)) == pytest.approx(1 / 9, abs=1e-12)
    assert fr.is_equiangular(cons.orthonormal(3)) == 0.0
    mixed = fr.Frame.from_vectors(np.array([
        [1.0, 0.0], [1 / np.sqrt(2), 1 / np.sqrt(2)], [0.0, 1.0]]))
    assert fr.is_equiangular(mixed) is None
    with pytest.raises(NotUnitNorm):
        fr.is_equiangular(fr.Frame.from_vectors(np.array([[2.0, 0.0]])))


def test_unit_norm_trace_identity():
    rng = np.random.default_rng(25)
    for _ in range(10):
        f = random_frame(rng, 3, 6)
        assert abs(np.trace(fr.gram(f)).real - f.m) <= 1e-10
