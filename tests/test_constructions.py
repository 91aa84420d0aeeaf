import json

import numpy as np
import pytest

from framekit import cli, constructions as cons
from framekit import outer
from framekit.errors import BadParam
from framekit.frame import frame_bounds, gram, is_equiangular
from framekit.rng import Stream

from oracles import eig_desc


def test_orthonormal():
    f = cons.orthonormal(1)
    np.testing.assert_array_equal(f.vectors, [[1.0]])
    np.testing.assert_array_equal(cons.orthonormal(2).vectors, np.eye(2))
    np.testing.assert_array_equal(outer.induce(cons.orthonormal(3)).gram_op, np.eye(3))


def test_eij_basis():
    f = cons.eij_basis(2)
    np.testing.assert_allclose(f.vectors, [
        [1.0, 0.0], [0.0, 1.0], [1 / np.sqrt(2), 1 / np.sqrt(2)]])
    assert cons.eij_basis(1).vectors.tolist() == [[1.0]]
    assert outer.induce(cons.eij_basis(3)).rank == 6


def test_eij_ordering_diagonal_first_then_lexicographic():
    f = cons.eij_basis(3)
    eye = np.eye(3)
    np.testing.assert_array_equal(f.vectors[:3], eye)
    np.testing.assert_allclose(f.vectors[3], (eye[0] + eye[1]) / np.sqrt(2))
    np.testing.assert_allclose(f.vectors[4], (eye[0] + eye[2]) / np.sqrt(2))
    np.testing.assert_allclose(f.vectors[5], (eye[1] + eye[2]) / np.sqrt(2))


def test_complex_eij_basis():
    f = cons.complex_eij_basis(2)
    assert f.m == 4 and f.field == "complex"
    assert outer.induce(f).rank == 4
    # the added vector's outer product has -i at (1,2) and +i at (2,1)
    e12 = np.outer(f.vectors[3], f.vectors[3].conj())
    np.testing.assert_allclose(e12, [[0.5, -0.5j], [0.5j, 0.5]], atol=1e-15)
    assert cons.complex_eij_basis(1).m == 1


def test_simplex():
    np.testing.assert_allclose(cons.simplex(1).vectors, [[1.0], [-1.0]])
    for n in (2, 3, 5):
        f = cons.simplex(n)
        assert f.is_unit_norm
        g = gram(f)
        np.testing.assert_allclose(g[~np.eye(n + 1, dtype=bool)], -1 / n, atol=1e-12)
        b = frame_bounds(f)
        assert b.tight and abs(b.upper - (n + 1) / n) < 1e-10
        assert is_equiangular(f) == pytest.approx(1 / n ** 2, abs=1e-12)


def test_simplex_closed_form():
    s3, half = np.sqrt(3.0) / 2.0, 0.5
    np.testing.assert_allclose(cons.simplex(2).vectors,
                               [[s3, half], [-s3, half], [0.0, -1.0]], atol=1e-15)
    for n in range(1, 7):
        g = gram(cons.simplex(n))
        np.testing.assert_allclose(np.diag(g), 1.0, atol=1e-14)
        np.testing.assert_allclose(g[~np.eye(n + 1, dtype=bool)], -1 / n, atol=1e-14)


def test_simplex_outer_spectrum_two_values():
    for n in (2, 3, 4):
        m = n + 1
        c = (m - n) / (n * (m - 1))
        w = eig_desc(outer.induce(cons.simplex(n)).gram_op)
        np.testing.assert_allclose(w, [1 + (m - 1) * c] + [1 - c] * (m - 1), atol=1e-9)


def test_biangular():
    with pytest.raises(BadParam):
        cons.biangular(1)
    for n in (2, 4, 5):
        f = cons.biangular(n)
        assert f.m == (n + 1) * n // 2 and f.is_unit_norm
        assert frame_bounds(f).tight
        w = eig_desc(outer.induce(f).gram_op)
        assert abs(w[0] - (n + 1) / 2) < 1e-9
    assert outer.induce(cons.biangular(3)).rank < 6
    assert abs(eig_desc(outer.induce(cons.biangular(2)).gram_op)[-1] - 0.75) < 1e-9


def test_epsilon_pair():
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(BadParam):
            cons.epsilon_pair(bad)
    f = cons.epsilon_pair(0.25)
    np.testing.assert_allclose(gram(f), [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)


def test_random_unit_deterministic():
    a = cons.random_unit(2, 3, 42)
    b = cons.random_unit(2, 3, 42)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    assert not np.array_equal(a.vectors, cons.random_unit(2, 3, 43).vectors)
    np.testing.assert_allclose(np.linalg.norm(a.vectors, axis=1), 1.0, atol=1e-12)
    c = cons.random_unit(3, 4, 7, field="complex")
    assert c.field == "complex"
    np.testing.assert_allclose(np.linalg.norm(c.vectors, axis=1), 1.0, atol=1e-12)


def _random_unit_per_stream(n, m, seed, field):
    # one stream per seed, as random_unit drew before seeds were vectorised
    stream = Stream(seed)
    v = stream.complex_normals(m * n) if field == "complex" else stream.normals(m * n)
    v = v.reshape(m, n)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


@pytest.mark.parametrize("n, m, field", [
    (1, 1, "real"), (2, 3, "real"), (3, 5, "real"), (4, 2, "real"),
    (1, 2, "complex"), (2, 2, "complex"), (3, 4, "complex"), (5, 3, "complex"),
])
def test_random_unit_stack_equals_one_stream_per_seed(n, m, field):
    seeds = range(1000)
    block = cons.random_unit_stack(n, m, seeds, field)
    assert block.shape == (1000, m, n)
    for seed, v in zip(seeds, block):
        assert v.tobytes() == _random_unit_per_stream(n, m, seed, field).tobytes()
    for seed in seeds[::97]:
        assert cons.random_unit(n, m, seed, field).vectors.tobytes() == block[seed].tobytes()


def test_random_unit_outers_independent_at_feasible_sizes():
    # worked check of the density claim at small scale
    bad = 0
    for seed in range(300):
        f = cons.random_unit(2, 3, seed)
        if outer.induce(f).rank < 3:
            bad += 1
    assert bad == 0


def test_construction_spec_round_trip(capsys):
    # the construction record that framekit construct writes rebuilds its frame
    assert cli.main(["construct", "random-unit", "--n", "3", "--m", "5", "--seed", "9"]) == 0
    spec = json.loads(capsys.readouterr().out)["construction"]
    assert spec == {"kind": "random_unit", "n": 3, "m": 5, "seed": 9, "field": "real"}
    f = cons.build(**spec)
    assert (f.n, f.m) == (3, 5)
    np.testing.assert_array_equal(f.vectors, cons.random_unit(3, 5, 9).vectors)
    with pytest.raises(BadParam):
        cons.build("mystery", 2)
