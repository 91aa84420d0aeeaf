"""The incremental greedy scan against the per-trial re-induce loops.

``outer.independent_prefix``, ``outer.dependence_certificate`` and
``perturb.nudge_to_independence`` decide each greedy step by one bordered
Schur test, and fall back to the eig rule only near the rank threshold;
their prefixes, certificates and nudged frames must equal, bit for bit,
those of the loops in ``scan_reference`` on every input here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import constructions as cons
from framekit import outer, perturb, verify
from framekit.errors import InternalInconsistency
from framekit.frame import Frame

import scan_reference


def _certificate_bytes(cert):
    if cert is None:
        return None
    return cert.coefficients.tobytes(), cert.residual, cert.split


def _assert_prefix_and_certificate(f):
    assert outer.independent_prefix(f) == scan_reference.independent_prefix(f)
    os_ = outer.induce(f)
    assert _certificate_bytes(outer.dependence_certificate(os_)) == \
        _certificate_bytes(scan_reference.dependence_certificate(os_))


def _nudge_outcome(nudge, f, eps):
    try:
        g = nudge(f, eps)
    except InternalInconsistency as exc:
        return str(exc)
    return g is f, g.field, g.vectors.tobytes()


def _assert_nudge(f, eps):
    assert _nudge_outcome(perturb.nudge_to_independence, f, eps) == \
        _nudge_outcome(scan_reference.nudge_to_independence, f, eps)


def _perfbench_shaped(seed, n, m, dups, cplx):
    """m - dups random unit vectors, then dups copies of earlier ones times a
    sign or a phase, as the benchmark's nudge inputs are built."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((m - dups, n))
    if cplx:
        v = v + 1j * rng.standard_normal((m - dups, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    src = rng.choice(m - dups, size=dups, replace=False)
    flips = np.exp(2j * np.pi * rng.random(dups)) if cplx else -np.ones(dups)
    return Frame.from_vectors(np.vstack([v, v[src] * flips[:, None]]))


def test_nudge_repair_corpus():
    for f in verify._random_dependent_frames(200):
        _assert_prefix_and_certificate(f)
        for eps in (0.1, 0.01):
            _assert_nudge(f, eps)


@pytest.mark.parametrize("n, m, dups, cplx", [(8, 35, 3, False), (10, 54, 5, False),
                                              (4, 15, 4, True)])
def test_perfbench_shaped_dependent_frames(n, m, dups, cplx):
    for seed in range(1, 11):
        f = _perfbench_shaped(seed, n, m, dups, cplx)
        _assert_prefix_and_certificate(f)
        _assert_nudge(f, 0.1)


@pytest.mark.parametrize("n", [3, 4])
def test_biangular(n):
    f = cons.biangular(n)
    _assert_prefix_and_certificate(f)
    _assert_nudge(f, 0.1)


def test_near_parallel_pair():
    f = Frame.from_vectors(np.array([[1.0, 0.0], [np.cos(1e-8), np.sin(1e-8)]]))
    assert outer.independent_prefix(f) == (0,)
    _assert_prefix_and_certificate(f)
    _assert_nudge(f, 0.1)


def test_underflowing_and_zero_vectors():
    for rows in ([[1e-160]], [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]]):
        f = Frame.from_vectors(np.array(rows))
        _assert_prefix_and_certificate(f)
    assert outer.independent_prefix(Frame.from_vectors(np.array([[1e-160]]))) == ()


@pytest.mark.parametrize("tol", ["1e-3", "0"])
def test_env_threshold(monkeypatch, tol):
    # at 1e-3 the nearly parallel pair and the close random vectors are
    # rejected, where the default threshold keeps them
    f = Frame.from_vectors(np.vstack([cons.epsilon_pair(0.9999).vectors,
                                      cons.random_unit(2, 1, 3).vectors]))
    default = outer.independent_prefix(f)
    monkeypatch.setenv("FRAMEKIT_TOL", tol)
    if tol != "0":
        assert outer.independent_prefix(f) != default
    _assert_prefix_and_certificate(f)
    _assert_nudge(f, 0.1)
    _assert_nudge(_perfbench_shaped(3, 3, 6, 1, False), 0.1)


def test_both_branches_run(monkeypatch):
    # one planted copy: it is the only step the eig rule decides, and every
    # other step is certified without an eigendecomposition
    trials = []
    spectra = outer._outer_spectra

    def counted(v):
        trials.append(len(v))
        return spectra(v)

    monkeypatch.setattr(outer, "_outer_spectra", counted)
    f = _perfbench_shaped(1, 8, 35, 1, False)
    assert outer.independent_prefix(f) == tuple(range(34))
    assert trials == [35]
    # at FRAMEKIT_TOL = 1e-7 the second vector's Schur complement,
    # 1 - 0.999^2 = 2e-3, is inside the margin 2^20 * 1e-7 = 0.1: the eig
    # rule keeps it, and then decides every later step
    trials.clear()
    monkeypatch.setenv("FRAMEKIT_TOL", "1e-7")
    g = Frame.from_vectors(np.vstack([cons.epsilon_pair(0.999).vectors, [[0.6, 0.8]]]))
    assert outer.independent_prefix(g) == (0, 1, 2)
    assert trials == [2, 3]


_PLANTS = st.sampled_from(["negated", "phased", "scaled"])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 4), cplx=st.booleans(),
       plants=st.lists(st.tuples(_PLANTS, st.integers(0, 100)), min_size=1, max_size=3))
def test_planted_copies_property(seed, n, cplx, plants):
    field = "complex" if cplx else "real"
    d = n * n if cplx else n * (n + 1) // 2
    base = cons.random_unit(n, max(1, d - len(plants)), seed, field).vectors
    rows = list(base)
    unit = True
    for kind, at in plants:
        src = rows[at % len(rows)]
        if kind == "negated":
            rows.insert(at % (len(rows) + 1), -src)
        elif kind == "phased":
            rows.insert(at % (len(rows) + 1), src * (np.exp(0.7j) if cplx else -1.0))
        else:
            rows.insert(at % (len(rows) + 1), 3.0 * src)
            unit = False
    f = Frame(field=field, vectors=np.array(rows))
    _assert_prefix_and_certificate(f)
    if unit and f.m <= d:
        _assert_nudge(f, 0.1)
