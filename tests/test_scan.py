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
from framekit.errors import (BadParam, InternalInconsistency, NotUnitNorm, ShapeMismatch,
                             TooMany)
from framekit.frame import Frame, field_of

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


#: Where no basis member grows the span, the budget is below what the rank
#: rule resolves: the reference loop raises InternalInconsistency with the
#: first message, the package BadParam with one that holds the second.
_NO_MEMBER = "no basis member grew the outer span"
_UNRESOLVED = "no nearby basis member grows the span"
#: Where FRAMEKIT_TOL is too coarse for the nearby basis, both sides raise
#: this BadParam from the one ``perturb.nearby_independent_basis``.
_TOO_COARSE = "is too coarse to resolve the nearby independent basis"


def _nudge_outcome(nudge, f, eps):
    try:
        g = nudge(f, eps)
    except InternalInconsistency as exc:
        return str(exc)
    except BadParam as exc:
        if _TOO_COARSE in str(exc):
            return str(exc)
        if _UNRESOLVED not in str(exc):
            raise
        return _NO_MEMBER
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


def _nudge_repair_corpus() -> list:
    """The frames of ``verify``'s nudge-repair corpus, in case order."""
    frames = [None] * 200
    for idx, block in verify._random_dependent_stacks(200):
        for k, v in zip(idx, block):
            frames[k] = Frame.from_vectors(v)
    return frames


def test_nudge_repair_corpus():
    for f in _nudge_repair_corpus():
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
        trials.append(v.shape[-2])
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


# ---------------------------------------------------------------------------
# stacks: ``perturb.nudge_batch`` scans the frames of one shape and field in
# lockstep, and each member must come out as the reference loop nudges it alone


def _stack(frames):
    return np.stack([f.vectors for f in frames])


def _assert_nudge_batch(frames, eps):
    """nudge_batch on the vector stack of each (shape, field) group of
    frames, against the reference loop member by member: whether the row
    comes back bit for bit where the reference keeps the frame object, and
    the field and vector bytes of each result."""
    for idx in verify._index_groups((f.field, f.vectors.shape) for f in frames).values():
        group = [frames[i] for i in idx]
        want = [_nudge_outcome(scan_reference.nudge_to_independence, f, eps) for f in group]
        try:
            nudged = perturb.nudge_batch(_stack(group), eps)
        except InternalInconsistency as exc:
            assert str(exc) in want  # a member fails alone too
            continue
        except BadParam as exc:
            assert str(exc) in want if _TOO_COARSE in str(exc) else \
                _UNRESOLVED in str(exc) and _NO_MEMBER in want
            continue
        assert [(g.tobytes() == f.vectors.tobytes(), field_of(g), g.tobytes())
                for f, g in zip(group, nudged)] == want


def _with_copy(f, src, at, factor):
    """f with factor times vector src inserted before position at."""
    v = np.insert(f.vectors, at, factor * f.vectors[src], axis=0)
    return Frame(field=f.field, vectors=v)


def test_nudge_batch_on_the_nudge_repair_corpus():
    frames = _nudge_repair_corpus()
    # independent members of the same shapes come back as themselves
    frames += [cons.random_unit(f.n, f.m, 15000 + k, f.field) for k, f in enumerate(frames[:24])]
    for eps in (0.1, 0.01):
        _assert_nudge_batch(frames, eps)


def test_nudge_batch_on_perfbench_shaped_frames():
    frames = [_perfbench_shaped(seed, *spec) for spec in [(8, 35, 3, False), (10, 54, 5, False),
                                                         (4, 15, 4, True)]
              for seed in range(1, 11)]
    _assert_nudge_batch(frames, 0.1)


def test_nudge_batch_on_single_inputs():
    near = Frame.from_vectors(np.array([[1.0, 0.0], [np.cos(1e-8), np.sin(1e-8)]]))
    _assert_nudge_batch([cons.biangular(3), cons.biangular(4), near], 0.1)


@pytest.mark.parametrize("tol", ["1e-3", "0"])
def test_nudge_batch_under_env_threshold(monkeypatch, tol):
    f = Frame.from_vectors(np.vstack([cons.epsilon_pair(0.9999).vectors,
                                      cons.random_unit(2, 1, 3).vectors]))
    monkeypatch.setenv("FRAMEKIT_TOL", tol)
    _assert_nudge_batch([f, cons.random_unit(2, 3, 4), _with_copy(cons.random_unit(2, 2, 5), 0,
                                                                  2, -1.0)], 0.1)
    _assert_nudge_batch([_perfbench_shaped(seed, 3, 6, 1, False) for seed in range(1, 6)], 0.1)


@pytest.mark.parametrize("n, cplx", [(2, False), (3, False), (4, False), (2, True), (3, True)])
def test_nudge_batch_members_reject_at_different_positions(n, cplx):
    # M = dim members with one or two copies of earlier vectors, placed so
    # that the first reject moves from member to member
    field = "complex" if cplx else "real"
    d = n * n if cplx else n * (n + 1) // 2
    factor = np.exp(0.7j) if cplx else -1.0
    frames = []
    for seed in range(12):
        copies = 1 + seed % 2
        f = cons.random_unit(n, d - copies, 16000 + seed, field)
        for c in range(copies):
            at = 1 + (seed // 2 + c) % f.m
            f = _with_copy(f, (seed + 3 * c) % at, at, factor)
        frames.append(f)
    first_reject = {next(i for i in range(d) if i not in outer.independent_prefix(f))
                    for f in frames}
    assert len(first_reject) > 1
    for eps in (0.1, 0.01):
        _assert_nudge_batch(frames, eps)


def test_nudge_batch_member_that_needs_a_later_candidate():
    # the first candidate for -v is kept before -v comes, so the scan
    # rejects it and takes the second; the other members take their first
    eps = 0.1
    v = cons.random_unit(2, 1, 17).vectors[0]
    c0 = perturb.nearby_independent_basis(-v, (eps / 3) ** 2)[0]
    late = Frame.from_vectors(np.array([v, c0, -v]))
    others = [_with_copy(cons.random_unit(2, 2, 18 + k), 0, 2, -1.0) for k in range(4)]
    assert outer.independent_prefix(late) == (0, 1)
    g = perturb.nudge_batch(_stack([others[0], late, *others[1:]]), eps)[1]
    assert g[2].tobytes() == \
        perturb.nearby_independent_basis(-v, (eps / 3) ** 2)[1].tobytes()
    _assert_nudge_batch([others[0], late, *others[1:]], eps)


def test_nudge_batch_real_valued_row_of_a_complex_frame_takes_the_complex_family():
    # the family follows the frame's field: the real E_ij family's outers
    # reach only the real symmetric matrices, so a complex frame's
    # real-valued offender takes the complex family of 4, as its other rows do
    rng = np.random.default_rng(19)
    real_row = rng.standard_normal(2)
    real_row /= np.linalg.norm(real_row)
    mixed = Frame(field="complex", vectors=np.array([cons.random_unit(2, 1, 20, "complex")
                                                     .vectors[0], real_row, -real_row]))
    others = [_with_copy(cons.random_unit(2, 2, 21 + k, "complex"), 1, 2, np.exp(0.4j))
              for k in range(3)]
    eps = 0.1
    g = perturb.nudge_batch(_stack([others[0], mixed, *others[1:]]), eps)[1]
    basis = perturb.nearby_independent_basis(-real_row.astype(complex), (eps / 3) ** 2)
    assert basis.shape == (4, 2)
    assert any(g[2].tobytes() == b.tobytes() for b in basis)
    _assert_nudge_batch([others[0], mixed, *others[1:]], eps)


def test_nudge_batch_on_planted_copies():
    rng = np.random.default_rng(22)
    frames = []
    for seed in range(60):
        n, cplx = 2 + seed % 3, seed % 2 == 1
        field = "complex" if cplx else "real"
        d = n * n if cplx else n * (n + 1) // 2
        f = cons.random_unit(n, d - 1, 23000 + seed, field)
        f = _with_copy(f, int(rng.integers(d - 1)), int(rng.integers(d)),
                       np.exp(1j * rng.uniform(0, 2 * np.pi)) if cplx else -1.0)
        frames.append(Frame(field=field, vectors=f.vectors[:d]))
    _assert_nudge_batch(frames, 0.1)


def test_nudge_batch_errors():
    dependent = _with_copy(cons.random_unit(3, 4, 24), 0, 4, -1.0)
    independent = cons.random_unit(3, 5, 25)
    with pytest.raises(BadParam, match="underflows"):
        perturb.nudge_batch(_stack([independent, dependent]), 1e-300)
    # nothing to repair, so nothing to spend
    kept = perturb.nudge_batch(_stack([independent, cons.random_unit(3, 5, 26)]), 1e-300)
    assert kept[0].tobytes() == independent.vectors.tobytes()
    for eps in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(BadParam, match="finite and positive"):
            perturb.nudge_batch(_stack([dependent]), eps)
    with pytest.raises(ShapeMismatch, match="non-empty 3-d"):
        perturb.nudge_batch(np.zeros((0, 5, 3)), 0.1)
    with pytest.raises(TooMany):
        perturb.nudge_batch(_stack([cons.random_unit(2, 4, 28), cons.random_unit(2, 4, 29)]), 0.1)
    off = Frame.from_vectors(np.vstack([dependent.vectors[:4], [[0.0, 0.0, 2.0]]]))
    with pytest.raises(NotUnitNorm):
        perturb.nudge_batch(_stack([dependent, off]), 0.1)
