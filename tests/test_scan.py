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
from framekit import geometry, outer, perturb, verify
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


def _nudge_outcome(nudge, f, eps):
    try:
        g = nudge(f, eps)
    except InternalInconsistency as exc:
        return str(exc)
    except BadParam as exc:
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


#: Certificate margins that push steps off the certificate: at 2^48 a first
#: step is still certified and the nearly parallel pair's second is not; at
#: 2^60 no step is, so the eig rule decides every one.
_EIG_RULE_MARGINS = [2.0 ** 48, 2.0 ** 60]


@pytest.mark.parametrize("margin", _EIG_RULE_MARGINS, ids=["2^48", "2^60"])
def test_eig_rule_steps(monkeypatch, margin):
    # the nearly parallel pair and the close random vectors, kept by the
    # eig rule as by the certificate
    f = Frame.from_vectors(np.vstack([cons.epsilon_pair(0.9999).vectors,
                                      cons.random_unit(2, 1, 3).vectors]))
    default = outer.independent_prefix(f)
    monkeypatch.setattr(outer, "CERTIFY_MARGIN", margin)
    assert outer.independent_prefix(f) == default
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
    # at CERTIFY_MARGIN = 2^48 the first step is certified (its margin is
    # 2^48 eps = 1/16 < 1), but the second vector's Schur complement,
    # 1 - 0.999^2 = 2e-3, is inside the margin 2^48 * 2 eps * 2 = 1/4: the
    # eig rule keeps it, and then decides every later step
    trials.clear()
    monkeypatch.setattr(outer, "CERTIFY_MARGIN", 2.0 ** 48)
    g = Frame.from_vectors(np.vstack([cons.epsilon_pair(0.999).vectors, [[0.6, 0.8]]]))
    assert outer.independent_prefix(g) == (0, 1, 2)
    assert trials == [2, 3]


def _near_parallel_frames():
    """Frames with two nearly parallel vectors, whose outer ranks sit at the
    rank threshold: three random unit vectors b and x = b0 + 1e-7 w
    renormalized, for seeds 0-199, each frame in three vector orders."""
    for seed in range(200):
        b = cons.random_unit(3, 3, seed).vectors
        w = cons.random_unit(3, 1, 1000 + seed).vectors[0]
        x = b[0] + 1e-7 * w
        x /= np.linalg.norm(x)
        for order in ([b[0], x, b[1], b[2]], [b[0], b[1], b[2], x], [x, b[1], b[0], b[2]]):
            yield Frame.from_vectors(np.array(order))


def test_the_scan_keeps_what_induce_decides_on_near_parallel_frames():
    # the scan's eig rule ranks the trial Gram from induce's decomposition:
    # ranked from eigenvalues alone, these trials sit close enough to the
    # threshold that, for some frames induce calls dependent, the greedy
    # prefix comes out dependent (prepare raises NotIndependent) or whole
    # (no certificate)
    dependent = 0
    for f in _near_parallel_frames():
        os_ = outer.induce(f)
        if os_.rank < f.m:
            dependent += 1
            assert outer.dependence_certificate(os_) is not None
            geometry.prepare(f)
    assert dependent > 200


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
    frames, with one budget for all (eps a float) or frame k's eps[k],
    against the reference loop member by member at its budget: whether the
    row comes back bit for bit where the reference keeps the frame object,
    and the field and vector bytes of each result."""
    budgets = np.broadcast_to(eps, len(frames))
    for idx in verify._index_groups((f.field, f.vectors.shape) for f in frames).values():
        group = [frames[i] for i in idx]
        want = [_nudge_outcome(scan_reference.nudge_to_independence, frames[i],
                               float(budgets[i])) for i in idx]
        try:
            nudged = perturb.nudge_batch(_stack(group), eps if np.ndim(eps) == 0
                                         else budgets[idx])
        except InternalInconsistency as exc:
            assert str(exc) in want  # a member fails alone too
            continue
        except BadParam as exc:
            assert _UNRESOLVED in str(exc) and _NO_MEMBER in want
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


def test_nudge_batch_with_a_budget_per_frame():
    # the corpus stacked twice, at 0.1 and then at 0.01 as verify nudges it,
    # and interleaved budgets: each frame is what it gets alone at its own
    frames = _nudge_repair_corpus()
    _assert_nudge_batch(frames + frames, np.repeat([0.1, 0.01], len(frames)))
    _assert_nudge_batch(frames, np.where(np.arange(len(frames)) % 3, 0.1, 1e-3))


def test_nudge_batch_on_perfbench_shaped_frames():
    frames = [_perfbench_shaped(seed, *spec) for spec in [(8, 35, 3, False), (10, 54, 5, False),
                                                         (4, 15, 4, True)]
              for seed in range(1, 11)]
    _assert_nudge_batch(frames, 0.1)


def test_nudge_batch_on_single_inputs():
    near = Frame.from_vectors(np.array([[1.0, 0.0], [np.cos(1e-8), np.sin(1e-8)]]))
    _assert_nudge_batch([cons.biangular(3), cons.biangular(4), near], 0.1)


@pytest.mark.parametrize("margin", _EIG_RULE_MARGINS, ids=["2^48", "2^60"])
def test_nudge_batch_on_eig_rule_steps(monkeypatch, margin):
    f = Frame.from_vectors(np.vstack([cons.epsilon_pair(0.9999).vectors,
                                      cons.random_unit(2, 1, 3).vectors]))
    monkeypatch.setattr(outer, "CERTIFY_MARGIN", margin)
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


@pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf])
def test_nudge_batch_rejects_a_budget_per_frame_that_is_not_finite_and_positive(bad):
    stack = _stack([_with_copy(cons.random_unit(3, 4, 24 + k), 0, 4, -1.0) for k in range(3)])
    with pytest.raises(BadParam, match=f"finite and positive, got {bad} at 1$"):
        perturb.nudge_batch(stack, np.array([0.1, bad, 0.1]))


@pytest.mark.parametrize("eps", [[0.1, 0.1], [0.1] * 4, [[0.1, 0.1, 0.1]]])
def test_nudge_batch_takes_one_budget_per_frame(eps):
    stack = _stack([_with_copy(cons.random_unit(3, 4, 24 + k), 0, 4, -1.0) for k in range(3)])
    with pytest.raises(BadParam, match=r"a \(3,\) array of one budget per frame"):
        perturb.nudge_batch(stack, np.array(eps))
