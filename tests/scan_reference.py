"""Per-trial reference loops for the greedy independence scan.

These are the loops ``outer.independent_prefix``,
``outer.dependence_certificate`` and ``perturb.nudge_to_independence`` ran
before the incremental scan: every trial subframe is re-``induce``d and
kept when its outer Gram's rank grows.  The scan must keep exactly the
vectors these keep, so the tests compare them bit for bit.
"""

import numpy as np

from framekit import constructions as cons
from framekit import outer, perturb
from framekit.errors import BadParam, InternalInconsistency
from framekit.frame import Frame


def independent_prefix(f: Frame) -> tuple:
    kept = []
    rank = 0
    for i in range(f.m):
        os_try = outer.induce(f.subframe(kept + [i]))
        if os_try.rank == rank + 1:
            kept.append(i)
            rank += 1
    return tuple(kept)


def dependence_certificate(os_):
    if os_.rank == os_.m:
        return None
    prefix = independent_prefix(os_.frames[0])
    j = next(i for i in range(os_.m) if i not in prefix)
    kept = [i for i in prefix if i < j]
    a = np.zeros(os_.m)
    a[kept] = np.linalg.solve(os_.gram_op[np.ix_(kept, kept)], os_.gram_op[kept, j])
    a[j] = -1.0
    a /= np.linalg.norm(a)
    residual = float(np.linalg.norm(a @ outer.vectorized_synthesis(os_.frames[0])))
    split = tuple(int(i) for i in np.flatnonzero(a >= 0.0))
    return outer.DependenceCertificate(coefficients=a, residual=residual, split=split)


def nudge_to_independence(f: Frame, eps: float) -> Frame:
    """The repair loop without its argument checks (the inputs here pass them)."""
    per_vector_sq = (eps / f.m) ** 2
    kept: list = []
    replaced = False
    for i in range(f.m):
        current = f.vectors[i]
        trial = kept + [current]
        if outer.induce(Frame.from_vectors(np.array(trial), field=f.field)).rank == len(trial):
            kept.append(current)
            continue
        replaced = True
        if per_vector_sq == 0.0:
            raise BadParam("budget underflows")
        rank_before = len(kept)
        for cand in perturb.nearby_independent_basis(current, per_vector_sq):
            trial = kept + [cand]
            if outer.induce(Frame.from_vectors(np.array(trial),
                                               field=f.field)).rank == rank_before + 1:
                kept.append(cand)
                break
        else:
            raise InternalInconsistency("no basis member grew the outer span")
    if not replaced:
        return f
    return Frame(field=f.field, vectors=np.array(kept))


def dependent_frame(k: int) -> Frame:
    """Case k of the nudge-repair corpus, drawn on its own."""
    cplx = k % 4 == 3
    if cplx:
        n = 2
        d = n * n
        field = "complex"
    else:
        n = 2 + k % 3
        d = n * (n + 1) // 2
        field = "real"
    m = max(2, 2 + k % (d - 1))
    f = cons.random_unit(n, m, 14000 + k, field=field)
    v = f.vectors.copy()
    i = k % m
    j = (k + 1 + k // m) % m
    if i == j:
        j = (j + 1) % m
    phase = np.exp(1j * 2.0) if cplx else -1.0
    v[j] = phase * v[i]  # same outer product, different vector
    return Frame(field=field, vectors=v)
