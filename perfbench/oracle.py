"""Output checks that never go through ``framekit.matcore``.

Every spectrum and rank here comes from numpy's LAPACK bindings
(``eigvalsh``, ``svd``, ``solve``), and the classify candidate stream is
regenerated from its documented definition (splitmix64 counter stream,
Box-Muller normals) in plain Python integers, not by importing
``framekit.rng``.

Each check returns an ``Outcome``: operations attempted, operations
failed, how many of the failures are oracle mismatches (a wrong output,
as opposed to a non-zero exit with no output) and how many classify
candidates were left out as too close to the verdict threshold.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

#: Agreement required of reported floats (spectra, bounds, movement,
#: elliptic values), relative to the largest magnitude compared or 1,
#: whichever is larger; the program's Jacobi converges to about 1e-13.
FLOAT_RTOL = 1e-9
#: Candidates whose oracle |elliptic - 1| lies within this distance of the
#: verdict tolerance are not compared: two correct solvers may disagree
#: there.  Solver differences are about cond(G) * eps, far below this.
CLASSIFY_MARGIN = 1e-10

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    mismatched: int = 0
    skipped: int = 0

    def __iadd__(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatched += other.mismatched
        self.skipped += other.skipped
        return self


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class CandidateStream:
    """Output k of stream s is mix64(s + (k + 1) * golden); normals come from
    Box-Muller pairs, the cosine half first, then the sine half."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.counter = 0

    def _raw(self, count):
        start = self.counter + 1
        self.counter += count
        return [_mix64((self.seed + k * _GOLDEN) & _MASK) for k in range(start, start + count)]

    def normals(self, count):
        pairs = (count + 1) // 2
        u1 = [(r >> 11) * 2.0 ** -53 + 2.0 ** -54 for r in self._raw(pairs)]
        u2 = [(r >> 11) * 2.0 ** -53 for r in self._raw(pairs)]
        rad = [math.sqrt(-2.0 * math.log(u)) for u in u1]
        cos = [r * math.cos(2.0 * math.pi * u) for r, u in zip(rad, u2)]
        sin = [r * math.sin(2.0 * math.pi * u) for r, u in zip(rad, u2)]
        return (cos + sin)[:count]

    def unit_candidate(self, n: int, cplx: bool) -> np.ndarray:
        if cplx:
            z = self.normals(2 * n)
            v = np.array(z[:n]) + 1j * np.array(z[n:])
        else:
            v = np.array(self.normals(n))
        return v / np.linalg.norm(v)


def _rank(a: np.ndarray) -> int:
    """Singular values above max(rows, cols) * eps * sigma_max."""
    sigma = np.linalg.svd(a, compute_uv=False)
    tol = max(a.shape) * np.finfo(np.float64).eps * sigma[0]
    return int(np.count_nonzero(sigma > tol))


def _outer_rank(vectors: np.ndarray) -> int:
    """Rank of the M x N^2 vectorized outer products phi (x) conj(phi)."""
    return _rank(np.einsum("mi,mj->mij", vectors, vectors.conj()).reshape(len(vectors), -1))


def _outer_gram(vectors: np.ndarray) -> np.ndarray:
    return np.abs(vectors.conj() @ vectors.T) ** 2


def _close(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return bool(np.all(np.abs(a - b) <= FLOAT_RTOL * scale))


def _load(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def check_analyze(vectors: np.ndarray, rc: int, stdout: str) -> Outcome:
    """One operation: outer rank and verdict exactly, spectrum and frame
    bounds within FLOAT_RTOL."""
    doc = _load(stdout) if rc == 0 else None
    if doc is None:
        return Outcome(1, failed=1, mismatched=int(rc == 0))
    res = doc["results"]
    m, n = vectors.shape
    rank = _outer_rank(vectors)
    spectrum = np.linalg.eigvalsh(_outer_gram(vectors))[::-1]
    s_eig = np.linalg.eigvalsh(vectors.T @ vectors.conj())
    ok = (res["outer_rank"] == rank
          and res["outer_independent"] == (rank == m)
          and _close(res["outer_gram_spectrum"], spectrum))
    if _rank(vectors) == n:
        fb = res["frame_bounds"]
        ok = ok and fb is not None and _close([fb["lower"], fb["upper"]], [s_eig[0], s_eig[-1]])
    else:
        ok = ok and res["frame_bounds"] is None
    return Outcome(1, failed=int(not ok), mismatched=int(not ok))


def classify_values(vectors: np.ndarray, seed: int, grid: int) -> np.ndarray:
    """Elliptic values w^T G^-1 w, w_i = |<c, phi_i>|^2, for the grid candidates."""
    cplx = np.iscomplexobj(vectors)
    stream = CandidateStream(seed)
    cands = np.array([stream.unit_candidate(vectors.shape[1], cplx) for _ in range(grid)])
    w = np.abs(cands @ vectors.conj().T) ** 2
    return np.einsum("km,km->k", w, np.linalg.solve(_outer_gram(vectors), w.T).T)


def check_classify(vectors: np.ndarray, seed: int, grid: int, tol: float,
                   rc: int, stdout: str) -> Outcome:
    """One operation per candidate.  An aborted command fails every
    candidate; otherwise the sample count, the dependent count and the
    dependent sample indices must match the oracle exactly, and the
    reported elliptic values within FLOAT_RTOL."""
    doc = _load(stdout) if rc == 0 else None
    if doc is None:
        return Outcome(grid, failed=grid, mismatched=grid if rc == 0 else 0)
    res = doc["results"]
    if res["samples"] != grid or res["dependent"] != len(res["dependent_samples"]):
        return Outcome(grid, failed=grid, mismatched=grid)
    values = classify_values(vectors, seed, grid)
    dist = np.abs(values - 1.0)
    skip = np.abs(dist - tol) <= CLASSIFY_MARGIN
    expected = {int(k) for k in np.flatnonzero((dist <= tol) & ~skip)}
    reported = {int(row["sample"]): float(row["elliptic_value"])
                for row in res["dependent_samples"]}
    bad = expected ^ {k for k in reported if not skip[k]}
    bad |= {k for k in expected & set(reported) if not _close(reported[k], values[k])}
    return Outcome(grid, failed=len(bad), mismatched=len(bad), skipped=int(skip.sum()))


def check_nudge(vectors: np.ndarray, eps: float, rc: int, stdout: str) -> Outcome:
    """One operation: the nudged frame has independent outers, moved less
    than eps in total, and the report states both correctly."""
    doc = _load(stdout) if rc == 0 else None
    if doc is None:
        return Outcome(1, failed=1, mismatched=int(rc == 0))
    frame, report = doc["frame"], doc["report"]["results"]
    out = np.array(frame["vectors"], dtype=float)
    if frame["field"] == "complex":
        out = out[..., 0] + 1j * out[..., 1]
    ok = out.shape == vectors.shape
    if ok:
        moved = float(np.sum(np.linalg.norm(out - vectors, axis=1)))
        rank = _outer_rank(out)
        ok = (rank == len(out) and moved < eps
              and report["outer_rank"] == rank and report["outer_independent"]
              and _close(report["moved"], moved))
    return Outcome(1, failed=int(not ok), mismatched=int(not ok))


def check_verify(n_checks: int, rc: int, stdout: str) -> Outcome:
    """One operation per report row; exit 0 and no failed row.  Without a
    report every check counts as one failed row."""
    doc = _load(stdout) if rc in (0, 1) else None
    if doc is None:
        return Outcome(n_checks, failed=n_checks)
    failed = sum(not row["passed"] for row in doc["rows"])
    if rc != 0 or doc["failures"] != failed:
        failed = max(failed, 1)
    return Outcome(len(doc["rows"]), failed=failed, mismatched=failed)
