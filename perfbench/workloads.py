"""Seeded inputs and command lists for the three workloads.

Every frame comes from one numpy ``Generator`` seeded with the workload
seed; classify commands receive the same seed as ``--seed``.  A command
carries its own oracle check, closed over the inputs it was built from.
"""

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import oracle
from tracer import VERIFY_CHECKS

#: Workload names; BENCHMARK.json records why each was chosen.
NAMES = ("large-frames", "classify-grid", "verify-suite")

CLASSIFY_TOL = 1e-8  # framekit classify's default --tol
NUDGE_EPS = 0.1

#: (n, m, complex) for analyze; classify frames and grid per command;
#: (n, m, duplicates, complex) for nudge; verify checks ([] = whole suite).
#: Classify runs several small frames per field, not one big grid: solver
#: cost differs from frame to frame, and one aborted complex command (the
#: known InternalInconsistency defect) then costs a bounded share of a run.
SIZES = {
    "full": {
        "analyze": [(12, 77, False), (8, 63, True)],
        "classify": ([(3, 4, False)] * 6 + [(2, 3, True)] * 6, 250),
        "nudge": [(8, 35, 3, False), (10, 54, 5, False), (4, 15, 4, True)],
        "verify": [],
    },
    "tiny": {
        "analyze": [(3, 5, False), (2, 3, True)],
        "classify": ([(3, 4, False), (2, 3, True)], 20),
        "nudge": [(3, 5, 1, False), (2, 3, 1, True)],
        "verify": ["pc2-identity"],
    },
}


@dataclass
class Command:
    kind: str                                   # analyze | classify | nudge | verify
    argv: list                                  # arguments after ``framekit``
    ops: int                                    # operations the command stands for
    check: Callable[[int, str], oracle.Outcome]  # (exit code, stdout) -> outcome

    def outcome(self, rc: int, stdout: str) -> oracle.Outcome:
        """The oracle's verdict; a report missing fields fails every operation."""
        try:
            return self.check(rc, stdout)
        except (KeyError, IndexError, TypeError, ValueError):
            return oracle.Outcome(self.ops, failed=self.ops, mismatched=self.ops)


def unit_frame(rng, n: int, m: int, cplx: bool) -> np.ndarray:
    v = rng.standard_normal((m, n))
    if cplx:
        v = v + 1j * rng.standard_normal((m, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def dependent_frame(rng, n: int, m: int, dups: int, cplx: bool) -> np.ndarray:
    """m - dups random unit vectors, then dups copies of distinct earlier
    vectors times a sign (real) or a random phase (complex).  The copies
    sit at the tail so the repair cost does not depend on the seed."""
    base = unit_frame(rng, n, m - dups, cplx)
    src = rng.choice(m - dups, size=dups, replace=False)
    if cplx:
        flips = np.exp(2j * np.pi * rng.random(dups))
    else:
        flips = -np.ones(dups)
    return np.vstack([base, base[src] * flips[:, None]])


def write_frame(path, vectors: np.ndarray) -> str:
    cplx = np.iscomplexobj(vectors)
    rows = ([[[float(z.real), float(z.imag)] for z in row] for row in vectors] if cplx
            else [[float(x) for x in row] for row in vectors])
    doc = {"schema": "framekit/1", "field": "complex" if cplx else "real",
           "n": int(vectors.shape[1]), "vectors": rows}
    with open(path, "w") as fp:
        json.dump(doc, fp)
    return str(path)


def build(workload: str, seed: int, size: str, workdir) -> list:
    """Write the workload's frame documents into ``workdir`` and return its commands."""
    spec = SIZES[size]
    rng = np.random.default_rng(seed)
    cmds = []
    if workload == "large-frames":
        for i, (n, m, cplx) in enumerate(spec["analyze"]):
            v = unit_frame(rng, n, m, cplx)
            path = write_frame(workdir / f"analyze{i}.json", v)
            cmds.append(Command("analyze", ["analyze", path], 1, partial(oracle.check_analyze, v)))
        for i, (n, m, dups, cplx) in enumerate(spec["nudge"]):
            v = dependent_frame(rng, n, m, dups, cplx)
            path = write_frame(workdir / f"nudge{i}.json", v)
            cmds.append(Command("nudge", ["nudge", path, "--eps", str(NUDGE_EPS)], 1,
                                partial(oracle.check_nudge, v, NUDGE_EPS)))
    elif workload == "classify-grid":
        frames, grid = spec["classify"]
        for i, (n, m, cplx) in enumerate(frames):
            v = unit_frame(rng, n, m, cplx)
            path = write_frame(workdir / f"classify{i}.json", v)
            cmds.append(Command("classify",
                                ["classify", path, "--grid", str(grid), "--seed", str(seed)], grid,
                                partial(oracle.check_classify, v, seed, grid, CLASSIFY_TOL)))
    elif workload == "verify-suite":
        for name in spec["verify"] or [None]:
            argv = ["verify"] + (["--only", name] if name else [])
            n_checks = 1 if name else len(VERIFY_CHECKS)
            cmds.append(Command("verify", argv, n_checks, partial(oracle.check_verify, n_checks)))
    else:
        raise KeyError(workload)
    return cmds
