"""Fuzz of the CLI's input boundary and of the numerics behind it.

Whatever the classify or nudge flags or the frame entries, ``framekit``
must end with a documented exit code (0 success, 2 usage or parse error,
3 domain error; 1 is reserved for verification failures), never print a
traceback, and on success print strict JSON (no NaN or Infinity).  Most
such documents stop at input validation, so ``unit_frames`` draws valid
unit-norm frames, with repeated and near-parallel rows, that reach the
classifier and the nudge; those run in process through ``cli.main``, and
a nudge that succeeds must hand ``analyze`` a frame with independent
outers, moved by at most eps.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from framekit import cli
from framekit.outer import ambient_outer_dim
from oracles import strict_json

SRC = str(Path(__file__).resolve().parents[1] / "src")

ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e-300, 1e-160, 3.4e38, 1e77, 1e100, 1e154, 1e300]),
)


@st.composite
def frame_docs(draw):
    field = draw(st.sampled_from(["real", "complex"]))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    entry = st.tuples(ENTRIES, ENTRIES).map(list) if field == "complex" else ENTRIES
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    return {"field": field, "n": n, "vectors": rows}


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([10 ** 400, -2 ** 70]),
              ENTRIES, st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=8)


@st.composite
def malformed_docs(draw):
    """Documents of any JSON structure: each field dropped, of another type
    or nested wrongly, or the document itself not an object."""
    if draw(st.booleans()):
        return draw(JSON_VALUES)
    doc = {"field": draw(st.one_of(st.sampled_from(["real", "complex"]), JSON_VALUES)),
           "n": draw(st.one_of(st.integers(-1, 3), JSON_VALUES)),
           "vectors": draw(JSON_VALUES)}
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=1)):
        del doc[key]
    return doc


NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10, 10).map(str),
    st.sampled_from(["abc", "", "1e400", "-0", "1e-8"]),
)

CANDIDATES = st.one_of(
    st.lists(st.one_of(ENTRIES, st.lists(ENTRIES, max_size=3), st.booleans(),
                       st.text(max_size=3)), max_size=4).map(json.dumps),
    st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=12),
)


@st.composite
def classify_flags(draw):
    flags = []
    if draw(st.booleans()):
        flags += ["--grid", str(draw(st.integers(-5, 40)))]
    if draw(st.booleans()):
        flags += ["--candidate", draw(CANDIDATES)]
    if draw(st.booleans()):
        flags += [f"--tol={draw(NUMBER_TEXT)}"]
    if draw(st.booleans()):
        flags += [f"--seed={draw(st.integers(-2 ** 70, 2 ** 70))}"]
    return flags


#: --eps texts, with budgets whose square per vector overflows a float
EPS_TEXT = st.one_of(NUMBER_TEXT,
                    st.sampled_from(["1e154", "1e155", "1e200", "1.7976931348623157e308"]))


@st.composite
def command_lines(draw):
    """A command with flags of its own: classify's, nudge's --eps, or none."""
    command = draw(st.sampled_from(["classify", "analyze", "nudge"]))
    if command == "classify":
        return command, draw(classify_flags())
    if command == "nudge":
        return command, [f"--eps={draw(EPS_TEXT)}"]
    return command, []


@settings(max_examples=45, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=frame_docs(), line=command_lines())
def test_cli_exit_contract(tmp_path_factory, doc, line):
    command, flags = line
    path = tmp_path_factory.mktemp("fuzz") / "frame.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    argv = [command, str(path), *flags]
    proc = subprocess.run([sys.executable, "-m", "framekit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode in (0, 2, 3), (argv, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, proc.stderr)
    if proc.returncode == 0:
        strict_json(proc.stdout)


@settings(max_examples=300, deadline=None)
@given(doc=malformed_docs())
def test_malformed_documents_keep_the_exit_contract(tmp_path_factory, doc):
    # in process, so that many structures run quickly: an escaping exception
    # is the traceback a subprocess would print
    path = tmp_path_factory.mktemp("malformed") / "frame.json"
    path.write_text(json.dumps(doc))
    assert _main(["analyze", str(path), "-o", os.devnull]) in (0, 2, 3), doc


def _main(argv) -> int:
    """``cli.main``'s exit code, a SystemExit's included."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _unit_row(rng, n, cplx):
    v = rng.standard_normal(n) + (1j * rng.standard_normal(n) if cplx else 0.0)
    return v / np.linalg.norm(v)


@st.composite
def unit_frames(draw, spare=0):
    """(rows, field) of a unit-norm frame with M + spare at most the ambient
    dimension: each row random, a negated or phase-multiplied copy of an
    earlier row, or an earlier row moved by delta = 1e-3 to 1e-9 and
    normalized again."""
    cplx = draw(st.booleans())
    n = draw(st.integers(1 + (spare > 0), 3))
    m = draw(st.integers(1, ambient_outer_dim(n, "complex" if cplx else "real") - spare))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = [_unit_row(rng, n, cplx)]
    for _ in range(m - 1):
        kind = draw(st.sampled_from(["random", "copy", "near"]))
        base = rows[draw(st.integers(0, len(rows) - 1))]
        if kind == "random":
            rows.append(_unit_row(rng, n, cplx))
        elif kind == "copy":
            rows.append(base * (np.exp(2j * np.pi * rng.uniform()) if cplx else -1.0))
        else:
            delta = draw(st.sampled_from([1e-3, 1e-5, 1e-7, 1e-9]))
            near = base + delta * _unit_row(rng, n, cplx)
            rows.append(near / np.linalg.norm(near))
    return np.array(rows), "complex" if cplx else "real"


def _document(rows, field) -> str:
    vectors = [[[z.real, z.imag] for z in row] for row in rows] if field == "complex" \
        else rows.tolist()
    return json.dumps({"field": field, "n": rows.shape[1], "vectors": vectors})


def _rows(doc) -> np.ndarray:
    rows = np.array(doc["vectors"], dtype=float)
    return rows[..., 0] + 1j * rows[..., 1] if doc["field"] == "complex" else rows


@settings(max_examples=150, deadline=None)
@given(frame=unit_frames(), eps=st.sampled_from([1.0, 0.1, 1e-2, 1e-4]))
def test_a_nudged_frame_is_independent_within_its_budget(tmp_path_factory, frame, eps):
    rows, field = frame
    folder = tmp_path_factory.mktemp("nudge")
    source, nudged, analysis = (folder / name for name in ("f.json", "g.json", "a.json"))
    source.write_text(_document(rows, field))
    code = _main(["nudge", str(source), f"--eps={eps}", "-o", str(nudged),
                  "--report", os.devnull])
    assert code in (0, 3)  # 3: a budget below what the rank rule resolves
    if code == 0:
        moved = np.sum(np.linalg.norm(_rows(strict_json(nudged.read_text())) - rows, axis=1))
        assert moved <= eps * (1 + 1e-12)
        # 3: is_independent's vectorized-rank cross-check can disagree with the
        # outer Gram's rank when an eigenvalue lies within rounding of the
        # threshold, as for rows 1e-7 apart
        code = _main(["analyze", str(nudged), "-o", str(analysis)])
        assert code in (0, 3)
        if code == 0:
            assert strict_json(analysis.read_text())["results"]["outer_independent"] is True


@settings(max_examples=150, deadline=None)
@given(frame=unit_frames(spare=1), near=st.sampled_from([None, 1e-3, 1e-6, 1e-9]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_classify_on_unit_frames_keeps_the_exit_contract(tmp_path_factory, frame, near, seed):
    rows, field = frame
    rng = np.random.default_rng(seed)
    candidate = _unit_row(rng, rows.shape[1], field == "complex")
    if near is not None:  # near a frame vector
        candidate = rows[rng.integers(len(rows))] + near * candidate
        candidate /= np.linalg.norm(candidate)
    folder = tmp_path_factory.mktemp("classify")
    source, report = folder / "f.json", folder / "c.json"
    source.write_text(_document(rows, field))
    text = json.dumps([[z.real, z.imag] for z in candidate] if field == "complex"
                      else candidate.tolist())
    code = _main(["classify", str(source), "--candidate", text, "-o", str(report)])
    assert code in (0, 3)  # 3: InternalInconsistency, a cross-check that disagreed
    if code == 0:
        assert strict_json(report.read_text())["results"]["verdict"] in ("dependent",
                                                                         "independent")
