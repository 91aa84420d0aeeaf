"""Subprocess fuzz of the CLI's input boundary.

Whatever the classify or nudge flags, the FRAMEKIT_TOL value or the frame
entries, ``framekit`` must end with a documented exit code (0 success, 2
usage or parse error, 3 domain error; 1 is reserved for verification
failures), never print a traceback, and on success print strict JSON (no
NaN or Infinity).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


ENV_TOL = st.one_of(st.none(), NUMBER_TEXT, st.sampled_from(["0", "1e-3", "0.5", "1e-14"]))


@settings(max_examples=45, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=frame_docs(), line=command_lines(), env_tol=ENV_TOL)
def test_cli_exit_contract(tmp_path_factory, doc, line, env_tol):
    command, flags = line
    path = tmp_path_factory.mktemp("fuzz") / "frame.json"
    path.write_text(json.dumps(doc))
    env = {k: v for k, v in os.environ.items() if k != "FRAMEKIT_TOL"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if env_tol is not None:
        env["FRAMEKIT_TOL"] = env_tol
    argv = [command, str(path), *flags]
    proc = subprocess.run([sys.executable, "-m", "framekit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode in (0, 2, 3), (argv, env_tol, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, env_tol, proc.stderr)
    if proc.returncode == 0:
        strict_json(proc.stdout)


@settings(max_examples=300, deadline=None)
@given(doc=malformed_docs())
def test_malformed_documents_keep_the_exit_contract(tmp_path_factory, doc):
    # in process, so that many structures run quickly: an escaping exception
    # is the traceback a subprocess would print
    from framekit import cli

    path = tmp_path_factory.mktemp("malformed") / "frame.json"
    path.write_text(json.dumps(doc))
    try:
        code = cli.main(["analyze", str(path), "-o", os.devnull])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3), doc
