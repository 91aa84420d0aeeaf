"""Subprocess fuzz of the CLI's input boundary.

Whatever the classify flags, the FRAMEKIT_TOL value or the frame entries,
``framekit`` must end with a documented exit code (0 success, 2 usage or
parse error, 3 domain error; 1 is reserved for verification failures) and
never print a traceback.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


ENV_TOL = st.one_of(st.none(), NUMBER_TEXT, st.sampled_from(["0", "1e-3", "0.5", "1e-14"]))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=frame_docs(), command=st.sampled_from(["classify", "analyze"]),
       flags=classify_flags(), env_tol=ENV_TOL)
def test_cli_exit_contract(tmp_path_factory, doc, command, flags, env_tol):
    path = tmp_path_factory.mktemp("fuzz") / "frame.json"
    path.write_text(json.dumps(doc))
    env = {k: v for k, v in os.environ.items() if k != "FRAMEKIT_TOL"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if env_tol is not None:
        env["FRAMEKIT_TOL"] = env_tol
    argv = [command, str(path)] + (flags if command == "classify" else [])
    proc = subprocess.run([sys.executable, "-m", "framekit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode in (0, 2, 3), (argv, env_tol, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, env_tol, proc.stderr)
