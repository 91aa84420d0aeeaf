"""Smoke self-test of the benchmark itself.

    python3 -m pytest -q perfbench

A tiny-size run of every workload must print every metric that
BENCHMARK.json names, with its unit; corrupted reports fed to the oracle
must come back as counted failures, which shows the output checks are
live.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


def _run(workload: str, trace: int, seconds: int = 1) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    text, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name in list(wanted) + ["fail_ratio"]:
        assert f"  {name} " in text
    assert '"blas_threads"' in text


def test_counts_do_not_depend_on_run_length():
    short = _run("classify-grid", 0, seconds=1)[1]
    long = _run("classify-grid", 0, seconds=4)[1]
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])


def _cli(argv) -> str:
    proc = subprocess.run([sys.executable, "-m", "framekit.cli", *argv], cwd=ROOT,
                          env={"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_corrupted_reports_are_counted(tmp_path):
    rng = np.random.default_rng(0)
    frame = workloads.unit_frame(rng, 3, 5, False)
    path = workloads.write_frame(tmp_path / "f.json", frame)
    good = _cli(["analyze", path])
    assert oracle.check_analyze(frame, 0, good) == oracle.Outcome(1)
    doc = json.loads(good)
    doc["results"]["outer_rank"] -= 1
    assert oracle.check_analyze(frame, 0, json.dumps(doc)) == oracle.Outcome(1, 1, 1)
    doc = json.loads(good)
    doc["results"]["outer_gram_spectrum"][0] *= 1.0 + 1e-6
    assert oracle.check_analyze(frame, 0, json.dumps(doc)).mismatched == 1

    cls = _cli(["classify", path, "--grid", "30", "--seed", "4"])
    assert oracle.check_classify(frame, 4, 30, 1e-8, 0, cls).failed == 0
    doc = json.loads(cls)
    doc["results"]["dependent_samples"].append({"sample": 7, "elliptic_value": 1.0})
    doc["results"]["dependent"] += 1
    assert oracle.check_classify(frame, 4, 30, 1e-8, 0, json.dumps(doc)) == \
        oracle.Outcome(30, 1, 1)
    assert oracle.check_classify(frame, 4, 30, 1e-8, 3, "") == oracle.Outcome(30, 30, 0)

    dep = workloads.dependent_frame(rng, 3, 5, 1, False)
    path = workloads.write_frame(tmp_path / "d.json", dep)
    good = _cli(["nudge", path, "--eps", "0.1"])
    assert oracle.check_nudge(dep, 0.1, 0, good) == oracle.Outcome(1)
    doc = json.loads(good)
    doc["frame"]["vectors"][-1] = doc["frame"]["vectors"][0]
    assert oracle.check_nudge(dep, 0.1, 0, json.dumps(doc)).mismatched == 1

    cmd = workloads.Command("analyze", [], 1, lambda rc, out: oracle.check_analyze(frame, rc, out))
    assert cmd.outcome(0, '{"results": {}}') == oracle.Outcome(1, 1, 1)

    good = _cli(["verify", "--only", "pc2-identity"])
    assert oracle.check_verify(1, 0, good).failed == 0
    doc = json.loads(good)
    doc["rows"][0]["passed"] = False
    assert oracle.check_verify(1, 1, json.dumps(doc)).mismatched >= 1


@pytest.mark.parametrize("cplx", [False, True])
def test_candidate_stream_follows_the_documented_definition(cplx):
    from framekit.rng import Stream

    ours, theirs = oracle.CandidateStream(12345), Stream(12345)
    for _ in range(20):
        want = theirs.complex_normals(3) if cplx else theirs.normals(3)
        want = want / np.linalg.norm(want)
        assert np.allclose(ours.unit_candidate(3, cplx), want, rtol=0, atol=1e-15)


def test_tracer_rebinds_every_import_and_restores():
    import framekit.cli  # noqa: F401  (loads every framekit module)
    from framekit import geometry, outer, perturb

    original = outer.induce
    rec = tracer.Tracer()
    with rec.installed():
        assert geometry.induce is outer.induce is perturb.induce
        assert outer.induce is not original
    assert geometry.induce is original and outer.induce is original
