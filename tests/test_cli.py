import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from framekit import cli, constructions as cons, serialization as ser, verify
from framekit.frame import Frame
from framekit.rng import Stream, unit_vectors

from oracles import elliptic_values_solve


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """A new Python process with args (``-m framekit.cli ...`` or ``-c ...``),
    this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def test_construct_simplex(tmp_path, capsys):
    out = tmp_path / "s.json"
    code, _, _ = run_cli(capsys, "construct", "simplex", "--n", "3", "-o", str(out))
    assert code == 0
    with open(out) as fp:
        f = ser.read_frame(fp)
    assert (f.n, f.m) == (3, 4)


def test_construct_epsilon_pair_stdout(capsys):
    code, out, _ = run_cli(capsys, "construct", "epsilon-pair", "--eps", "0.25")
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["vectors"][0], [1.0, 0.0])


def test_construct_random_unit_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "construct", "random-unit", "--n", "3",
                            "--m", "5", "--seed", "7")
    assert code == 0
    _, out2, _ = run_cli(capsys, "construct", "random-unit", "--n", "3",
                         "--m", "5", "--seed", "7")
    assert out1 == out2


def test_construct_missing_param(capsys):
    code, _, err = run_cli(capsys, "construct", "epsilon-pair")
    assert code == 2 and "eps" in err


def test_construct_bad_param_is_domain_error(capsys):
    code, _, _ = run_cli(capsys, "construct", "epsilon-pair", "--eps", " 1.5")
    assert code == 3


def test_analyze_simplex(tmp_path, capsys):
    frame_file = tmp_path / "s.json"
    run_cli(capsys, "construct", "simplex", "--n", "2", "-o", str(frame_file))
    code, out, _ = run_cli(capsys, "analyze", str(frame_file))
    assert code == 0
    res = json.loads(out)["results"]
    assert res["frame_bounds"]["tight"]
    assert res["frame_bounds"]["upper"] == pytest.approx(1.5)
    assert res["equiangular_c"] == pytest.approx(0.25)
    assert res["outer_riesz_bounds"]["lower"] == pytest.approx(0.75)
    assert res["outer_riesz_bounds"]["upper"] == pytest.approx(1.5)


def test_analyze_orthonormal(tmp_path, capsys):
    frame_file = tmp_path / "o.json"
    run_cli(capsys, "construct", "orthonormal", "--n", "2", "-o", str(frame_file))
    code, out, _ = run_cli(capsys, "analyze", str(frame_file))
    res = json.loads(out)["results"]
    assert res["frame_bounds"] == {"lower": 1.0, "upper": 1.0,
                                   "tight": True, "parseval": True}


def test_analyze_biangular_3_reports_dependence(tmp_path, capsys):
    frame_file = tmp_path / "b.json"
    run_cli(capsys, "construct", "biangular", "--n", "3", "-o", str(frame_file))
    code, out, _ = run_cli(capsys, "analyze", str(frame_file))
    assert code == 0
    res = json.loads(out)["results"]
    assert res["outer_independent"] is False
    assert res["outer_riesz_bounds"] is None


def test_analyze_non_frame_reports_inside_document(tmp_path, capsys):
    doc = {"schema": "framekit/1", "field": "real", "n": 2, "vectors": [[1.0, 0.0]]}
    frame_file = tmp_path / "line.json"
    frame_file.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "analyze", str(frame_file))
    assert code == 0
    res = json.loads(out)["results"]
    assert res["spans"] is False and res["frame_bounds"] is None


@pytest.mark.parametrize("vectors, rank", [
    ([[1.0, 0.0], [np.cos(1e-8), np.sin(1e-8)]], 1),  # near-parallel pair
    ([[1e-160]], 0),                                  # outer Gram underflows
])
def test_analyze_rank_paths_agree_on_near_dependent_frames(tmp_path, capsys, vectors, rank):
    frame_file = tmp_path / "near.json"
    with open(frame_file, "w") as fp:
        ser.write_frame(Frame.from_vectors(np.array(vectors)), fp)
    code, out, err = run_cli(capsys, "analyze", str(frame_file))
    assert code == 0, err
    results = json.loads(out)["results"]
    assert results["outer_rank"] == rank and results["outer_independent"] is False


def test_analyze_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "analyze", str(bad))
    assert exc.value.code == 2


def test_analyze_nan_entry_exits_2_without_traceback(tmp_path):
    bad = tmp_path / "nan.json"
    bad.write_text('{"field": "real", "n": 2, "vectors": [[1.0, 0.0], [NaN, 1.0]]}')
    proc = run_python("-m", "framekit.cli", "analyze", str(bad))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "non-finite" in proc.stderr


@pytest.mark.parametrize("argv, code", [
    (["construct", "eij", "--n", "3000000000"], 3),
    (["construct", "orthonormal", "--n", "100000000000"], 3),
    (["classify", "F", "--grid", "9223372036854775807"], 2),
    (["classify", "F", "--grid", "2305843009213693951"], 2),
])
def test_sizes_too_large_to_hold_exit_without_traceback(tmp_path, argv, code):
    # each is refused before anything is allocated, so the outcome does not
    # depend on how the host overcommits memory
    frame_file = tmp_path / "r.json"
    with frame_file.open("w") as fp:
        ser.write_frame(cons.random_unit(3, 4, 1), fp)
    argv = [str(frame_file) if a == "F" else a for a in argv]
    proc = run_python("-m", "framekit.cli", *argv)
    assert proc.returncode == code
    assert proc.stdout == "" and proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"framekit {argv[0]}: ") and "Traceback" not in proc.stderr


def test_memory_error_exits_3_with_one_line(capsys, monkeypatch):
    def refuse(spec):
        raise MemoryError()
    monkeypatch.setattr(cons, "build", refuse)
    code, out, err = run_cli(capsys, "construct", "eij", "--n", "3")
    assert code == 3 and out == ""
    assert err == "framekit construct: the input is too large for memory\n"


@pytest.mark.parametrize("argv", [
    ["construct", "simplex", "-o", "OUT"],
    ["analyze", "F", "-o", "OUT"],
    ["analyze", "F", "--gram-csv", "OUT"],
    ["nudge", "F", "--eps", "0.1", "-o", "OUT"],
    ["nudge", "F", "--eps", "0.1", "-o", "OK", "--report", "OUT"],
])
def test_unwritable_output_path_exits_2_without_traceback(tmp_path, argv):
    frame_file = tmp_path / "b3.json"
    with frame_file.open("w") as fp:
        ser.write_frame(cons.biangular(3), fp)
    paths = {"F": str(frame_file), "OK": str(tmp_path / "ok.json"),
             "OUT": str(tmp_path / "missing" / "out")}
    proc = run_python("-m", "framekit.cli", *[paths.get(a, a) for a in argv])
    assert proc.returncode == 2
    assert proc.stderr == f"framekit: cannot write {paths['OUT']}: No such file or directory\n"
    assert not Path(paths["OK"]).exists()  # all outputs or none


def test_classify_candidate(tmp_path, capsys):
    frame_file = tmp_path / "o3.json"
    run_cli(capsys, "construct", "orthonormal", "--n", "3", "-o", str(frame_file))
    code, out, _ = run_cli(capsys, "classify", str(frame_file),
                           "--candidate", "[0, 1, 0]")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["verdict"] == "dependent"
    root_half = 1 / np.sqrt(2)
    code, out, _ = run_cli(capsys, "classify", str(frame_file),
                           "--candidate", json.dumps([root_half, root_half, 0.0]))
    res = json.loads(out)["results"]
    assert res["verdict"] == "independent"
    assert res["elliptic_value"] == pytest.approx(0.5)


def test_classify_grid(tmp_path, capsys):
    frame_file = tmp_path / "o3.json"
    run_cli(capsys, "construct", "orthonormal", "--n", "3", "-o", str(frame_file))
    code, out, _ = run_cli(capsys, "classify", str(frame_file),
                           "--grid", "300", "--seed", "5")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["samples"] == 300
    assert res["dependent_fraction"] == 0.0  # measure-zero locus


def test_classify_grid_and_candidate_report_the_permutation(tmp_path, capsys):
    # dependent outers: both paths classify against the greedy prefix (0,)
    frame_file = tmp_path / "dep.json"
    frame_file.write_text(json.dumps({"schema": "framekit/1", "field": "real", "n": 2,
                                      "vectors": [[1.0, 0.0], [1.0, 0.0]]}))
    for flags in (["--grid", "2"], ["--candidate", "[0, 1]"]):
        code, out, _ = run_cli(capsys, "classify", str(frame_file), *flags)
        assert code == 0
        assert json.loads(out)["permutation"] == [0]


@pytest.mark.parametrize("vectors", [[[0.0, 0.0]], [[1e-160, 0.0], [0.0, 1e-160]]])
def test_classify_frame_without_a_nonzero_outer_product_exits_3(tmp_path, capsys, vectors):
    frame_file = tmp_path / "zero.json"
    frame_file.write_text(json.dumps({"schema": "framekit/1", "field": "real", "n": 2,
                                      "vectors": vectors}))
    for flags in (["--grid", "2"], ["--candidate", "[0, 1]"]):
        code, out, err = run_cli(capsys, "classify", str(frame_file), *flags)
        assert code == 3 and out == ""
        assert err == ("framekit classify: NotIndependent: no outer product of the frame "
                       "is nonzero at the rank tolerance\n")


def test_classify_too_many_exits_3(tmp_path, capsys):
    frame_file = tmp_path / "e.json"
    run_cli(capsys, "construct", "eij", "--n", "2", "-o", str(frame_file))
    code, _, err = run_cli(capsys, "classify", str(frame_file),
                           "--candidate", "[1, 0]")
    assert code == 3 and "TooMany" in err


def test_classify_near_dependent_candidate_exits_0(tmp_path, capsys):
    # 1 - elliptic value = 2e-10: dependent at the verdict tolerance, while
    # the bordered rank still grows; this used to exit 3
    frame_file = tmp_path / "o3.json"
    run_cli(capsys, "construct", "orthonormal", "--n", "3", "-o", str(frame_file))
    cand = json.dumps([np.cos(1e-5), np.sin(1e-5), 0.0])
    code, out, _ = run_cli(capsys, "classify", str(frame_file), "--candidate", cand)
    assert code == 0
    assert json.loads(out)["results"]["verdict"] == "dependent"


def test_classify_grid_matches_lapack_solve(tmp_path, capsys):
    # complex N = 2, M = 3: 1 - elliptic value is a squared distance, so about
    # one candidate in 10^4 falls inside the verdict tolerance; seeds 7 and 0
    # give two of them in 2000 samples
    f = cons.random_unit(2, 3, 7, field="complex")
    frame_file = tmp_path / "c.json"
    with open(frame_file, "w") as fp:
        ser.write_frame(f, fp)
    code, out, _ = run_cli(capsys, "classify", str(frame_file), "--grid", "2000", "--seed", "0")
    assert code == 0
    res = json.loads(out)["results"]
    stream = Stream(0)
    cands = [stream.complex_normals(2) for _ in range(2000)]
    values = elliptic_values_solve(f.vectors, [c / np.linalg.norm(c) for c in cands])
    expected = np.flatnonzero(np.abs(values - 1.0) <= 1e-8)
    assert len(expected) == 2
    assert [row["sample"] for row in res["dependent_samples"]] == list(expected)
    assert res["dependent"] == 2 and res["dependent_fraction"] == 2 / 2000
    np.testing.assert_allclose([row["elliptic_value"] for row in res["dependent_samples"]],
                               values[expected], rtol=1e-12)


@pytest.mark.parametrize("candidate", [
    "[0.6,", "not json", '{"x": 1}', "0.6", '["a", 0, 0]', "[true, 0, 0]",
    "[[1, 0], 0, 0]", "[NaN, 0, 0]", "[1e999, 0, 0]", "[1, 0]", "[" + "9" * 400 + ", 0, 0]",
])
def test_classify_malformed_candidate_exits_2(tmp_path, capsys, candidate):
    frame_file = tmp_path / "o3.json"
    run_cli(capsys, "construct", "orthonormal", "--n", "3", "-o", str(frame_file))
    code, out, err = run_cli(capsys, "classify", str(frame_file), "--candidate", candidate)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flags", [
    ["--grid", "-3"], ["--grid", "0"], ["--grid", "5", "--tol", "-1"],
    ["--grid", "5", "--tol", "0"], ["--grid", "5", "--tol", "nan"],
    ["--candidate", "[1, 0, 0]", "--tol", "inf"],
])
def test_classify_out_of_range_flags_exit_2(tmp_path, capsys, flags):
    frame_file = tmp_path / "o3.json"
    run_cli(capsys, "construct", "orthonormal", "--n", "3", "-o", str(frame_file))
    code, out, err = run_cli(capsys, "classify", str(frame_file), *flags)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flags", [[], ["--candidate", "[1, 0, 0]", "--grid", "5"]])
def test_classify_takes_exactly_one_of_candidate_and_grid(tmp_path, capsys, flags):
    frame_file = tmp_path / "o3.json"
    run_cli(capsys, "construct", "orthonormal", "--n", "3", "-o", str(frame_file))
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "classify", str(frame_file), *flags)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["construct", "simplex", "--n", "2"], ["analyze", "F"], ["classify", "F", "--grid", "3"],
    ["nudge", "F", "--eps", "0.1"], ["verify", "--only", "pc2-identity"],
])
def test_bad_env_rank_tolerance_exits_2_for_every_command(tmp_path, capsys, monkeypatch, argv):
    frame_file = tmp_path / "o2.json"
    run_cli(capsys, "construct", "orthonormal", "--n", "2", "-o", str(frame_file))
    monkeypatch.setenv("FRAMEKIT_TOL", "abc")
    code, out, err = run_cli(capsys, *[str(frame_file) if a == "F" else a for a in argv])
    assert code == 2 and out == ""
    assert "FRAMEKIT_TOL" in err and len(err.strip().splitlines()) == 1


def test_analyze_overflowing_gram_exits_2(tmp_path, capsys):
    bad = tmp_path / "huge.json"
    bad.write_text('{"field": "real", "n": 2, "vectors": [[1e308, 1e308], [0.0, 1.0]]}')
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "analyze", str(bad))
    assert exc.value.code == 2
    assert "too large" in capsys.readouterr().err


def test_nudge(tmp_path, capsys):
    frame_file = tmp_path / "b3.json"
    run_cli(capsys, "construct", "biangular", "--n", "3", "-o", str(frame_file))
    out_file = tmp_path / "fixed.json"
    report_file = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "nudge", str(frame_file), "--eps", "0.1",
                         "-o", str(out_file), "--report", str(report_file))
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["results"]["outer_independent"] is True
    assert report["results"]["moved"] < 0.1
    with open(out_file) as fp:
        g = ser.read_frame(fp)
    assert g.m == 6


def test_nudge_leaves_every_output_as_it_was_when_one_cannot_be_written(tmp_path, capsys):
    frame_file = tmp_path / "b3.json"
    run_cli(capsys, "construct", "biangular", "--n", "3", "-o", str(frame_file))
    ok = tmp_path / "ok.json"
    ok.write_text("old")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "nudge", str(frame_file), "--eps", "0.1",
                "-o", str(ok), "--report", str(tmp_path / "missing" / "r.json"))
    assert exc.value.code == 2
    assert ok.read_text() == "old"  # not truncated


def test_nudge_report_without_output_prints_the_frame(tmp_path, capsys):
    frame_file = tmp_path / "b3.json"
    run_cli(capsys, "construct", "biangular", "--n", "3", "-o", str(frame_file))
    report_file = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "nudge", str(frame_file), "--eps", "0.1",
                           "--report", str(report_file))
    assert code == 0
    assert json.loads(report_file.read_text())["command"] == "nudge"
    assert ser.frame_from_json(out).m == 6


def test_nudge_combined_stdout(tmp_path, capsys):
    frame_file = tmp_path / "b3.json"
    run_cli(capsys, "construct", "biangular", "--n", "3", "-o", str(frame_file))
    code, out, _ = run_cli(capsys, "nudge", str(frame_file), "--eps", "0.1")
    doc = json.loads(out)
    assert set(doc) == {"frame", "report"}


def test_verify_list_and_single_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    assert "biangular-table" in out.split()
    code, out, err = run_cli(capsys, "verify", "--only", "biangular-table")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 5 and doc["failures"] == 0
    assert err.count("PASS") == 5


def test_verify_unknown_check(capsys):
    code, _, _ = run_cli(capsys, "verify", "--only", "nope")
    assert code == 2


@pytest.mark.parametrize("name", ["", "nope"])
def test_verify_unknown_or_empty_check_name_exits_2_pointing_to_list(capsys, name):
    code, out, err = run_cli(capsys, "verify", "--only", name)
    assert (code, out) == (2, "")
    assert err == f"framekit verify: unknown check '{name}'; see framekit verify --list\n"


def test_rank_tolerance_env_override(tmp_path, capsys, monkeypatch):
    # a nearly-dependent pair flips verdicts under a coarse tolerance
    v = np.array([[1.0, 0.0], [1.0, 1e-5]])
    v[1] /= np.linalg.norm(v[1])
    frame_file = tmp_path / "near.json"
    with open(frame_file, "w") as fp:
        ser.write_frame(Frame.from_vectors(v), fp)
    _, out, _ = run_cli(capsys, "analyze", str(frame_file))
    assert json.loads(out)["results"]["outer_independent"] is True
    monkeypatch.setenv("FRAMEKIT_TOL", "1e-3")
    _, out, _ = run_cli(capsys, "analyze", str(frame_file))
    assert json.loads(out)["results"]["outer_independent"] is False


def _per_sample_candidates(stream, k, n, field):
    rows = []
    for _ in range(k):
        cand = stream.complex_normals(n) if field == "complex" else stream.normals(n)
        rows.append(cand / np.linalg.norm(cand))
    return np.array(rows)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_grid_candidates_equal_per_sample_draws_bit_for_bit(field, n):
    batched = unit_vectors(Stream(17), 40, n, field == "complex")
    per_sample = _per_sample_candidates(Stream(17), 40, n, field)
    assert batched.dtype == per_sample.dtype and batched.shape == (40, n)
    assert batched.tobytes() == per_sample.tobytes()


@pytest.mark.parametrize("field", ["real", "complex"])
def test_grid_sample_does_not_depend_on_grid_size(field):
    one = unit_vectors(Stream(5), 1, 3, field == "complex")
    many = unit_vectors(Stream(5), 300, 3, field == "complex")
    assert one[0].tobytes() == many[0].tobytes()
    assert unit_vectors(Stream(5), 120, 3, field == "complex").tobytes() == many[:120].tobytes()


def _large_norm_frame(tmp_path):
    frame_file = tmp_path / "big.json"
    with open(frame_file, "w") as fp:
        ser.write_frame(Frame.from_vectors(np.array([[1e5, 0.0], [0.0, 1e5]])), fp)
    return frame_file


def test_classify_frame_of_large_norm(tmp_path, capsys):
    # the bordered Gram's rank tolerance used to scale with the frame's norm
    # and drown the candidate's corner 1: exit 3 for every candidate
    frame_file = _large_norm_frame(tmp_path)
    code, out, err = run_cli(capsys, "classify", str(frame_file), "--candidate", "[0.6, 0.8]")
    assert code == 0, err
    res = json.loads(out)["results"]
    assert res["verdict"] == "independent"
    assert res["elliptic_value"] == pytest.approx(0.5392, rel=1e-12)
    code, out, err = run_cli(capsys, "classify", str(frame_file), "--grid", "50")
    assert code == 0, err
    assert json.loads(out)["results"]["samples"] == 50


@pytest.mark.parametrize("text", [
    '{"field": "real", "n": "abc", "vectors": [[1]]}',
    '{"field": "real", "n": 1, "vectors": 5}',
    '{"field": "real", "n": 1, "vectors": [[[1]]]}',
    '{"field": "complex", "n": 1, "vectors": [[1]]}',
    '{"field": "real", "n": 1, "vectors": [["x"]]}',
])
def test_malformed_frame_document_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "analyze", str(bad))
    assert exc.value.code == 2
    assert "malformed frame document" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b'{"field": "real", "n": 1, "vectors": [[1.0]]}\xff',  # not UTF-8
    b"[" * 100000 + b"]" * 100000,  # nested beyond the parser's recursion limit
])
def test_unreadable_frame_document_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "analyze", str(bad))
    assert exc.value.code == 2


@pytest.mark.parametrize("eps", ["nan", "inf", "-1", "0"])
def test_nudge_rejects_a_non_finite_or_non_positive_eps(tmp_path, capsys, eps):
    frame_file = tmp_path / "b3.json"
    run_cli(capsys, "construct", "biangular", "--n", "3", "-o", str(frame_file))
    code, out, err = run_cli(capsys, "nudge", str(frame_file), f"--eps={eps}")
    assert code == 2 and out == ""
    assert "--eps must be finite and positive" in err


def test_nudge_eps_whose_budget_underflows(tmp_path, capsys):
    frame_file = tmp_path / "b3.json"
    run_cli(capsys, "construct", "biangular", "--n", "3", "-o", str(frame_file))
    code, out, err = run_cli(capsys, "nudge", str(frame_file), "--eps", "1e-300")
    assert code == 3 and out == ""
    assert "too small" in err and "underflows" in err


def test_nudge_eps_below_what_the_rank_rule_resolves(tmp_path, capsys):
    frame_file = tmp_path / "b3.json"
    run_cli(capsys, "construct", "biangular", "--n", "3", "-o", str(frame_file))
    code, out, err = run_cli(capsys, "nudge", str(frame_file), "--eps", "1e-6")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "InternalInconsistency" not in err
    assert err.startswith("framekit nudge: BadParam: eps = 1e-06 is too small")


def test_nudge_framekit_tol_too_coarse_for_the_nearby_basis(tmp_path, capsys, monkeypatch):
    frame_file = tmp_path / "near.json"
    f = Frame.from_vectors(np.vstack([cons.epsilon_pair(0.9999).vectors,
                                      cons.random_unit(2, 1, 3).vectors]))
    with frame_file.open("w") as fp:
        ser.write_frame(f, fp)
    monkeypatch.setenv("FRAMEKIT_TOL", "1e-3")
    code, out, err = run_cli(capsys, "nudge", str(frame_file), "--eps", "0.1")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "InternalInconsistency" not in err
    assert err.startswith("framekit nudge: BadParam: FRAMEKIT_TOL = 0.001 is too coarse")


@pytest.mark.parametrize("argv", [["analyze", "F"], ["classify", "F", "--grid", "5"],
                                  ["nudge", "F", "--eps", "0.1", "--report", "R"]])
def test_commands_other_than_verify_leave_the_suite_unrun(tmp_path, argv):
    frame_file = tmp_path / "b3.json"
    ser.write_frame(cons.biangular(3), frame_file.open("w"))
    paths = {"F": str(frame_file), "R": str(tmp_path / "report.json")}
    argv = [paths.get(a, a) for a in argv] + ["-o", str(tmp_path / "out.json")]
    # the suite's module is registered but its code has not run: its
    # namespace, read past the lazy loader (which would run it), lacks the
    # checks until one of its names is first used
    script = ("import sys, framekit.cli; code = framekit.cli.main(sys.argv[1:]); "
              "m = sys.modules['framekit.verify']; "
              "ran = lambda: 'CHECKS' in object.__getattribute__(m, '__dict__'); "
              "before = ran(); m.list_checks(); print(code, before, ran())")
    proc = run_python("-c", script, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "True"]


def test_cli_import_does_not_load_fractions():
    proc = run_python("-c", "import sys, framekit.cli; print('fractions' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _exit_code(call):
    """The code call() returns, or that of the SystemExit it raises."""
    try:
        return call()
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, code", [
    (["construct", "simplex", "--n", "3"], 0),
    (["--version"], 0),  # argparse's SystemExit(0)
    (["bogus"], 2),  # argparse's usage error
    (["construct", "simplex", "--n", "0"], 3),
    (["verify", "--only", "pc2-identity"], 1),  # its check patched to fail
])
def test_run_exits_with_mains_code_and_freezes_once(capsys, monkeypatch, argv, code):
    if code == 1:
        failed = verify._row("pc2-identity", "forced", 1.0, 0.0, None, False)
        monkeypatch.setitem(verify.CHECKS, "pc2-identity", lambda: [failed])
    freezes = []  # the pytest process itself is never frozen
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(argv))
    assert _exit_code(lambda: cli.main(argv)) == code
    assert freezes == []
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == code
    assert freezes == [argv]


def test_main_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count()
    for argv in (["construct", "simplex", "--n", "3"], ["construct", "simplex", "--n", "0"],
                 ["verify", "--only", "pc2-identity"], ["--version"], ["bogus"]):
        _exit_code(lambda: cli.main(argv))
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv", [
    ["analyze", "F"],
    ["classify", "F", "--grid", "25"],
    ["nudge", "D", "--eps", "0.1"],
    ["verify", "--only", "pc2-identity"],
    ["--version"],
    ["bogus"],
    ["classify", "E", "--candidate", "[1, 0]"],  # TooMany: exit 3
])
def test_a_process_prints_what_main_prints(tmp_path, capsys, monkeypatch, argv):
    # the child's stdout is a block-buffered pipe, so an exit that skipped
    # the interpreter's flush would lose it
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    frames = {"F": cons.biangular(3), "E": cons.eij_basis(2),
              "D": Frame.from_vectors([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])}
    for name, f in frames.items():
        with (tmp_path / f"{name}.json").open("w") as fp:
            ser.write_frame(f, fp)
    argv = [str(tmp_path / f"{a}.json") if a in frames else a for a in argv]
    code = _exit_code(lambda: cli.main(argv))
    captured = capsys.readouterr()
    proc = run_python("-m", "framekit.cli", *argv)

    def untimed(text):  # verify's per-check seconds differ from run to run
        return re.sub(r'"seconds": \{[^}]*\}', '"seconds": {}', text)

    assert (proc.returncode, untimed(proc.stdout), proc.stderr) == \
        (code, untimed(captured.out), captured.err)


def test_nudge_repairs_a_complex_frame_of_real_valued_vectors(tmp_path, capsys):
    # E_ij for N = 3 and e_1 again, as a complex frame: M = 7 <= 9, and the
    # repair needs an outer product off the real symmetric matrices
    frame_file = tmp_path / "eij3e1.json"
    f = Frame(field="complex", vectors=np.vstack([cons.eij_basis(3).vectors, [1.0, 0.0, 0.0]]))
    with frame_file.open("w") as fp:
        ser.write_frame(f, fp)
    code, out, err = run_cli(capsys, "nudge", str(frame_file), "--eps", "0.1")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["report"]["results"]["outer_independent"] is True
    assert doc["report"]["results"]["moved"] < 0.1
    assert ser.frame_from_json(json.dumps(doc["frame"])).field == "complex"
