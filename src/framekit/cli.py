"""Command-line front end.

    framekit construct <kind> --n N [...]      emit a frame document
    framekit analyze FRAME.json                bounds, spectra, flags
    framekit classify FRAME.json ...           dependence classification
    framekit nudge FRAME.json --eps E          repair dependent outers
    framekit verify [--only NAME | --list]     run the reproduction suite

Frame documents travel as JSON on stdout (or -o FILE); diagnostics go to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage or parse
error (an output path that cannot be written included), 3 domain
precondition violation or an input too large for memory.

A process ends in ``run``, which exits with ``main``'s code after freezing
the garbage collector so that the interpreter's shutdown collection skips
the objects built at import; ``main`` is the in-process API and leaves the
collector of its caller untouched.

Each library module is bound here lazily (``_lazy_module``), so a process
compiles and runs only the modules its command calls: ``--version`` runs
none, ``analyze`` leaves the classifier, the nudge and the suite unrun.
"""

import argparse
import gc
import importlib.util
import io
import json
import math
import os
import stat
import sys

import numpy as np

from . import __version__
from .errors import BadParam, FramekitError, NotAFrame, NotIndependent

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _lazy_module(name: str):
    """The module ``name``, registered in sys.modules at once but compiled
    and run only when one of its attributes is first read.

    A command then pays only for the modules it calls (and those they
    import), while every module stays importable by name: the layer tracer
    of ``perfbench`` looks each one up in sys.modules, so a module is bound
    here rather than imported inside the command that uses it.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


cons = _lazy_module("framekit.constructions")
frame = _lazy_module("framekit.frame")
geometry = _lazy_module("framekit.geometry")
matcore = _lazy_module("framekit.matcore")  # not called here; registered for the tracer
outer = _lazy_module("framekit.outer")
perturb = _lazy_module("framekit.perturb")
rng = _lazy_module("framekit.rng")
serialization = _lazy_module("framekit.serialization")
verify_mod = _lazy_module("framekit.verify")


def _write_files(outputs) -> None:
    """Write each (path, text) of outputs to its path, all or none.

    Every path is opened, without truncating it, before any is written, so
    a path that cannot be opened, or two that name one regular file (one
    string or two links; a pipe or device may take several), exit 2 with
    one line and leave every path as it was (a file this call created is
    removed again).
    """
    files, created, owners = [], [], {}
    try:
        for i, (path, text) in enumerate(outputs):
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                created.append(path)
            except FileExistsError:
                fd = os.open(path, os.O_WRONLY)
            files.append((open(fd, "w", newline=""), path, text))
            info = os.fstat(fd)
            first = owners.setdefault((info.st_dev, info.st_ino), i)
            if first != i and stat.S_ISREG(info.st_mode):
                raise OSError(f"another output ({outputs[first][0]}) names the same file")
        for fp, path, text in files:
            with fp:
                if stat.S_ISREG(os.fstat(fp.fileno()).st_mode):  # not a pipe or device
                    fp.truncate()
                fp.write(text)
    except OSError as exc:
        for fp, _, _ in files:
            fp.close()
        for made in created:
            os.remove(made)
        print(f"framekit: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(*outputs) -> None:
    """Write each (path, text) of outputs: those with a path to their files,
    all or none (_write_files), then the others to stdout."""
    _write_files([(path, text) for path, text in outputs if path])
    for path, text in outputs:
        if not path:
            sys.stdout.write(text)


def _load_frame(path):
    try:
        with open(path) as fp:
            return serialization.read_frame(fp)
    # ValueError: not JSON or not UTF-8; RecursionError: nested too deeply
    except (OSError, ValueError, RecursionError, BadParam) as exc:
        print(f"framekit: cannot read frame document {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _report(command: str, inputs: dict, results: dict, tolerances: dict,
            permutation=None) -> dict:
    doc = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "tolerances": tolerances,
        "version": __version__,
    }
    if permutation is not None:
        doc["permutation"] = list(permutation)
    return doc


def cmd_construct(args) -> int:
    kind = args.kind.replace("-", "_")
    params = {}
    if kind == "epsilon_pair":
        if args.eps is None:
            print("framekit construct: epsilon-pair needs --eps", file=sys.stderr)
            return EXIT_USAGE
        params["eps"] = args.eps
    if kind == "random_unit":
        if args.m is None:
            print("framekit construct: random-unit needs --m", file=sys.stderr)
            return EXIT_USAGE
        params.update(m=args.m, seed=args.seed, field=args.field)
    if kind == "orthonormal":
        params["field"] = args.field
    n = args.n if args.n is not None else 2
    try:
        f = cons.build(kind, n, **params)
    except BadParam as exc:
        print(f"framekit construct: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    doc = serialization.frame_to_doc(f, name=args.kind,
                                     construction={"kind": kind, "n": n, **params})
    _emit((args.output, serialization.to_json(doc)))
    return EXIT_OK


def cmd_analyze(args) -> int:
    f = _load_frame(args.frame)
    results = {}
    tol = {"rank": "max(rows,cols)*eps*sigma_max", "tight": frame.TIGHT_RELTOL,
           "equiangular": frame.EQUIANGULAR_TOL}
    results["m"] = f.m
    results["n"] = f.n
    results["field"] = f.field
    results["unit_norm"] = f.is_unit_norm
    try:  # frame_bounds tests spans itself, so the synthesis is decomposed once
        fb = frame.frame_bounds(f)
        results["spans"] = True
        results["frame_bounds"] = {"lower": fb.lower, "upper": fb.upper,
                                   "tight": fb.tight, "parseval": fb.parseval}
    except NotAFrame:
        results["spans"] = False
        results["frame_bounds"] = None
        results["note"] = "input does not span its ambient space; not a frame"
    try:
        rb = frame.riesz_bounds(f)
        results["riesz_bounds"] = {"lower": rb.lower, "upper": rb.upper}
    except NotIndependent:
        results["riesz_bounds"] = None
    results["frame_potential"] = frame.frame_potential(f)
    if f.is_unit_norm:
        c = frame.is_equiangular(f)
        results["equiangular_c"] = c
    os_ = outer.induce(f)
    results["outer_gram_spectrum"] = [float(x) for x in os_.gram_spectrum.eigenvalues]
    results["outer_rank"] = os_.rank
    results["outer_independent"] = outer.is_independent(os_)
    if results["outer_independent"]:
        ob = outer.outer_riesz_bounds(os_)
        results["outer_riesz_bounds"] = {"lower": ob.lower, "upper": ob.upper}
    else:
        results["outer_riesz_bounds"] = None
    if f.is_unit_norm:
        rep = outer.optimal_bound_report(os_)
        results["optimal_bounds"] = {
            "upper_bound_floor": rep.upper_bound_floor,
            "lower_bound_ceiling": rep.lower_bound_ceiling,
            "achieved_upper": rep.achieved_upper,
            "achieved_lower": rep.achieved_lower,
        }
    report = _report("analyze", {"frame": args.frame}, results, tol)
    outputs = [(args.output, serialization.to_json(report))]
    if args.gram_csv:
        csv_text = io.StringIO()
        serialization.write_matrix_csv(os_.gram_op, csv_text)
        outputs.append((args.gram_csv, csv_text.getvalue()))
    _emit(*outputs)
    return EXIT_OK


def _parse_candidate(text: str, n: int, field: str) -> np.ndarray:
    """The --candidate vector; BadParam for anything but a list of n finite
    numbers (pairs [re, im] allowed over the complex field)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadParam(f"--candidate is not valid JSON ({exc})") from None
    if not isinstance(raw, list):
        raise BadParam("--candidate must be a JSON list")
    if len(raw) != n:
        raise BadParam(f"candidate has length {len(raw)}, frame dimension is {n}")
    entries = []
    for x in raw:
        if (field == "complex" and isinstance(x, list) and len(x) == 2
                and all(map(serialization.is_number, x))):
            entries.append(x)
        elif serialization.is_number(x):
            entries.append([x, 0] if field == "complex" else x)
        else:
            raise BadParam(f"--candidate entry {json.dumps(x)} is not a number")
    try:
        vec = np.array(entries, dtype=float)
    except OverflowError:
        raise BadParam("--candidate has an entry too large for a float") from None
    if not np.all(np.isfinite(vec)):
        raise BadParam("--candidate has non-finite entries")
    return vec[:, 0] + 1j * vec[:, 1] if field == "complex" else vec


def cmd_classify(args) -> int:
    f = _load_frame(args.frame)
    inputs = {"frame": args.frame}
    tol = geometry.DEFAULT_VERDICT_TOL if args.tol is None else args.tol
    tolerances = {"verdict": tol}
    if not (math.isfinite(tol) and tol > 0.0):
        print(f"framekit classify: --tol must be finite and positive, got {tol}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.grid is not None and args.grid < 1:
        print(f"framekit classify: --grid must be at least 1, got {args.grid}", file=sys.stderr)
        return EXIT_USAGE
    if args.grid is not None:
        try:
            cands = rng.unit_vectors(rng.Stream(args.seed), args.grid, f.n, f.field == "complex")
        except BadParam as exc:
            print(f"framekit classify: --grid {args.grid}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        batch = geometry.classify_batch(geometry.prepare(f), cands, tol=tol)
        rows = [{"sample": int(k), "elliptic_value": float(batch.elliptic_value[k])}
                for k in np.flatnonzero(batch.dependent)]
        results = {"samples": args.grid, "dependent": len(rows),
                   "dependent_fraction": len(rows) / args.grid,
                   "dependent_samples": rows}
        inputs["seed"] = args.seed
        report = _report("classify", inputs, results, tolerances, permutation=batch.permutation)
        _emit((args.output, serialization.to_json(report)))
        return EXIT_OK
    try:
        cand = _parse_candidate(args.candidate, f.n, f.field)
    except BadParam as exc:
        print(f"framekit classify: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rep = geometry.classify(f, cand, tol=tol)
    results = {
        "verdict": rep.verdict,
        "elliptic_value": rep.elliptic_value,
        "analysis_image": [[z.real, z.imag] for z in rep.tv.astype(complex)],
    }
    report = _report("classify", inputs, results, tolerances, permutation=rep.permutation)
    _emit((args.output, serialization.to_json(report)))
    return EXIT_OK


def cmd_nudge(args) -> int:
    if not (math.isfinite(args.eps) and args.eps > 0.0):
        print(f"framekit nudge: --eps must be finite and positive, got {args.eps}",
              file=sys.stderr)
        return EXIT_USAGE
    f = _load_frame(args.frame)
    g = perturb.nudge_to_independence(f, args.eps)
    os_ = outer.induce(g)
    report = _report("nudge", {"frame": args.frame, "eps": args.eps},
                     {"moved": perturb.movement(f, g), "outer_rank": os_.rank,
                      "outer_independent": os_.rank == g.m},
                     {"movement_budget": args.eps})
    frame_doc = serialization.frame_to_doc(g, name="nudged")
    if args.output or args.report:
        _emit((args.output, serialization.to_json(frame_doc)),
              (args.report, serialization.to_json(report)))
    else:
        _emit((None, serialization.to_json({"frame": frame_doc, "report": report})))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.list:
        for name in verify_mod.list_checks():
            print(name)
        return EXIT_OK
    try:
        rows, timings = verify_mod.run_checks(only=args.only)
    except KeyError as exc:
        print(f"framekit verify: {exc.args[0]}; see framekit verify --list", file=sys.stderr)
        return EXIT_USAGE
    for r in rows:
        mark = "PASS" if r.passed else "FAIL"
        tol = "" if r.tolerance is None else f" tol={r.tolerance:g}"
        print(f"{mark} {r.check}: {r.case} measured={r.measured:g} "
              f"expected {r.expected}{tol}", file=sys.stderr)
    failures = [r for r in rows if not r.passed]
    doc = {
        "command": "verify",
        "rows": verify_mod.rows_to_dicts(rows),
        "failures": len(failures),
        "seconds": timings,
        "version": __version__,
    }
    _emit((args.output, serialization.to_json(doc)))
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """An argument parser (and, through add_subparsers, subcommand parsers)
    whose usage errors exit 2 with one line on stderr."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="framekit",
                                     description="frames and their outer-product sequences")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a frame document")
    p.add_argument("kind", choices=["orthonormal", "eij", "complex-eij", "simplex",
                                    "biangular", "epsilon-pair", "random-unit"])
    p.add_argument("--n", type=int, default=None, help="ambient dimension")
    p.add_argument("--eps", type=float, default=None, help="epsilon-pair parameter")
    p.add_argument("--m", type=int, default=None, help="vector count (random-unit)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", choices=["real", "complex"], default="real")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="bounds, spectra, and flags of a frame")
    p.add_argument("frame")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--gram-csv", default=None,
                   help="also write the outer-product Gram matrix as CSV")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="dependence classification of candidates")
    p.add_argument("frame")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--candidate", default=None,
                       help='JSON vector, e.g. "[0.6, 0.8]" or "[[re, im], ...]"')
    group.add_argument("--grid", type=int, default=None,
                       help="sample this many unit-sphere candidates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)  # None: geometry.DEFAULT_VERDICT_TOL
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("nudge", help="repair dependent outer products")
    p.add_argument("frame")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("-o", "--output", default=None, help="nudged frame document")
    p.add_argument("--report", default=None, help="report document path")
    p.set_defaults(func=cmd_nudge)

    p = sub.add_parser("verify", help="run the reproduction suite")
    p.add_argument("--only", default=None, help="run a single named check")
    p.add_argument("--list", action="store_true", help="list check names")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except MemoryError:
        print(f"framekit {args.command}: the input is too large for memory", file=sys.stderr)
        return EXIT_DOMAIN
    except FramekitError as exc:
        print(f"framekit {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run(argv=None) -> None:
    """The process entry point: exit with ``main(argv)``'s code.

    The collector is frozen on every way out, argparse's ``SystemExit``
    included, so the interpreter's shutdown collections skip the objects
    built at import (numpy's and framekit's classes, functions and module
    dicts) and the operating system reclaims them.
    """
    try:
        sys.exit(main(argv))
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
