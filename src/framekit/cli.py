"""Command-line front end.

    framekit construct <kind> --n N [...]      emit a frame document
    framekit analyze FRAME.json                bounds, spectra, flags
    framekit classify FRAME.json ...           dependence classification
    framekit nudge FRAME.json --eps E          repair dependent outers
    framekit verify [--only NAME | --list]     run the reproduction suite

Frame documents travel as JSON on stdout (or -o FILE); diagnostics go to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage or parse
error, 3 domain precondition violation.  FRAMEKIT_TOL overrides the
default rank tolerance.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, constructions as cons, geometry, matcore, outer, serialization
from . import perturb, verify as verify_mod
from .errors import BadParam, FramekitError, NotIndependent
from .frame import frame_bounds, frame_potential, is_equiangular, riesz_bounds, spans
from .rng import Stream, unit_vectors

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _emit(doc: dict, path) -> None:
    if path:
        with open(path, "w") as fp:
            json.dump(doc, fp, indent=2)
            fp.write("\n")
    else:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _load_frame(path):
    try:
        with open(path) as fp:
            return serialization.read_frame(fp)
    except (OSError, json.JSONDecodeError, BadParam) as exc:
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
    spec = cons.ConstructionSpec(kind=kind, n=n, params=params)
    try:
        f = cons.build(spec)
    except BadParam as exc:
        print(f"framekit construct: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    _emit(serialization.frame_to_doc(f, name=args.kind, construction=spec.to_dict()),
          args.output)
    return EXIT_OK


def cmd_analyze(args) -> int:
    f = _load_frame(args.frame)
    results = {}
    tol = {"rank": "max(rows,cols)*eps*sigma_max (FRAMEKIT_TOL overrides)",
           "tight": 1e-10, "equiangular": 1e-10}
    results["m"] = f.m
    results["n"] = f.n
    results["field"] = f.field
    results["unit_norm"] = f.is_unit_norm
    results["spans"] = spans(f)
    if results["spans"]:
        fb = frame_bounds(f)
        results["frame_bounds"] = {"lower": fb.lower, "upper": fb.upper,
                                   "tight": fb.tight, "parseval": fb.parseval}
    else:
        results["frame_bounds"] = None
        results["note"] = "input does not span its ambient space; not a frame"
    try:
        rb = riesz_bounds(f)
        results["riesz_bounds"] = {"lower": rb.lower, "upper": rb.upper}
    except NotIndependent:
        results["riesz_bounds"] = None
    results["frame_potential"] = frame_potential(f)
    if f.is_unit_norm:
        c = is_equiangular(f)
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
    if args.gram_csv:
        with open(args.gram_csv, "w", newline="") as fp:
            serialization.write_matrix_csv(os_.gram_op, fp)
    _emit(_report("analyze", {"frame": args.frame}, results, tol), args.output)
    return EXIT_OK


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


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
                and all(map(_is_number, x))):
            entries.append(x)
        elif _is_number(x):
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
    tolerances = {"verdict": args.tol}
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        print(f"framekit classify: --tol must be finite and positive, got {args.tol}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.grid is not None and args.grid < 1:
        print(f"framekit classify: --grid must be at least 1, got {args.grid}", file=sys.stderr)
        return EXIT_USAGE
    if args.grid is not None:
        cands = unit_vectors(Stream(args.seed), args.grid, f.n, f.field == "complex")
        batch = geometry.classify_batch(geometry.prepare(f), cands, tol=args.tol)
        rows = [{"sample": int(k), "elliptic_value": float(batch.elliptic_value[k])}
                for k in np.flatnonzero(batch.dependent)]
        results = {"samples": args.grid, "dependent": len(rows),
                   "dependent_fraction": len(rows) / args.grid,
                   "dependent_samples": rows}
        inputs["seed"] = args.seed
        _emit(_report("classify", inputs, results, tolerances), args.output)
        return EXIT_OK
    if args.candidate is None:
        print("framekit classify: need --candidate or --grid", file=sys.stderr)
        return EXIT_USAGE
    try:
        cand = _parse_candidate(args.candidate, f.n, f.field)
    except BadParam as exc:
        print(f"framekit classify: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rep = geometry.classify(f, cand, tol=args.tol)
    results = {
        "verdict": rep.verdict,
        "elliptic_value": rep.elliptic_value,
        "quartic_value": rep.quartic_value,
        "ellipsoid_residual": rep.ellipsoid_residual,
        "analysis_image": [[z.real, z.imag] for z in rep.tv.astype(complex)],
    }
    _emit(_report("classify", inputs, results, tolerances,
                  permutation=rep.permutation), args.output)
    return EXIT_OK


def cmd_nudge(args) -> int:
    f = _load_frame(args.frame)
    g = perturb.nudge_to_independence(f, args.eps)
    movement = float(sum(np.linalg.norm(g.vectors[i] - f.vectors[i]) for i in range(f.m)))
    os_ = outer.induce(g)
    report = _report("nudge", {"frame": args.frame, "eps": args.eps},
                     {"moved": movement, "outer_rank": os_.rank,
                      "outer_independent": os_.rank == g.m},
                     {"movement_budget": args.eps})
    frame_doc = serialization.frame_to_doc(g, name="nudged")
    if args.output:
        _emit(frame_doc, args.output)
        _emit(report, args.report)
    else:
        _emit({"frame": frame_doc, "report": report}, None)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.list:
        for name in verify_mod.list_checks():
            print(name)
        return EXIT_OK
    try:
        rows, timings = verify_mod.run_checks(only=args.only)
    except KeyError as exc:
        print(f"framekit verify: {exc}", file=sys.stderr)
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
    _emit(doc, args.output)
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="framekit",
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
    p.add_argument("--candidate", default=None,
                   help='JSON vector, e.g. "[0.6, 0.8]" or "[[re, im], ...]"')
    p.add_argument("--grid", type=int, default=None,
                   help="sample this many unit-sphere candidates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=geometry.DEFAULT_VERDICT_TOL)
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
        matcore.env_rank_tol()
    except BadParam as exc:
        print(f"framekit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except FramekitError as exc:
        print(f"framekit {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
