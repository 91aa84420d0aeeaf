"""Layered benchmark of the framekit CLI.

    python3 perfbench/run.py --workload large-frames --seed 1 --seconds 38 --trace 0

Run from the root of a framekit checkout; the program is imported from
its ``src`` directory.  With ``--trace 0`` the workload's commands run as
fresh, serial ``python -m framekit.cli`` subprocesses (BLAS pinned to one
thread, everything pinned to one CPU) for about ``--seconds`` seconds and
the end-to-end metrics are reported; each child's wall time is scaled to
reference speed by the ``reference`` kernel timed before and after it.
With ``--trace 1`` the same commands run in process through
``framekit.cli.main``, once plain and once with the layer tracer
installed, and the per-layer metrics are reported.  Every output is
checked by ``oracle``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os
import sys

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_THREADS:  # before numpy loads its BLAS, here and in children
    os.environ[_var] = "1"
os.environ.pop("FRAMEKIT_TOL", None)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
#: Longest stretch a child runs between two runs of the reference kernel.
SLICE_S = 0.5
#: Every child and the whole run must end well inside 180 seconds.
RUN_DEADLINE_S = 165.0

END_TO_END = {"wall_s": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class Runner:
    """Serial child processes against one checkout, with a run deadline."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.src = root / "src"
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env["PYTHONPATH"] = str(self.src)
        reference.measure()  # warm-up
        self.last_ref = reference.measure()
        self.samples = []  # (command, wall s, wall s at reference speed, slices)

    def timed(self, argv) -> tuple:
        """(exit code, stdout, wall seconds, wall seconds at reference speed).

        The child runs in slices of at most ``SLICE_S``: at the end of a
        slice it is stopped (SIGSTOP), the reference kernel runs, and the
        child continues (SIGCONT).  Each slice is scaled by the mean of the
        kernel times on either side of it, so a long child is corrected as
        finely as a short one; the wall time counts the slices only.
        """
        raw = scaled = 0.0
        slices = 0
        before = self.last_ref
        with tempfile.TemporaryFile(dir=self.workdir) as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "framekit.cli", *argv],
                                    cwd=self.root, env=self.env, stdout=out,
                                    stderr=subprocess.DEVNULL)
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                while True:
                    exited = bool(poller.poll(SLICE_S * 1000))
                    if not exited:
                        os.kill(proc.pid, signal.SIGSTOP)
                        _, status = os.waitpid(proc.pid, os.WUNTRACED)
                        if not os.WIFSTOPPED(status):  # ended before the stop
                            exited = True
                            proc.returncode = os.waitstatus_to_exitcode(status)
                    dt = time.perf_counter() - start
                    self.last_ref = after = reference.measure()
                    raw += dt
                    scaled += dt * reference.NOMINAL_S * 2.0 / (before + after)
                    slices += 1
                    before = after
                    if exited:
                        break
                    if self.expired():
                        proc.kill()
                        break
                    start = time.perf_counter()
                    os.kill(proc.pid, signal.SIGCONT)
            finally:
                os.close(pidfd)
                if proc.returncode is None and proc.poll() is None:
                    proc.kill()
                rc = proc.wait()
            out.seek(0)
            stdout = out.read().decode()
        self.samples.append((argv[0], round(raw, 4), round(scaled, 4), slices))
        return (rc if rc >= 0 else -9), stdout, raw, scaled

    def check_source(self) -> None:
        """Children must import framekit from this checkout's src, nothing else."""
        proc = subprocess.run([sys.executable, "-c", "import framekit; print(framekit.__file__)"],
                              cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=60)
        where = Path(proc.stdout.strip() or "/nonexistent").resolve()
        if proc.returncode != 0 or self.src.resolve() not in where.parents:
            raise SystemExit(f"perfbench: framekit does not import from {self.src}")

    def setup_s(self) -> tuple:
        """Medians of (raw, reference-speed) wall time of ``--version``."""
        raw, scaled = [], []
        for _ in range(SETUP_REPEATS):
            rc, _, dt, dn = self.timed(["--version"])
            if rc != 0:
                raise SystemExit("perfbench: framekit --version failed")
            raw.append(dt)
            scaled.append(dn)
        return statistics.median(raw), statistics.median(scaled)

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in _BLAS_THREADS},
        "children": "one at a time, from this process, on the same CPU",
    }


def untraced(runner: Runner, commands, seconds: float) -> tuple:
    """Repeat the commands as fresh subprocesses for about ``seconds``.

    A command's time is the median over its repetitions of its wall time
    at reference speed; ``wall_s`` sums them over the commands.  Every
    command runs at least once; after that the list cycles until the next
    command would be expected to end after ``seconds``, judged by the
    median time its earlier runs took, reference kernel included.  Every operation
    is counted once, whatever the number of repetitions: each distinct
    output of a command goes through the oracle, and the command keeps
    the worst outcome it got.
    """
    raw = [[] for _ in commands]
    scaled = [[] for _ in commands]
    cost = [[] for _ in commands]
    outcomes = [None] * len(commands)
    checked = [set() for _ in commands]
    start = time.monotonic()
    while True:
        for i, cmd in enumerate(commands):
            begun = time.monotonic()
            if cost[i] and (runner.expired() or
                            begun - start + statistics.median(cost[i]) > seconds):
                break
            rc, out, dt, dn = runner.timed(cmd.argv)
            cost[i].append(time.monotonic() - begun)
            raw[i].append(dt)
            scaled[i].append(dn)
            if (rc, out) not in checked[i]:
                checked[i].add((rc, out))
                got = cmd.outcome(rc, out)
                if outcomes[i] is None or (got.failed, got.mismatched) > \
                        (outcomes[i].failed, outcomes[i].mismatched):
                    outcomes[i] = got
        else:
            continue
        break
    total = oracle.Outcome(0)
    for got in outcomes:
        total += got
    wall = sum(statistics.median(t) for t in scaled)
    metrics = {
        "wall_s": wall,
        "ops_per_s": (total.attempted - total.failed) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    return metrics, total, [sum(statistics.median(t) for t in raw), sum(map(len, raw))]


def _import_cli(src: Path):
    sys.path.insert(0, str(src))
    import framekit.cli as cli
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: framekit does not import from {src}")
    return cli


def _clear_caches() -> None:
    """Drop memoised state so each in-process pass starts like a fresh process."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("framekit"):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def in_process(cli, commands) -> tuple:
    """One pass through ``cli.main``; (seconds, outcome, verify timings)."""
    seconds = 0.0
    outcome = oracle.Outcome(0)
    verify_s = {}
    _clear_caches()
    for cmd in commands:
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(cmd.argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        seconds += time.perf_counter() - start
        outcome += cmd.outcome(rc, out.getvalue())
        if cmd.kind == "verify" and rc in (0, 1):
            verify_s.update(json.loads(out.getvalue())["seconds"])
    return seconds, outcome, verify_s


def traced(runner: Runner, commands, warmup) -> tuple:
    """Plain, traced and plain in-process passes, after a warm-up pass on toy
    inputs.  The overhead divides by the mean of the two plain passes so
    that a steady drift in machine speed cancels."""
    cli = _import_cli(runner.src)
    in_process(cli, warmup)
    plain_s, outcome, verify_s = in_process(cli, commands)
    rec = tracer.Tracer()
    with rec.installed():
        traced_s, traced_outcome, _ = in_process(cli, commands)
    plain2_s, plain2_outcome, _ = in_process(cli, commands)
    # Each operation counts once: the worst of the three passes.
    outcome = max((outcome, traced_outcome, plain2_outcome),
                  key=lambda o: (o.failed, o.mismatched))
    layer = tracer.layer_metrics(rec.spans, traced_s)
    for name in tracer.VERIFY_CHECKS:
        layer[f"verify.{name}_s"] = (verify_s.get(name, 0.0), "s")
    layer["trace_overhead"] = (2.0 * traced_s / (plain_s + plain2_s), "ratio")
    self_sum = sum(v for k, (v, _) in layer.items()
                   if k.endswith(".self_s")) + layer["trace.remainder_s"][0]
    if abs(self_sum - traced_s) > 1e-6 * max(1.0, traced_s):
        raise SystemExit(f"perfbench: self times add to {self_sum}, traced total {traced_s}")
    return layer, outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="tiny runs the same commands on toy inputs (self-test)")
    args = parser.parse_args(argv)

    # One CPU for this process and, by inheritance, every child: the
    # reference kernel then measures the CPU the children run on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    root = Path.cwd()
    if not (root / "src" / "framekit" / "cli.py").is_file():
        print(f"perfbench: no framekit checkout at {root} (src/framekit/cli.py missing)",
              file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, workdir)
    try:
        runner.check_source()
        commands = workloads.build(args.workload, args.seed, args.size, workdir)
        print("env " + json.dumps(environment()))
        if args.trace:
            (workdir / "warmup").mkdir()
            warmup = workloads.build(args.workload, args.seed, "tiny", workdir / "warmup")
            named, outcome = traced(runner, commands, warmup)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        else:
            values = {}
            raw_setup_s, values["setup_s"] = runner.setup_s()
            more, outcome, (raw_wall_s, children) = untraced(runner, commands, args.seconds)
            values.update(more)
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{len(commands)} commands" +
          ("" if args.trace else f", {children} children; unscaled wall time "
           f"{raw_wall_s:.4f} s, --version {raw_setup_s:.4f} s"))
    if runner.samples:
        print("samples " + json.dumps(runner.samples))
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    ratio = outcome.failed / outcome.attempted
    print(f"  {'fail_ratio':<44} {ratio:.6g} ({outcome.failed} failed of {outcome.attempted} "
          f"attempted, {outcome.mismatched} oracle mismatches, "
          f"{outcome.skipped} near-threshold candidates not compared)")
    print(json.dumps({"correct": outcome.mismatched == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
