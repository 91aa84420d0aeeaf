"""Outside-in layer tracing for framekit.

The tracer wraps public functions of the package from the outside and
records one span per call: name, start, end, parent span and a computed
work count.  Nothing inside ``src/`` is touched; the wrappers replace
every module attribute bound to the original function object, because
``from module import name`` leaves copies of the binding in callers
(``geometry`` and ``perturb`` hold ``outer.induce``, ``geometry`` and
``cli`` hold ``frame.spans``).
"""

import sys
import time
from contextlib import contextmanager
from functools import wraps

#: Wrapped functions by module.  Names are the per-layer metric prefixes.
LAYERS = {
    "matcore": ("hermitian_eig", "hermitian_eigvalues", "singular_values", "numerical_rank"),
    "frame": ("spans", "frame_bounds", "riesz_bounds"),
    "outer": ("induce", "is_independent", "dependence_certificate"),
    "geometry": ("classify", "independent_prefix", "ellipsoid_residual", "psd_extension",
                 "extension_rank_preserved", "admissible_coefficients"),
    "perturb": ("nudge_to_independence", "nearby_independent_basis"),
    "serialization": ("read_frame", "frame_to_doc"),
    "verify": ("rational_rank",),
}
COMMANDS = ("cmd_analyze", "cmd_classify", "cmd_nudge", "cmd_verify")

#: The 17 named checks of ``framekit verify``, in suite order.
VERIFY_CHECKS = (
    "pc2-identity", "epsilon-example", "hadamard-gram", "outer-bound-extremes",
    "equiangular-simplex", "biangular-table", "biangular-upper", "biangular-degeneracy",
    "eij-ranks", "outer-duals", "unprojected-dual", "cross-products",
    "psd-extension-roundtrip", "classifier-coherence", "mu2-mu4-probe",
    "perturbation-suite", "nudge-repair",
)

EIG = ("matcore.hermitian_eig", "matcore.hermitian_eigvalues")


def _eig_work(a, *args, **kwargs):
    return len(a) ** 3


def _sv_work(a, *args, **kwargs):
    m, n = getattr(a, "shape", (len(a), len(a[0])))
    return m * n * min(m, n)


def _frame_size(f, *args, **kwargs):
    return f.m


#: Computed work per call: n^3 for eigensolves, m*n*min(m,n) for SVDs and
#: the vector count for the nudge loop (the base of induce_per_vector).
WORK = {
    "matcore.hermitian_eig": _eig_work,
    "matcore.hermitian_eigvalues": _eig_work,
    "matcore.singular_values": _sv_work,
    "perturb.nudge_to_independence": _frame_size,
}


class Tracer:
    """In-memory span recorder.  Spans are [name, parent, start, end, work]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        work = WORK.get(name)
        spans = self.spans
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    work(*args, **kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Swap every binding of the wrapped functions inside framekit."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "framekit" or k.startswith("framekit."))]
        targets = [(mod, fn) for mod, fns in LAYERS.items() for fn in fns]
        targets += [("cli", fn) for fn in COMMANDS]
        swapped = []
        try:
            for mod, fn in targets:
                original = getattr(sys.modules[f"framekit.{mod}"], fn)
                wrapper = self.wrap(f"{mod}.{fn}", original)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            swapped.append((m, attr, original))
            yield self
        finally:
            for m, attr, original in reversed(swapped):
                setattr(m, attr, original)


def _has_ancestor(spans, idx, name):
    parent = spans[idx][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False


def layer_metrics(spans, traced_total: float) -> dict:
    """Per-function calls and self time, work counts and ratios.

    Self time is a span's duration minus the time its child spans cover.
    ``trace.remainder_s`` is the traced time outside every span, so the
    self times plus the remainder add up to ``traced_total``.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s, total_s, work = {}, {}, {}, {}
    for i, (name, parent, start, end, w) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        work[name] = work.get(name, 0) + w
    root = sum(end - start for _, parent, start, end, _ in spans if parent < 0)

    out = {}
    for mod, fns in LAYERS.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for fn in COMMANDS:
        name = f"cli.{fn}"
        out[f"{name}.total_s"] = (total_s.get(name, 0.0), "s")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    out["matcore.eig_work_n3"] = (sum(work.get(n, 0) for n in EIG), "count")
    out["matcore.sv_work_mnk"] = (work.get("matcore.singular_values", 0), "count")

    n_classify = calls.get("geometry.classify", 0)
    nudged_vectors = work.get("perturb.nudge_to_independence", 0)
    induce_in_classify = eig_in_classify = induce_in_nudge = 0
    for i, span in enumerate(spans):
        if span[0] == "outer.induce":
            induce_in_classify += _has_ancestor(spans, i, "geometry.classify")
            induce_in_nudge += _has_ancestor(spans, i, "perturb.nudge_to_independence")
        elif span[0] in EIG:
            eig_in_classify += _has_ancestor(spans, i, "geometry.classify")
    out["geometry.classify.induce_per_call"] = (
        induce_in_classify / n_classify if n_classify else 0.0, "ratio")
    out["geometry.classify.eig_per_call"] = (
        eig_in_classify / n_classify if n_classify else 0.0, "ratio")
    out["perturb.nudge.induce_per_vector"] = (
        induce_in_nudge / nudged_vectors if nudged_vectors else 0.0, "ratio")
    out["trace.total_s"] = (traced_total, "s")
    out["trace.remainder_s"] = (traced_total - root, "s")
    return out
