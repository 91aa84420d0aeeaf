"""The names perfbench's layer tracer wraps must exist in the package.

The tracer looks each name up on its framekit module at run time, so a
rename or deletion in src would otherwise surface only in a traced
benchmark run.  The tracer's source is read, not imported: loading it by
path leaves perfbench/ untouched (no bytecode cache is written there).
"""

import importlib
import types
from pathlib import Path

from framekit import geometry, outer, verify


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer()
    names = [(mod, fn) for mod, fns in tracer.LAYERS.items() for fn in fns]
    names += [("cli", fn) for fn in tracer.COMMANDS]
    names.append(("geometry", "induce"))  # the tracer swaps every binding of outer.induce
    missing = [f"framekit.{mod}.{fn}" for mod, fn in names
               if not callable(getattr(importlib.import_module(f"framekit.{mod}"), fn, None))]
    assert missing == []
    assert geometry.induce is outer.induce
    assert list(tracer.VERIFY_CHECKS) == verify.list_checks()
