"""What perfbench reads of the package must exist in it.

The tracer looks each name up on its framekit module at run time, so a
rename or deletion in src would otherwise surface only in a traced
benchmark run.  The tracer's source is read, not imported: loading it by
path leaves perfbench/ untouched (no bytecode cache is written there).
Between in-process passes the harness calls ``cache_clear`` on every
module attribute that has one, so every memo must be such an attribute.
In the other direction, every top-level name of the package, and every
annotated field of its classes, must be read somewhere in the repository's
code, or it is dead and goes.  Every check of ``framekit verify`` that
draws a random corpus is compared, bit for bit, with a per-case reference
loop in ``test_verify``.  The package keeps
one spectral path: its decompositions are the ``np.linalg`` calls listed in
``_LINALG_CALLS``, and no module adds its own; nor does any module outside
``matcore`` divide by eigenvalues but the listed exception, nor rank a Gram
or bordered matrix by SVD but the oracle row; only ``ellipsoid_residual``
reads a vector-Gram spectrum through ``weighted_norm``; only
``frame.outer_gram`` takes the Hadamard square |G|^2 of a vector Gram; and only
``rank_from_singular_values`` and ``psd_extension``'s positive-eigenvalue
mask read the one rank threshold, unscaled; only the greedy scan reads
nothing but the rank of a full outer decomposition.  ``verify``'s PSD
and dual checks hand no matrix to a decomposition twice.  Only the process
entry point ``cli.run`` freezes the garbage collector, and no module reads
the environment.  The package's lazy exports are the public names its
eager imports used to export, each the object its module defines.
"""

import ast
import importlib
import inspect
import pkgutil
import re
import types
from pathlib import Path

import numpy as np
import pytest

import framekit
from framekit import constructions as cons
from framekit import geometry, outer, perturb, verify
from framekit.errors import NotIndependent
from framekit.frame import Frame, riesz_bounds
from framekit.rng import Stream


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


_MEMOS = ("lru_cache", "cache", "cached_property")


def _memo_name(decorator):
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name if name in _MEMOS else None


def test_every_memo_is_a_module_level_lru_cache():
    found = []
    for info in pkgutil.iter_modules(framekit.__path__):
        module = importlib.import_module(f"framekit.{info.name}")
        tree = ast.parse(Path(module.__file__).read_text())
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            for decorator in getattr(node, "decorator_list", []):
                kind = _memo_name(decorator)
                if kind is None:
                    continue
                where = f"framekit.{info.name}.{node.name}"
                assert kind == "lru_cache" and id(node) in top, where
                assert callable(getattr(getattr(module, node.name), "cache_clear", None)), where
                found.append(where)
    assert "framekit.perturb._compressed_base" in found


def _read_names(tree) -> set:
    """The names a module reads: identifiers, attributes, imported names,
    and string constants, through which the tracer names functions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _repository_trees(root: Path):
    """The parsed source of every Python file of the repository's code."""
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in (root / folder).rglob("*.py"):
            yield ast.parse(path.read_text())


def test_every_top_level_name_of_the_package_is_read_somewhere():
    root = Path(__file__).resolve().parents[1]
    read = set()
    for tree in _repository_trees(root):
        read |= _read_names(tree)
    dead = []
    for path in sorted((root / "src" / "framekit").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"framekit.{path.stem}.{name}" for name in defined
                     if name not in read and not name.startswith("__")]
    assert dead == []


def test_every_record_field_is_read_somewhere():
    """Every annotated field of a class of the package is loaded as an
    attribute somewhere in the repository's code.

    The test matches names, not types: a field that shares its name with
    an attribute read elsewhere passes though no caller reads the field
    itself (a field named tol passes wherever ``args.tol`` is read).
    """
    root = Path(__file__).resolve().parents[1]
    read = {node.attr for tree in _repository_trees(root) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in sorted((root / "src" / "framekit").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                unread += [f"framekit.{path.stem}.{cls.name}.{node.target.id}"
                           for node in cls.body if isinstance(node, ast.AnnAssign)
                           and isinstance(node.target, ast.Name)
                           and node.target.id not in read]
    assert unread == []


#: What marks a check as drawing a random corpus, in its own source or in that
#: of a ``verify`` function it reaches.
_CORPUS_MARKERS = ("Stream(", "_random_stacks", "random_unit")
#: Checks with a marker that draw no corpus of their own, and why.
_NO_CORPUS = {
    "mu2-mu4-probe": "three fixed frames, one a single random_unit draw; the samples are "
                     "drawn and evaluated in one block by geometry.mu2_subset_mu4_probe",
}


def _referenced_checks() -> set:
    """The check names that test_verify compares with a per-case reference."""
    path = Path(__file__).resolve().parent / "test_verify.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef) and \
                node.name == "test_batched_check_equals_per_case_reference":
            (decorator,) = node.decorator_list
            return {case.elts[0].value for case in decorator.args[1].elts}
    raise AssertionError("test_batched_check_equals_per_case_reference is gone")


def _sources_reached(function) -> dict:
    """The source of a ``verify`` function and of every function of
    ``verify`` it calls, directly or through other such functions, by name."""
    own = {name for name, fn in vars(verify).items()
           if inspect.isfunction(fn) and fn.__module__ == verify.__name__}
    sources, todo = {}, [function.__name__]
    while todo:
        name = todo.pop()
        if name not in sources:
            sources[name] = inspect.getsource(getattr(verify, name))
            todo += [node.id for node in ast.walk(ast.parse(sources[name]))
                     if isinstance(node, ast.Name) and node.id in own]
    return sources


def test_every_check_that_draws_a_corpus_has_a_per_case_reference():
    drawing = {name for name, check in verify.CHECKS.items()
               if any(marker in source for source in _sources_reached(check).values()
                      for marker in _CORPUS_MARKERS)}
    assert set(_NO_CORPUS) <= drawing
    assert sorted(drawing - set(_NO_CORPUS) - _referenced_checks()) == []


#: Every ``np.linalg`` call of the package other than ``norm``, by module.
#: ``matcore`` holds the spectral path (eigh and eigvalsh for self-adjoint
#: matrices; the svd of ``singular_values`` and of ``stacked_singular_values``
#: for rectangular ones and the oracle row of ``_SVD_OF_SELF_ADJOINT``);
#: ``outer``'s solve is ``dependence_certificate``'s, which
#: ``tests/scan_reference.py`` pins; ``verify`` builds its orthonormal bases
#: by qr and checks one displayed determinant.
_LINALG_CALLS = [
    ("matcore", "eigh"), ("matcore", "eigvalsh"), ("matcore", "svd"), ("matcore", "svd"),
    ("outer", "solve"), ("verify", "det"), ("verify", "qr"),
]


def test_one_spectral_path():
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "framekit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr != "norm" and \
                    isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
                found.append((path.stem, node.attr))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                # any other way to a decomposition: numpy.linalg or scipy imported
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                found += [(path.stem, f"import {name}") for name in names
                          if "linalg" in name or name.split(".")[0] == "scipy"]
    assert sorted(found) == _LINALG_CALLS


def test_the_exact_oracle_is_independent_of_lapack():
    # verify.rational_rank and the verify functions it reaches name no
    # np.linalg, matcore or scipy, nor a function of another framekit module
    # (one that could reach them); errors and numpy's elementwise calls only
    found = []
    for name, source in _sources_reached(verify.rational_rank).items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and node.attr == "linalg":
                found.append((name, "linalg"))
            elif isinstance(node, ast.Name) and node.id in vars(verify):
                value = vars(verify)[node.id]
                home = getattr(value, "__module__", None) or getattr(value, "__name__", "")
                if home.split(".")[0] in ("framekit", "scipy") and \
                        home not in (verify.__name__, "framekit.errors"):
                    found.append((name, node.id))
    assert found == []


#: Functions outside ``matcore`` that may divide by eigenvalues, and why.
_EIGENVALUE_DIVISIONS = {
    ("geometry", "_bordered_gram_check"):
        "its determinant ratio is the cross-check's independent second path, so it must "
        "not share the owner whose values it checks",
}


def _called(node):
    """The name a call calls, as a plain name or an attribute, or None."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _root_name(node):
    """The name an attribute, call or subscript chain starts from, or None."""
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def _taint(tree, source) -> tuple:
    """(functions, tainted, reads) of a module: a name of a function is
    tainted when it is bound to an expression that reads a source node
    (``source(node)`` holds), a tainted name or a call of a module function
    that returns such an expression; bound means assigned, iterated over,
    appended to, or a parameter that a call in the module passes it to.
    ``reads(node, names)`` tells whether an expression reads any of these."""
    functions = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    tainted = {name: set() for name in functions}
    producers = set()

    def reads(node, names) -> bool:
        return any(source(n) or (isinstance(n, ast.Name) and n.id in names)
                   or (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id in producers) for n in ast.walk(node))

    changed = True
    while changed:  # to a fixed point: locals within a function, parameters and returns across
        changed = False
        for name, fn in functions.items():
            for node in ast.walk(fn):
                bound, names = [], tainted[name]
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and \
                        node.value is not None and reads(node.value, names):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    bound = [(name, t.id) for target in targets for t in ast.walk(target)
                             if isinstance(t, ast.Name)]
                elif isinstance(node, (ast.For, ast.comprehension)) and reads(node.iter, names):
                    bound = [(name, t.id) for t in ast.walk(node.target) if isinstance(t, ast.Name)]
                elif isinstance(node, ast.Call) and _called(node) in ("append", "extend") and \
                        isinstance(node.func, ast.Attribute) and \
                        any(reads(arg, names) for arg in node.args):
                    bound = [(name, _root_name(node.func.value))]
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
                        node.func.id in functions:
                    params = [a.arg for a in functions[node.func.id].args.args]
                    passed = list(zip(params, node.args))
                    passed += [(k.arg, k.value) for k in node.keywords]
                    bound = [(node.func.id, param) for param, arg in passed
                             if param is not None and reads(arg, names)]
                elif isinstance(node, ast.Return) and node.value is not None and \
                        name not in producers and reads(node.value, names):
                    producers.add(name)
                    changed = True
                for where, local in bound:
                    if local is not None and local not in tainted[where]:
                        tainted[where].add(local)
                        changed = True
    return functions, tainted, reads


def _eigenvalue_divisions(tree) -> set:
    """The functions of a module that divide by an eigenvalues array, read
    directly or through a name bound to one (``_taint``)."""
    functions, tainted, reads = _taint(
        tree, lambda n: isinstance(n, ast.Attribute) and n.attr == "eigenvalues")
    return {name for name, fn in functions.items() for node in ast.walk(fn)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
            and reads(node.right if isinstance(node, ast.BinOp) else node.value, tainted[name])}


def test_one_owner_of_the_inverse_eigenvalues():
    # Lambda^{-1} in an eigenbasis is matcore's (spectral_solve, weighted_norm)
    found = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "framekit").glob("*.py")):
        if path.stem != "matcore":
            found |= {(path.stem, fn) for fn in _eigenvalue_divisions(ast.parse(path.read_text()))}
    assert sorted(found) == sorted(_EIGENVALUE_DIVISIONS)


#: What builds a self-adjoint matrix, and what ranks a matrix by its singular values.
_SELF_ADJOINT_BUILDERS = ("gram", "vector_gram", "bordered")
_SVD_RANKS = ("numerical_rank", "singular_values", "stacked_singular_values")
#: Functions that rank a self-adjoint matrix by SVD, and why.
_SVD_OF_SELF_ADJOINT = {
    ("verify", "check_psd_extension_roundtrip"):
        "its oracle row tests numerical_rank itself, on PSD matrices and their borders, "
        "against exact elimination",
}


def _svd_of_self_adjoint(tree) -> set:
    """The functions of a module that hand an SVD rank a matrix built by a
    self-adjoint builder, directly or through a name bound to one (``_taint``)."""
    functions, tainted, reads = _taint(
        tree, lambda n: isinstance(n, ast.Call) and _called(n) in _SELF_ADJOINT_BUILDERS)
    return {name for name, fn in functions.items() for node in ast.walk(fn)
            if isinstance(node, ast.Call) and _called(node) in _SVD_RANKS
            and any(reads(arg, tainted[name]) for arg in node.args)}


def test_self_adjoint_matrices_are_ranked_from_their_eigenvalues():
    # SVD is for rectangular matrices; a Gram or bordered matrix is decomposed
    # once, by eigh or eigvalsh, and ranked from those eigenvalues
    found = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "framekit").glob("*.py")):
        found |= {(path.stem, fn) for fn in _svd_of_self_adjoint(ast.parse(path.read_text()))}
    assert sorted(found) == sorted(_SVD_OF_SELF_ADJOINT)


#: The functions that read the rank threshold ``matcore.default_rank_tol``.
_RANK_THRESHOLDS = [("geometry", "_positive_eigenvalues"),
                    ("matcore", "rank_from_singular_values")]


def test_one_rank_threshold():
    # every rank is rank_from_singular_values' count above default_rank_tol,
    # and psd_extension's positive eigenpairs are those above the same
    # threshold: no function scales it or hands the count a threshold of its own
    found, given = [], []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "framekit").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and _called(node) == "default_rank_tol":
                    found.append((path.stem, fn.name))
                elif isinstance(node, ast.Call) and _called(node) == "rank_from_singular_values" \
                        and (len(node.args) != 2 or node.keywords):
                    given.append((path.stem, fn.name))
    assert sorted(found) == _RANK_THRESHOLDS
    assert given == []


#: The functions that read only the rank of a full outer decomposition, and why.
_RANK_ONLY_DECOMPOSITIONS = {
    ("outer", "_GreedyScan.grows"):
        "its prefixes, certificates and nudged frames must be those of re-inducing every "
        "trial, and eigvalsh ranks some near-parallel trials otherwise than induce's eigh "
        "(test_scan::test_the_scan_keeps_what_induce_decides_on_near_parallel_frames)",
}


def _rank_only_decompositions(tree) -> set:
    """The functions and methods (by qualified name) of a module that read
    only the rank of an ``_outer_spectra`` decomposition: its item 2, or an
    unpacking that discards the Gram and the spectrum."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            value = None
            if isinstance(child, ast.Subscript) and isinstance(child.slice, ast.Constant) \
                    and child.slice.value == 2:
                value = child.value
            elif isinstance(child, ast.Assign) and isinstance(child.targets[0], ast.Tuple) and \
                    all(isinstance(t, ast.Name) and t.id == "_"
                        for t in child.targets[0].elts[:2]):
                value = child.value
            if isinstance(value, ast.Call) and _called(value) == "_outer_spectra":
                found.add(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_a_rank_only_read_ranks_from_eigenvalues():
    # outside the scan, a check that reads nothing but an outer rank takes it
    # from eigvalsh (outer._outer_rank), not from a full eigh decomposition
    found = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "framekit").glob("*.py")):
        found |= {(path.stem, fn) for fn in _rank_only_decompositions(ast.parse(path.read_text()))}
    assert sorted(found) == sorted(_RANK_ONLY_DECOMPOSITIONS)


#: The functions that hand ``weighted_norm`` a vector-Gram spectrum: the
#: ellipsoid is the analysis image of the unit sphere, measured in one place.
_ELLIPSOID_NORMS = [("geometry", "ellipsoid_residual")]


def _vector_gram_norms(tree) -> set:
    """The functions of a module that call ``weighted_norm`` on a spectrum
    read from a vector Gram: a ``gram`` or ``vector_gram`` call, or a
    ``vector_gram`` field, directly or through a name bound to one (``_taint``)."""
    functions, tainted, reads = _taint(tree, lambda n: (
        isinstance(n, ast.Call) and _called(n) in ("gram", "vector_gram")) or (
        isinstance(n, ast.Attribute) and n.attr == "vector_gram"))
    return {name for name, fn in functions.items() for node in ast.walk(fn)
            if isinstance(node, ast.Call) and _called(node) == "weighted_norm"
            and node.args and reads(node.args[0], tainted[name])}


def test_one_ellipsoid_computation():
    found = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "framekit").glob("*.py")):
        found |= {(path.stem, fn) for fn in _vector_gram_norms(ast.parse(path.read_text()))}
    assert sorted(found) == _ELLIPSOID_NORMS


#: The function that forms the outer Gram |G|^2, the Hadamard square of a vector Gram.
_HADAMARD_SQUARES = [("frame", "outer_gram")]


def _hadamard_squares(tree) -> set:
    """The functions of a module that take ``abs(.) ** 2`` of a vector Gram:
    of a ``gram`` or ``vector_gram`` call, directly or through a name bound
    to one (``_taint``, one function at a time: across ``verify``'s
    functions, a Gram-derived value handed to ``_row`` would taint every
    check row and, through the helpers they share, every corpus)."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        _, tainted, reads = _taint(ast.Module(body=[fn], type_ignores=[]), lambda n: (
            isinstance(n, ast.Call) and _called(n) in ("gram", "vector_gram")))
        if any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
               and isinstance(node.right, ast.Constant) and node.right.value == 2
               and isinstance(node.left, ast.Call) and _called(node.left) == "abs"
               and any(reads(arg, tainted[fn.name]) for arg in node.left.args)
               for node in ast.walk(fn)):
            found.add(fn.name)
    return found


def test_one_former_of_the_outer_gram():
    # |G|^2 is formed by frame.outer_gram alone: the outer spectra, the frame
    # potential and equiangularity read it, and verify's Hadamard row checks
    # it against its definition, not against a second copy of the formula
    found = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "framekit").glob("*.py")):
        found |= {(path.stem, fn) for fn in _hadamard_squares(ast.parse(path.read_text()))}
    assert sorted(found) == _HADAMARD_SQUARES


def test_no_self_adjoint_matrix_goes_through_svd(monkeypatch):
    # with np.linalg.svd refusing every square self-adjoint input, the rank
    # paths of Grams and bordered matrices give the same results
    rng = np.random.default_rng(71)
    b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    t = b @ b.conj().T
    ext = geometry.psd_extension(t)
    family = geometry.admissible_vector(ext, [0.6, 0.8j])
    frames = [cons.random_unit(3, 3, 72, "complex"), cons.random_unit(2, 2, 73),
              cons.random_unit(2, 2, 74), cons.epsilon_pair(0.25)]
    dependent = Frame.from_vectors(np.vstack([frames[1].vectors, frames[1].vectors[:1]]))

    def run():
        out = [geometry.extension_rank_preserved(ext, x) for x in (family, 1.5 * family)]
        out += [riesz_bounds(f) for f in frames]
        try:
            riesz_bounds(dependent)
        except NotIndependent as exc:
            out.append(str(exc))
        out += [outer.outer_duals(f).tobytes() for f in frames[:1] + frames[3:]]
        out.append(outer.cross_duals(frames[1], frames[2]).tobytes())
        return out + [verify._psd_forward_failures(Stream(1000), 200)]

    want = run()
    assert want[:2] == [True, False] and len(want) == 11
    svd = np.linalg.svd

    def refusing(a, *args, **kwargs):
        a = np.asarray(a)
        adj = a.conj().swapaxes(-1, -2)
        if a.shape[-1] == a.shape[-2] and np.allclose(a, adj, rtol=1e-12, atol=0.0):
            raise AssertionError(f"svd of a self-adjoint {a.shape} input")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", refusing)
    with pytest.raises(AssertionError, match="self-adjoint"):
        np.linalg.svd(t)
    assert run() == want


def test_the_psd_and_dual_checks_decompose_each_matrix_once(monkeypatch):
    # every matrix eigh, eigvalsh or svd receives, by its bytes: a forward
    # t of psd-extension-roundtrip goes through psd_extension's eigh alone,
    # and a vector Gram of the dual checks through the eigh whose
    # eigenvalues rank it and whose eigenvectors invert it.  Only the
    # oracle row's svd may meet one matrix twice: distinct cases can draw
    # equal integer matrices
    seen = {}
    for name in ("eigh", "eigvalsh", "svd"):
        def counted(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            a = np.asarray(a)
            for matrix in a.reshape((-1,) + a.shape[-2:]):
                key = (matrix.shape, matrix.dtype.str, matrix.tobytes())
                seen.setdefault(key, []).append(_name)
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    repeats = {}
    for check in ("outer-duals", "cross-products", "psd-extension-roundtrip"):
        seen.clear()
        verify.run_checks(only=check)
        repeats[check] = sum(len(calls) - 1 for calls in seen.values() if set(calls) != {"svd"})
    assert repeats == {"outer-duals": 0, "cross-products": 0, "psd-extension-roundtrip": 0}


def test_the_stacked_corpus_paths_build_no_frame(monkeypatch):
    # the corpus stays a vector stack from draw to verdict; the nudge's
    # nearby bases are cached per dimension and field, so a first unpatched
    # pass builds their Frames and the patched pass must build none
    def run():
        groups = verify._kept_groups([verify._density_spec(k, 14500) for k in range(40)],
                                     lambda b: b.independent)
        stacks = [block for _, block in verify._random_dependent_stacks(16)]
        return [b.vectors.tobytes() for _, b in groups] + \
            [perturb.nudge_batch(block, 0.1).tobytes() for block in stacks]

    want = run()

    def no_frame(self):
        raise AssertionError("a Frame was built")

    monkeypatch.setattr(Frame, "__post_init__", no_frame)
    assert run() == want


def _gc_freezes(tree) -> list:
    """The innermost enclosing function (None at module level) of each
    ``gc.freeze`` read in a module."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "freeze" and \
                    isinstance(child.value, ast.Name) and child.value.id == "gc":
                found.append(function)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else function
            visit(child, inner)

    visit(tree, None)
    return found


def test_only_the_process_entry_point_freezes_the_collector():
    # a frozen object is never collected, so a library module that froze
    # would leave a long-lived caller's cycles unreclaimed: only cli imports
    # gc, only cli.run freezes, and both ways of starting a process end there
    root = Path(__file__).resolve().parents[1]
    imports, freezes = [], []
    for path in sorted((root / "src" / "framekit").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports += [path.stem for a in node.names if a.name.split(".")[0] == "gc"]
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                imports.append(path.stem)
        freezes += [(path.stem, fn) for fn in _gc_freezes(tree)]
    assert (imports, freezes) == (["cli"], [("cli", "run")])

    cli_tree = ast.parse((root / "src" / "framekit" / "cli.py").read_text())
    main_blocks = [node.body for node in cli_tree.body if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [[ast.unparse(n) for n in body] for body in main_blocks] == [["run()"]]
    # requires-python is >=3.10, which has no tomllib: the table is read as text
    scripts = (root / "pyproject.toml").read_text().split("[project.scripts]", 1)[1]
    scripts = scripts.split("\n[", 1)[0]
    assert re.findall(r'^(\S+)\s*=\s*"([^"]*)"', scripts, re.M) == \
        [("framekit", "framekit.cli:run")]


#: What reads the process environment, by the name a module uses.
_ENVIRONMENT_READS = ("environ", "environb", "getenv", "getenvb")


def test_no_module_reads_the_environment():
    # every rule and threshold of the package is a constant or a parameter:
    # a variable that no command sets would be a second rule only tests run
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "framekit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.id if isinstance(node, ast.Name) else \
                node.name.rsplit(".", 1)[-1] if isinstance(node, ast.alias) else None
            if name in _ENVIRONMENT_READS:
                found.append((path.stem, name))
    assert found == []


#: The package's public names by defining module, as its eager imports
#: exported them before they became lazy.
_PUBLIC = {
    "constructions": ("biangular", "build", "complex_eij_basis", "eij_basis", "epsilon_pair",
                      "orthonormal", "random_unit", "random_unit_stack", "simplex"),
    "errors": ("FramekitError",),
    "frame": ("BoundsReport", "Frame", "analysis", "frame_bounds", "frame_operator",
              "frame_potential", "gram", "is_equiangular", "reconstruct", "riesz_bounds",
              "synthesis"),
    "geometry": ("BatchClassification", "ClassificationReport", "PreparedBatch", "PsdExtension",
                 "admissible_coefficients", "admissible_vector", "classify", "classify_batch",
                 "classify_frames", "elliptic_value", "ellipsoid_residual",
                 "extension_rank_preserved", "mu2_subset_mu4_probe", "prepare", "prepare_batch",
                 "psd_extension", "quartic_residual"),
    "matcore": ("SpectralData", "hermitian_eig", "kronecker", "numerical_rank",
                "vectorize_outer"),
    "outer": ("DependenceCertificate", "OuterBatch", "cross_duals", "cross_gram",
              "dependence_certificate", "induce", "induce_batch", "is_independent",
              "optimal_bound_report", "outer_duals", "outer_duals_of", "outer_riesz_bounds",
              "sparsity_check"),
    "perturb": ("independence_radius", "nearby_independent_basis", "nudge_batch",
                "nudge_to_independence", "outer_distance", "perturbed_riesz_bounds"),
}


def test_the_lazy_exports_are_the_public_names_of_their_modules():
    names = [name for names in _PUBLIC.values() for name in names]
    assert len(names) == len(set(names)) == 62
    assert sorted(framekit.__all__) == sorted(names)
    listed = dir(framekit)
    for module, exported in _PUBLIC.items():
        source = importlib.import_module(f"framekit.{module}")
        assert getattr(framekit, module) is source
        for name in exported:
            assert getattr(framekit, name) is getattr(source, name), f"framekit.{name}"
            assert name in listed, name
    assert framekit.induce is outer.induce
    with pytest.raises(AttributeError):
        framekit.no_such_name
