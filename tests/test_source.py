"""Rules on the library source itself."""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import isolab
from isolab import DieudonneLie, PadicScalar, PerfectedSeries

from reference import ALGEBRA_MEMO

SRC = pathlib.Path(isolab.__file__).resolve().parent


def test_no_bare_assert_in_library():
    # python -O strips assert statements; every guard is a typed IsolabError
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) > 5
    assert found == []


def test_traced_names_exist():
    # perfbench's tracer patches these names; a rename must fail here
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "_tracing", root / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{layer}.{name}" for layer, names in tracing.SPANS.items()
               for name in names
               if not inspect.isfunction(getattr(
                   importlib.import_module(f"isolab.{layer}"), name, None))]
    # outside SPANS: the tracer counts _speedups.zq_mul (its COUNTS entry
    # with no class) and run.py stamps _speedups.BACKEND on every result
    speedups = importlib.import_module("isolab._speedups")
    missing += [f"_speedups.{attr}" for _, cls, attr in tracing.COUNTS
                if cls is None and not inspect.isfunction(
                    getattr(speedups, attr, None))]
    if not isinstance(getattr(speedups, "BACKEND", None), str):
        missing.append("_speedups.BACKEND")
    # the tracer reads the BCH table's hit ratio through the public name
    if not callable(getattr(isolab.bch.bch_series, "cache_info", None)):
        missing.append("bch.bch_series.cache_info")
    assert tracing.SPANS and missing == []


#: top-level names that only code outside src/isolab reaches, and why
REACHED_FROM_OUTSIDE = {}


def test_every_function_is_reachable():
    # every top-level def and class is exported in isolab.__all__ or
    # loaded by name somewhere in src/isolab outside its own body
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"),
                                  filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    loads = [n for tree in trees.values() for n in ast.walk(tree)
             if isinstance(getattr(n, "ctx", None), ast.Load)]
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            own = {id(n) for n in ast.walk(node)}
            if node.name in isolab.__all__ or any(
                    id(n) not in own and node.name in (
                        getattr(n, "id", None), getattr(n, "attr", None))
                    for n in loads):
                continue
            found.append(f"{mod}.{node.name}")
    assert sorted(found) == sorted(REACHED_FROM_OUTSIDE)


#: names in isolab.__all__ that no library module loads, and why they are
#: exported all the same
EXPORTED_FOR_USERS = {
    "standard_simple": "the cyclic model of one slope, a constructor; the "
                       "slopes workload builds its isocrystals with it",
    "minimal_slope_center_check": "the paper's centrality of the "
                                  "minimal-slope part; a lie workload op",
    "aut_lie_algebra": "the paper's Lie algebra of automorphisms of an "
                       "algebra",
    "smallest_f_stable_subalgebra": "the paper's F-stable subalgebra "
                                    "generated by a set of vectors",
    "rho_defect": "the paper's defect of the minimal-slope projection under "
                  "the group law; a lie workload op",
    "adjoint_slope_cross_check": "the slopes of the adjoint action against "
                                 "the root side; a slopes workload op",
}


def test_every_export_is_reached():
    # every name in isolab.__all__ is loaded by a library module other than
    # __init__.py, outside its own definition, or listed with a reason
    loaded = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            names = {getattr(n, "id", None) or getattr(n, "attr", None)
                     for n in ast.walk(node)
                     if isinstance(getattr(n, "ctx", None), ast.Load)}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.discard(node.name)
            loaded |= names
    found = [name for name in isolab.__all__ if name not in loaded]
    assert sorted(found) == sorted(EXPORTED_FOR_USERS)


#: methods that only code outside this repository calls, and why
CALLED_FROM_OUTSIDE = {
    "cli._Parser.error": "argparse.ArgumentParser calls it on a bad argv",
}


def test_every_method_is_reachable():
    # every non-dunder method of a class in src/isolab is loaded as an
    # attribute, x.<name>, in src/isolab, tests/ or perfbench/ outside its
    # own body; a bare name that spells it (a local variable) does not count
    root = SRC.parents[1]
    paths = [*SRC.glob("*.py"), *(root / "tests").glob("*.py"),
             *(root / "perfbench").glob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path)) for path in sorted(paths)}
    attrs = [n for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    found = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)) or (
                        node.name.startswith("__")
                        and node.name.endswith("__")):
                    continue
                own = {id(n) for n in ast.walk(node)}
                if not any(id(n) not in own and n.attr == node.name
                           for n in attrs):
                    found.append(f"{path.stem}.{cls.name}.{node.name}")
    assert len(trees) > 10
    assert sorted(found) == sorted(CALLED_FROM_OUTSIDE)


def test_no_unused_parameters():
    # a parameter its body never reads makes every caller pass a value
    # for nothing
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{path.name}:{node.name}:{p}" for p in params
                      if p != "self" and p not in read]
    assert found == []


def test_scalars_are_immutable():
    # PadicScalar.zero hands out one shared instance per spec, so no code
    # may change a scalar's attributes once its __init__ has set them
    slots = set(PadicScalar.__slots__)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        in_init = {id(n) for f in ast.walk(tree)
                   if isinstance(f, ast.FunctionDef) and f.name == "__init__"
                   for n in ast.walk(f)}
        for node in ast.walk(tree):
            if id(node) in in_init:
                continue
            if (isinstance(node, ast.Attribute) and node.attr in slots
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                found.append(f"{path.name}:{node.lineno}:{node.attr}")
            elif isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) in ("setattr", "delattr")
                    or getattr(node.func, "attr", None) in (
                        "__setattr__", "__delattr__")) and any(
                    isinstance(arg, ast.Constant) and arg.value in slots
                    for arg in node.args[:2]):
                # setattr(x, "v", ...), object.__setattr__(x, "v", ...)
                # and x.__setattr__("v", ...) name the slot in one of the
                # first two arguments
                found.append(f"{path.name}:{node.lineno}:call")
    assert found == []


#: every file whose code could change a library object
WATCHED = [*SRC.glob("*.py"), *(SRC.parents[1] / "tests").glob("*.py"),
           *(SRC.parents[1] / "perfbench").glob("*.py")]


def _writes(path, tree, skip, slots, items):
    """Where tree, outside the nodes in skip, sets or deletes an attribute
    named in slots, or writes through .items[...] or a mutating method of
    .items."""
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) in ("setattr", "delattr")
                or getattr(node.func, "attr", None) in (
                    "setattr", "delattr", "__setattr__",
                    "__delattr__")) and any(
                isinstance(arg, ast.Constant) and arg.value in slots
                for arg in node.args[:2]):
            found.append(f"{path.name}:{node.lineno}:call")
        if isinstance(node, ast.Call) and getattr(
                node.func, "attr", None) in (
                "update", "pop", "popitem", "clear", "setdefault",
                "__setitem__", "__delitem__") and getattr(
                node.func.value, "attr", None) == items:
            found.append(f"{path.name}:{node.lineno}:{items}.call")
        if not isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
            continue
        if isinstance(node, ast.Attribute) and node.attr in slots:
            found.append(f"{path.name}:{node.lineno}:{node.attr}")
        elif isinstance(node, ast.Subscript):
            base = node.value
            while isinstance(base, ast.Subscript):
                base = base.value
            if getattr(base, "attr", None) == items:
                found.append(f"{path.name}:{node.lineno}:{items}[...]")
    return found


def test_algebra_constants_are_fixed():
    # DieudonneLie.__init__ builds bracket_vec's table of the nonzero
    # constants once, so no code may set an algebra's attributes after
    # __init__ or write through .bracket[...].  The memo slots are the
    # exception: dieudonne._stored alone reads and fills them, by the slot
    # name each public function of ALGEBRA_MEMO passes it, once per slot
    slots, memo = set(DieudonneLie.__slots__), set(ALGEBRA_MEMO)
    in_init, stored, found = set(), [], []
    for path in sorted(WATCHED):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        init = [n for cls in tree.body if isinstance(cls, ast.ClassDef)
                and cls.name == "DieudonneLie" for f in cls.body
                if isinstance(f, ast.FunctionDef) and f.name == "__init__"
                for n in ast.walk(f)]
        in_init |= {n.attr for n in init if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Store)}
        skip = {id(n) for n in init}
        found += _writes(path, tree, skip, slots, "bracket")
        for top in tree.body:
            where = (path.stem if path.parent == SRC else path.name,
                     getattr(top, "name", None))
            for n in ast.walk(top):
                if id(n) in skip:
                    continue
                if isinstance(n, ast.Attribute) and n.attr in memo:
                    found.append(f"{path.name}:{n.lineno}:{n.attr}")
                if not isinstance(n, ast.Call):
                    continue
                name = getattr(n.func, "id", getattr(n.func, "attr", None))
                slot = [a.value for a in n.args[:2]
                        if isinstance(a, ast.Constant)]
                if name == "_stored":
                    stored.append((slot[0] if slot else None, where))
                elif name in ("getattr", "__getattribute__") and \
                        set(slot) & memo:
                    found.append(f"{path.name}:{n.lineno}:{name}")
                elif name in ("getattr", "setattr", "delattr") and \
                        path.parent == SRC and where != ("dieudonne",
                                                         "_stored"):
                    # a slot name held in a variable: only _stored
                    found.append(f"{path.name}:{n.lineno}:{name}")
    assert in_init == slots
    assert sorted(stored) == sorted(ALGEBRA_MEMO.items())
    assert not any(fn.startswith("_") for _, fn in ALGEBRA_MEMO.values())
    assert found == []


def test_series_are_never_changed():
    # perfseries._result builds every library result without checks, which
    # is sound only while a checked series never changes: no code sets a
    # series attribute outside __init__ and _result, or writes through
    # .terms[...].  A constructor may set its own object's attributes, so
    # every __new__ and __init__ is skipped (FieldSpec.__new__ sets .p).
    slots = set(PerfectedSeries.__slots__)
    built, found = set(), []
    for path in sorted(WATCHED):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        made = [n for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                and f.name in ("__new__", "__init__", "_result")
                for n in ast.walk(f)]
        if path.name == "perfseries.py":
            built |= {n.attr for n in made if isinstance(n, ast.Attribute)
                      and isinstance(n.ctx, ast.Store)}
        found += _writes(path, tree, {id(n) for n in made}, slots, "terms")
    assert slots <= built  # __init__ and _result set every slot
    assert found == []


#: the only callers in src/isolab of a name, as (module, function) pairs
ONLY_CALLERS = {
    # DieudonneLie.__init__ checks the bracket laws, so the library builds
    # an algebra only from its input, never to check one it holds
    "DieudonneLie": {("dieudonne", "DieudonneLie.from_json"),
                     ("dieudonne", "DieudonneLie.from_rationals")},
    # every other operation reads the verdict the algebra stored
    "dla_validate": {("cli", "_cmd_dla_check")},
    # PerfectedSeries.__init__ checks every exponent, so the library builds
    # a series with it only from input; operations build theirs unchecked
    "PerfectedSeries": {("perfseries", "PerfectedSeries.zero"),
                        ("perfseries", "PerfectedSeries.monomial"),
                        ("perfseries", "PerfectedSeries.from_json")},
}


def test_algebras_are_built_and_validated_only_at_the_edge():
    calls = []  # (name, module, enclosing function, line)

    def visit(mod, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                name = getattr(child.func, "id",
                               getattr(child.func, "attr", None))
                if name in ONLY_CALLERS:
                    calls.append((name, mod, scope, child.lineno))
            visit(mod, child, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text(encoding="utf-8"),
                                   filename=str(path)), "")
    found = [f"{mod}.{scope}:{line}:{name}" for name, mod, scope, line
             in calls if (mod, scope) not in ONLY_CALLERS[name]]
    assert found == []
    assert {(name, mod, scope) for name, mod, scope, _ in calls} == {
        (name, *caller) for name, callers in ONLY_CALLERS.items()
        for caller in callers}


def test_scalars_are_built_in_padic():
    # a scalar's digits and precision are set only by padic's own
    # constructors and arithmetic; other modules call those
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "padic.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and "PadicScalar" in (
                      getattr(node.func, "id", None),
                      getattr(node.func, "attr", None))]
    assert len(list(SRC.glob("*.py"))) > 5
    assert found == []


# --------------------------------------------------------------------------
# rules on the tests
# --------------------------------------------------------------------------

TESTS = SRC.parents[1] / "tests"


def test_no_test_module_imports_another():
    # builders and references that two modules share live in
    # tests/reference.py, so each test module runs on its own
    modules = {path.stem for path in TESTS.glob("test_*.py")}
    found = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ([node.module] if node.module else
                         [a.name for a in node.names])
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{name}" for name in names
                      if name.split(".")[0] in modules]
    assert len(modules) > 5
    assert found == []


def _looks_like_ref(name):
    return not name.startswith("test_") and (
        name.startswith(("_ref_", "ref_", "_dense_")) or "reference" in name)


def test_references_live_in_one_module_with_a_label():
    # a reference is Exact (test_reference.py checks its digits against
    # rational arithmetic) or a Guard (it pins a refactor, defects and all)
    found, exact, imported = [], set(), set()
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "test_reference.py":
            imported = {a.name for node in tree.body
                        if isinstance(node, ast.ImportFrom)
                        and node.module == "reference" for a in node.names}
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)
                              ) or not _looks_like_ref(node.name):
                continue
            if path.name != "reference.py":
                found.append(f"{path.name}:{node.name}: not in reference.py")
            doc = ast.get_docstring(node) or ""
            if not doc.startswith(("Exact:", "Guard:")):
                found.append(f"{path.name}:{node.name}: no Exact: or Guard:")
            elif doc.startswith("Exact:"):
                exact.add(node.name)
    assert len(exact) >= 4
    assert found == []
    assert exact <= imported, exact - imported
