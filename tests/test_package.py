"""The package ships only what its commands and public API use."""

import ast
import importlib.util
import io
from collections import Counter, namedtuple
from contextlib import redirect_stdout
from pathlib import Path
from types import FunctionType

import rootproj
from rootproj import classify, cli, output
from test_values import _package_tuple_types

SRC = Path(rootproj.__file__).resolve().parent
PERFBENCH = SRC.parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"

# public entry points that no other package code calls: the tests and
# library users are their only callers by design
LIBRARY_ONLY = {"revalidate"}

# members of the package's tuple types that no package or benchmark code
# reads, each with its reason
UNREAD_MEMBERS = {
    # tells a library caller why certify refused a basis; the search
    # needs only the refusal
    "ClosureFailure.mistyped",
}


def _defined_names(stmt):
    """Names a top-level statement defines: functions, classes, constants."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced_names(stmt):
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_no_library_code_only_tests_call():
    # every top-level function, class and constant of the package is
    # used by another top-level statement of the package or is one of
    # the few library-only entry points; a name used only by the test
    # suite belongs in the tests, public or not
    statements = [(path.stem, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    refs = [(stmt, _referenced_names(stmt)) for _, stmt in statements]
    unused = [
        f"{module}.{name}" for module, stmt in statements
        for name in _defined_names(stmt)
        if name not in LIBRARY_ONLY
        and not (name.startswith("__") and name.endswith("__"))
        and not any(other is not stmt and name in names
                    for other, names in refs)]
    assert not unused, f"referenced by no other package code: {unused}"


def _members(cls):
    """Fields, properties and methods a tuple type defines itself, less
    what namedtuple generates and dunder methods."""
    generated = set(vars(namedtuple("_", ())))
    return set(getattr(cls, "_fields", ())) | {
        name for name, obj in vars(cls).items()
        if isinstance(obj, (property, FunctionType, classmethod,
                            staticmethod))
        and name not in generated
        and not (name.startswith("__") and name.endswith("__"))}


def test_every_member_of_a_result_type_is_read():
    """Every field, property and method of the package's tuple types is
    read as an attribute somewhere in the package or in perfbench's
    scripts, or is one of UNREAD_MEMBERS.

    The check matches names, not types: a member whose name is read on
    another type passes unseen.  ``roots``, say, is read as
    ``ComponentWitness.roots``, so a ``roots`` field of another type
    would pass unread.
    """
    paths = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    read = {node.attr for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = {f"{cls.__name__}.{name}" for cls in _package_tuple_types()
              for name in _members(cls) if name not in read}
    assert unread == UNREAD_MEMBERS


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench's tracer patches package attributes by name: its
    # SPAN_SITES and every ``module.attr`` it reads off a package module,
    # such as cli._one_record and cli._write_record.  A renamed or
    # deleted one fails here, not only in the benchmark's traced passes
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {name: mod for name, mod in vars(tracing).items()
               if getattr(mod, "__name__", "").startswith("rootproj.")}
    wrapped = {(mod.__name__, attr) for mod, attr, *_ in tracing.SPAN_SITES}
    for node in ast.walk(ast.parse(TRACING.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            wrapped.add((modules[node.value.id].__name__, node.attr))
    assert {("rootproj.cli", "_one_record"),
            ("rootproj.cli", "_write_record")} <= wrapped
    assert len({mod for mod, _ in wrapped}) > 1
    missing = [f"{mod}.{attr}" for mod, attr in sorted(wrapped)
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, f"wrapped by perfbench/tracing.py, gone: {missing}"


def test_enumerate_reaches_the_names_the_tracer_times(monkeypatch):
    # perfbench's traced pass times classification, projection, search
    # and serialization by patching these module attributes; enumerate
    # must look each of them up there at call time, once per theta, or
    # a --trace 1 per-layer metric silently reads zero
    calls = Counter()

    def counting(mod, attr):
        fn = getattr(mod, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(mod, attr, wrapper)

    for mod, attr in ((cli, "classify_theta"), (classify, "project_all"),
                      (classify, "classify_max_rank"),
                      (output, "detection_doc")):
        counting(mod, attr)
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(["enumerate", "--sigma", "F4", "--format", "json"]) == 0
    assert out.getvalue().count("\n") == 14
    assert calls == dict.fromkeys(("classify_theta", "project_all",
                                   "classify_max_rank", "detection_doc"), 14)
