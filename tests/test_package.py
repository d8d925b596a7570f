"""The package ships only what its commands and public API use."""

import ast
import importlib.util
from pathlib import Path

import rootproj

SRC = Path(rootproj.__file__).resolve().parent
TRACING = SRC.parent.parent / "perfbench" / "tracing.py"

# public entry points that no other package code calls: the tests and
# library users are their only callers by design
LIBRARY_ONLY = {"revalidate"}


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
