"""The package ships only what its commands and public API use."""

import ast
import importlib.util
import io
import json
from collections import Counter, namedtuple
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import FunctionType

import rootproj
from rootproj import classify, cli, detect, output
from test_values import _package_tuple_types

SRC = Path(rootproj.__file__).resolve().parent
PERFBENCH = SRC.parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"

# public entry points that no other package code calls: the tests and
# library users are their only callers by design
LIBRARY_ONLY = {"revalidate"}

# members of the package's tuple types that no package or benchmark code
# reads, each with its reason: none today
UNREAD_MEMBERS: set = set()

# members whose name another tuple type of the package, or Fraction, also
# defines, so that a read of the name alone proves nothing: each with a
# package function, as module.name or module.Class.name, that reads it on
# its own type
READ_ON_OWN_TYPE = {
    "ClosureCertificate.basis": "output.report_dict",
    "ClosureCertificate.components": "detect.ClosureCertificate.size",
    "ClosureCertificate.target": "detect.revalidate",
    "ComponentWitness.basis": "detect._place",
    "ComponentWitness.label": "output.report_dict",
    "DetectionReport.found": "output.report_dict",
    "DetectionReport.target": "output.report_dict",
    "GoldenTable.found": "classify.verify_paper",
    "ProjectionResult.denominator": "detect.find_subsystem",
    "RealizedRootSystem.label": "output.detection_doc",
    "RealizedRootSystem.rank": "projection.project_all",
    "Target.components": "catalog.Target.is_irreducible",
    "Target.rank": "detect.find_subsystem",
    "TypeLabel.rank": "cli._parse_sigma",
}

# the Fraction views of a projection: only the module that builds them
# and the one that writes them out read them
FRACTION_VIEWS = {"sigma_theta", "delta_theta", "census", "sigma_theta_set",
                  "pair_reps", "pool"}
FRACTION_VIEW_READERS = {"projection", "output"}

# which labels name the same system, and in which order the targets come:
# the label list, the normalization, the type lookup and the reduced type
# it gives a label are catalog's, which no other module names
LABEL_RULES = {"irreducible_labels", "normalize_components", "_type_of",
               "_reduced"}
LABEL_RULE_OWNER = "catalog"


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


def _loaded_attrs(tree):
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _function(qualname):
    """The AST of module.name or module.Class.name in the package."""
    module, *names = qualname.split(".")
    node = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    for name in names:
        node = next(stmt for stmt in node.body
                    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and stmt.name == name)
    return node


def test_every_member_of_a_result_type_is_read():
    """Every field, property and method of the package's tuple types is
    read somewhere in the package or in perfbench's scripts, or is one of
    UNREAD_MEMBERS.

    A member whose name no other type defines counts as read when its
    name is read as an attribute anywhere there.  One whose name another
    type of the package or ``Fraction`` also defines (``rank``, say, or
    ``denominator``) counts as read only through its READ_ON_OWN_TYPE
    function, whose body must read the name.
    """
    paths = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    read = set().union(*(_loaded_attrs(ast.parse(path.read_text(
        encoding="utf-8"))) for path in paths))
    types = _package_tuple_types()
    # a private base's members are its public subclass's
    leaves = [cls for cls in types
              if not any(o is not cls and issubclass(o, cls) for o in types)]
    owners = Counter(name for cls in leaves for name in _members(cls))
    fraction = {name for name in dir(Fraction) if not name.startswith("_")}
    members = {f"{cls.__name__}.{name}": name
               for cls in leaves for name in _members(cls)}
    shared = {member for member, name in members.items()
              if owners[name] > 1 or name in fraction}
    assert set(READ_ON_OWN_TYPE) == shared - UNREAD_MEMBERS

    def is_read(member, name):
        if member in shared:
            return member in READ_ON_OWN_TYPE and name in _loaded_attrs(
                _function(READ_ON_OWN_TYPE[member]))
        return name in read

    unread = {member for member, name in members.items()
              if not is_read(member, name)}
    assert unread == UNREAD_MEMBERS


def test_only_the_byte_layer_reads_the_fraction_views():
    # the search runs on a projection's ints; its Fraction views are
    # read where they are built and where they are written as bytes
    reads = [f"{path.stem}:{node.lineno} .{node.attr}"
             for path in sorted(SRC.glob("*.py"))
             if path.stem not in FRACTION_VIEW_READERS
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)
             and node.attr in FRACTION_VIEWS]
    assert not reads, f"Fraction views read outside the byte layer: {reads}"


def test_only_the_catalog_applies_the_label_rules():
    # detect reads a label's reduced type and a Cartan matrix's type off
    # catalog (TypeLabel.reduced, finite_type) and keeps no rule of its
    # own: it neither defines, imports nor calls a LABEL_RULES name
    uses = [f"{path.stem}:{node.lineno} {name}"
            for path in sorted(SRC.glob("*.py"))
            if path.stem != LABEL_RULE_OWNER
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            for name in (getattr(node, field, None)
                         for field in ("id", "attr", "name"))
            if name in LABEL_RULES]
    assert not uses, f"label rules outside {LABEL_RULE_OWNER}: {uses}"


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
    # a --trace 1 per-layer metric silently reads zero.  The search is
    # timed in find_subsystem: once per report, and once more for an
    # irreducible target with no restricted copy, which is one whose
    # basis is not from delta_theta (the restricted search tries every
    # subset of delta_theta)
    calls = Counter()

    def counting(mod, attr):
        fn = getattr(mod, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(mod, attr, wrapper)

    for mod, attr in ((cli, "classify_theta"), (classify, "project_all"),
                      (classify, "classify_max_rank"),
                      (detect, "find_subsystem"),
                      (output, "detection_doc")):
        counting(mod, attr)
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(["enumerate", "--sigma", "F4", "--format", "json"]) == 0
    reports = [rep for line in out.getvalue().splitlines()
               for rep in json.loads(line)["reports"]]
    assert out.getvalue().count("\n") == 14
    searches = calls.pop("find_subsystem", 0)
    assert calls == dict.fromkeys(("classify_theta", "project_all",
                                   "classify_max_rank", "detection_doc"), 14)
    assert searches == len(reports) + sum(
        "x" not in rep["target"] and not rep["basis_from_delta_theta"]
        for rep in reports) > len(reports)
