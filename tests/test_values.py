"""The package's result types are immutable, picklable tuple values, and
importing it loads no more of the standard library than its commands use."""

import importlib
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rootproj
from oracles import build_from_name, classical_predicate, oracle_equivalence
from rootproj import (ClosureFailure, Target, TypeLabel, classify_max_rank,
                      find_subsystem, parse_label, parse_target, project_all,
                      verify_paper)
from rootproj.classify import load_golden_tables

SRC = Path(rootproj.__file__).resolve().parent.parent


def test_cli_import_leaves_out_dataclasses_inspect_and_resources():
    # -S: no site module, which may import importlib.resources by itself
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import rootproj.cli\n"
        "print(sorted(set(sys.modules) & "
        "{'dataclasses', 'inspect', 'importlib.resources'}))\n"
        "sys.exit(rootproj.cli.main(['verify-paper', '--sigma', 'F4']))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("[]\n")
    assert proc.stdout.endswith("result: PASS\n")


def _values(f4_docs):
    """One instance of every result type, named by its type; f4_docs are
    the enumerate documents of F4."""
    f4 = build_from_name("F4")
    pr = project_all(f4, (1, 2))
    found = next(r for r in classify_max_rank(pr) if r.found)
    values = [
        TypeLabel("A", 1), parse_target("E7xA1"), f4, pr,
        ClosureFailure(), found.certificate, found.certificate.components[0],
        found, load_golden_tables()["F4"],
        verify_paper(parse_label("F4"), f4_docs),
    ]
    return {type(v).__name__: v for v in values}


def _oracle_values():
    """One instance of every result type of the test oracles."""
    oracle = oracle_equivalence(parse_label("A2"))
    values = [classical_predicate(parse_label("A3"), (2,)), oracle,
              oracle.entries[0]]
    return {type(v).__name__: v for v in values}


def _package_tuple_types():
    """Every tuple type a module of the package defines."""
    out = set()
    for info in pkgutil.iter_modules(rootproj.__path__):
        module = importlib.import_module(f"rootproj.{info.name}")
        out.update(obj for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, tuple)
                   and obj.__module__ == module.__name__)
    return out


def _assert_immutable(values):
    for name, value in values.items():
        assert isinstance(value, tuple), name
        field = value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.cache = {}


def test_every_result_type_is_immutable(enumerated):
    values = _values(enumerated("F4").docs)
    assert len(values) == 10
    # every tuple type of the package has an instance here, its private
    # bases (catalog's _TypeLabel and _Target) through their subclasses
    types = _package_tuple_types()
    assert {t.__name__ for t in types} >= set(values)
    for t in types:
        assert any(isinstance(v, t) for v in values.values()), t.__name__
    _assert_immutable(values)


def test_every_oracle_result_type_is_immutable():
    values = _oracle_values()
    assert set(values) == {"ClassicalPrediction", "OracleReport",
                           "OracleEntry"}
    _assert_immutable(values)


def test_results_survive_pickle(enumerated):
    values = _values(enumerated("F4").docs)
    for name in ("DetectionReport", "ProjectionResult"):
        value = values[name]
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value) and back == value, name
    pr = values["ProjectionResult"]
    back = pickle.loads(pickle.dumps(pr))
    assert back.pool() == pr.pool() \
        and back.sigma_scaled_norms == pr.sigma_scaled_norms
    # the derived views read the same off the round-tripped fields
    assert (back.d, back.delta_theta, back.sigma_theta, back.census,
            back.sigma_theta_set) == (pr.d, pr.delta_theta, pr.sigma_theta,
                                      pr.census, pr.sigma_theta_set)
    report = find_subsystem(back, parse_target("G2"))
    assert report.found and report == find_subsystem(pr, parse_target("G2"))


def test_value_type_contract():
    assert not ClosureFailure()
    assert not ClosureFailure(oversize=True)
    with pytest.raises(ValueError):
        TypeLabel("E", 5)
    with pytest.raises(ValueError):
        Target(())
    a1, e7 = TypeLabel("A", 1), TypeLabel("E", 7)
    assert Target((a1, e7)).components == (e7, a1)
    assert str(Target((a1, e7))) == "E7xA1"
    # a value is a tuple: equal to a plain tuple of the same fields
    assert a1 == ("A", 1) and tuple(a1) == ("A", 1)
    assert pickle.loads(pickle.dumps(Target((a1, e7)))) == Target((e7, a1))
