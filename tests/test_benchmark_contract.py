"""The public names and imports that the benchmark under perfbench/ reads.

perfbench leaves out a per-layer metric whose public name is gone, and an
import.* figure for a module that `import besselzeta` no longer loads, so
a traced run can end short of its result line without failing.  These
tests read the benchmark's files (they change none of them) and fail
first.  A change that drops sympy (or another module) from the program
must change the benchmark in the same step, and this test with it.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from besselzeta.suites import RUNTIME_LIMITS, SUITES

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def _resolves(name: str) -> bool:
    """Whether the tracer finds `layer.attr` or `layer.Class.member` among
    the public callables it wraps."""
    layer, attr, *member = name.split(".")
    mod = importlib.import_module(f"besselzeta.{layer}")
    obj = vars(mod).get(attr)
    if obj is None or getattr(obj, "__module__", None) != mod.__name__:
        return False
    return not member or member[0] in vars(obj)


def _layer_metric_sources() -> set:
    """The public names behind run.py's layer_metrics: the third item of
    each (metric, source, name) triple, and the RatFunc arithmetic."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "RATFUNC_ARITH" for t in node.targets):
            names |= {f"symfield.RatFunc.{a}" for a in ast.literal_eval(node.value)}
        if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics":
            for sub in ast.walk(node):
                if isinstance(sub, ast.Tuple) and len(sub.elts) == 3 and all(
                        isinstance(sub.elts[i], ast.Constant) for i in (0, 2)):
                    names.add(sub.elts[2].value)
    return names


def test_traced_names_resolve(perfbench):
    tracer, workloads = perfbench
    from_run = _layer_metric_sources()
    assert "padicring.zeta_case2_3_cosets" in from_run  # the parse found the triples
    exhaustive = {f"{mod}.{name}" for mod, names in workloads.ExhaustiveSums.NAMES.items()
                  for name in names}
    wanted = tracer.TIMED | tracer.PER_TERM | from_run | exhaustive
    assert sorted(n for n in wanted if not _resolves(n)) == []


def test_suite_metrics_resolve():
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    for metric in (m["name"] for m in spec["per_layer"]):
        if not metric.startswith("suite."):
            continue
        suite = metric.removeprefix("suite.").removesuffix("_s").removesuffix(".budget_frac")
        assert suite in SUITES, metric
        assert _resolves(f"suites.{SUITES[suite].__name__}"), metric
        if metric.endswith(".budget_frac"):
            assert RUNTIME_LIMITS.get(suite), metric


def test_import_loads_the_timed_modules():
    probe = "import sys, besselzeta; print([m in sys.modules for m in ('sympy', 'mpmath')])"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[True, True]"
