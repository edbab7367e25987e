"""What the benchmark in ``perfbench/`` reads from the library: every name
it imports, at module level or inside a function, every attribute its
traced run wraps, and the keys of ``Verdict.to_json()`` that its
``space_check`` workload reads."""

import ast
import importlib
from pathlib import Path

import exhausters.cli
from exhausters.conditions import ConditionID, evaluate_condition

from helpers import F_UPPER

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_finds_what_it_reads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gate
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()  # LookupError on a hook the library no longer has
    finally:
        tracer.uninstall()
    assert exhausters.cli.evaluate_condition is evaluate_condition

    verdict = evaluate_condition(ConditionID.UNC_MIN_UPPER, F_UPPER).to_json()
    assert list(verdict) == ["status", "method", "witness", "certificate"]
    assert verdict["status"] == "violated"
    assert gate.witness_errors("UNC_MIN_UPPER", verdict["witness"], F_UPPER, None) == []


def test_every_name_the_benchmark_imports_resolves():
    # Read from the source, so that an import inside a function (run.py's
    # workloads import the library only when they run) is checked too.
    imported = []  # (module, name), the name None for a plain import
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                imported += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [(alias.name, None) for alias in node.names]
    imported = [(module, name) for module, name in imported
                if module and module.split(".")[0] == "exhausters"]
    assert ("exhausters", "Exhauster") in imported  # run.py's, in a function
    missing = [(module, name) for module, name in imported
               if not hasattr(importlib.import_module(module), name or "__name__")]
    assert missing == []
