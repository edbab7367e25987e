"""What the benchmark in ``perfbench/`` reads from the library: the names
its gate and tracer import, every attribute its traced run wraps, and the
keys of ``Verdict.to_json()`` that its ``space_check`` workload reads."""

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
