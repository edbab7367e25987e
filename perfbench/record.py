"""Record the statuses the correctness gate compares against.

    python3 perfbench/record.py

Runs every fixed problem and every pool member of every workload once, as
generated, under the same wall budget as the benchmark, checks each output
with the gate, and writes ``expected.json``: per workload and input label,
the exact verdict statuses and exit code, or ``"over_budget"``. Run it only
on the commit that defines the benchmark.
"""

import json
import signal
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    signal.signal(signal.SIGALRM, run._alarm)
    import gate

    recorded = {}
    for name, cls in run.WORKLOAD_CLASSES.items():
        workload = cls(name, 0, {})
        table = recorded[name] = {}
        try:
            for op in workload.ops(run.draw_problems(name, None)):
                out, seconds = run.timed(op)
                print(f"{name} {op.label} {seconds:.3f}s", file=sys.stderr)
                if out is run.OVER:
                    table[op.label] = "over_budget"
                    continue
                errors = op.check(*out)
                if errors:
                    raise SystemExit(f"{op.label}: {errors}")
                data, code = out
                if name == "space_check":
                    table[op.label] = {c: v["status"] for c, v in json.loads(data).items()}
                    continue
                entry = {"exit": code}
                if data.lstrip().startswith(b"{"):
                    report = json.loads(data)
                    if "exhausters" in report:
                        entry.update(gate.exact_statuses(report))
                    else:
                        entry.update({c: v["status"] for c, v in report["conditions"].items()})
                table[op.label] = entry
        finally:
            workload.close()
    run.RECORDED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
