"""Benchmark of the exhausters pipeline, driven from outside the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, closed loop: each operation starts when the
previous one has finished. Inputs are generated from ``--seed`` (see
``gen.py``); the library receives only problem JSON. Passes over the
workload's input list repeat until ``--seconds`` is used up (at least two
passes, so that outputs can be compared between passes). Every output is
checked (``gate.py``); the last line of stdout is one JSON object with the
metrics. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (``spans.py``) that alternates traced
and untraced passes. End-to-end times are scaled to a fixed machine speed,
measured by reference work timed between the operations (``SpeedLog``).
See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# One BLAS thread, in this process and in every child it starts: the
# library's arrays are tiny, and idle pool threads only contend for the
# machine's few cores. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "fixtures" / "reference-example" / "problem.json"
EXPECTED_REPORT = FIXTURE.with_name("expected-report.json")
RECORDED = HERE / "expected.json"

# Per-operation wall budget. The slowest in-budget operation (the aan/aan
# rung) takes about 2 s on a shared 2-vCPU x86 virtual machine; ann/aan needs
# about 158 s. The budget sits between the two with room on both sides.
BUDGET_S = 5.0
# Import probes: this many before the passes and one after each pass, so
# that setup_s is a median over the whole run.
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import exhausters; "
                "print(time.perf_counter() - t)")
# Speed reference. The shared machine the benchmark was tuned on swings in
# CPU speed by up to 2x over seconds to minutes, and every operation slows
# with it. Fixed reference work, timed at least every REF_EVERY_S between
# operations, measures that speed; an operation's wall time is scaled by
# REF_NOMINAL_S over the reference's time around it, which gives seconds at
# the speed where the reference work takes REF_NOMINAL_S (about the fastest
# seen on a shared 2-vCPU x86 virtual machine).
REF_NOMINAL_S = 0.0025
REF_EVERY_S = 0.05

# Workload parameters. A pool entry is (label prefix, dim, templates, pool
# size, draws per run): each run draws that many generator seeds from the
# pool, so every input a seed can produce has its statuses recorded in
# expected.json. Drawing a large share of each pool keeps the work per
# pass close to the same for every seed.
WORKLOADS = {
    "plane_analyze": {
        "fixed": [("reference", None)],
        "pools": [("k2", 2, ("?2+?2", "?2+?2"), 120, 100)],
    },
    "space_analyze": {
        "fixed": [("rung:aan/aan", ("aan", "aan")), ("rung:ann/aan", ("ann", "aan"))],
        "pools": [("k3", 3, ("M2+m3", "M2+m3"), 12, 2),
                  ("k3", 3, ("?2+?2", "?2+?2"), 24, 20),
                  ("k4", 4, ("?2+?2", "?2+?2"), 24, 20)],
    },
    "space_check": {
        "fixed": [],
        "pools": [("k3", 3, ("M2+m3", "M3c+M2c"), 4, 4),
                  ("k3", 3, ("?2+?2", "?2+?2"), 60, 56)],
    },
    "cli_oneshot": {"fixed": [], "pools": []},
}


class OverBudget(Exception):
    """Raised by the interval timer when an operation exceeds BUDGET_S."""


def _alarm(signum, frame):
    raise OverBudget()


@dataclass
class Op:
    """One timed operation: ``run`` returns (output bytes, exit code)."""

    label: str
    run: Callable[[], tuple[bytes, int]]
    check: Callable[[bytes, int], list[str]]
    may_exceed: bool = False  # recorded over budget when the benchmark was defined


def reference_work() -> float:
    """Fixed CPU work in the library's mix: small tuples, dicts and sorts in
    pure Python, and small numpy arrays built from lists, as the LP kernel
    builds them. It tracks the library's slowdowns better than a tight
    arithmetic loop or a memory-bound walk."""
    import numpy as np
    rng = random.Random(1)
    points = [(rng.random(), rng.random(), rng.random()) for _ in range(400)]
    total = 0.0
    for _ in range(4):
        cells: dict[tuple[float, float], float] = {}
        for p in points:
            key = (round(p[0], 2), round(p[1], 2))
            cells[key] = cells.get(key, 0.0) + p[0] * p[1] - p[2]
        total += sum(sorted(cells.values())[:10])
    for k in range(60):
        rows = np.array(points[k:k + 6], dtype=float)
        tableau = np.hstack([rows, -rows, np.eye(6)])
        total += float(tableau.sum()) + float(np.argmin(tableau[0]))
    return total


class SpeedLog:
    """Times of the reference work along the run, in order."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def mark(self, force: bool = False) -> int:
        """Time the reference work if REF_EVERY_S has passed since the last
        sample (or if forced); returns the index of the latest sample."""
        if force or time.perf_counter() - self.last >= REF_EVERY_S:
            start = time.perf_counter()
            reference_work()
            self.last = time.perf_counter()
            self.samples.append(self.last - start)
        return len(self.samples) - 1

    def scale(self, before: int) -> float:
        """Speed factor for work done between sample ``before`` and the
        next one: REF_NOMINAL_S over the mean of those two samples. Wider
        windows track the machine's speed less closely: they gave a wider
        spread between runs on ``cli_oneshot``."""
        return REF_NOMINAL_S / statistics.mean(self.samples[before:before + 2])


def pool_label(prefix: str, templates: tuple[str, str], seed: int) -> str:
    return f"{prefix}:{templates[0]}/{templates[1]}:{seed}"


def draw_problems(name: str, rng: random.Random | None) -> list[tuple[str, dict]]:
    """The workload's inputs for one run: the fixed problems and the pool
    draws, in an order shuffled by ``rng`` so that each kind of operation
    is spread over the pass. Without ``rng``, every pool member in order
    (used for recording)."""
    import gen
    spec = WORKLOADS[name]
    out = []
    for label, rung in spec["fixed"]:
        problem = json.loads(FIXTURE.read_text()) if rung is None else gen.abs_sum(*rung)
        out.append((label, problem))
    for prefix, dim, templates, size, draws in spec["pools"]:
        seeds = range(size) if rng is None else rng.sample(range(size), draws)
        for seed in seeds:
            out.append((pool_label(prefix, templates, seed),
                        gen.kinked(dim, templates, seed)))
    if rng is not None:
        rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Builds the operations of one workload and collects their trace."""

    def __init__(self, name: str, seed: int, recorded: dict):
        import exhausters.cli as cli
        import gate
        from spans import Tracer

        self.cli, self.gate = cli, gate
        self.name = name
        self.rng = random.Random(seed)
        self.recorded = recorded.get(name, {})
        self.tracer = Tracer()

    def ops(self, problems: list[tuple[str, dict]]) -> list[Op]:
        raise NotImplementedError

    def trace(self, on: bool) -> None:
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()

    def take_layers(self):
        from spans import summarize
        return summarize(self.tracer.take())

    def close(self) -> None:
        self.tracer.uninstall()


class Analyze(Workload):
    """analyze_problem(sense="both") plus render_report, in process."""

    def ops(self, problems):
        return [self._op(label, problem) for label, problem in problems]

    def _op(self, label: str, problem: dict) -> Op:
        cli = self.cli
        recorded = self.recorded.get(label)

        def run():
            report, code = cli.analyze_problem(problem, sense="both")
            return cli.render_report(report), code

        def check(data, code):
            return self.gate.analysis_errors(json.loads(data), code, _statuses(recorded))

        return Op(label, run, check, recorded == "over_budget")


class Check(Workload):
    """All twelve condition ids on one problem's unreduced families per
    operation, in process: what one ``check`` call does for a list of ids."""

    def ops(self, problems):
        from exhausters import (ConditionID, directional_derivative_tree,
                                exhauster_from_tree, expr_from_json)
        ops = []
        for label, problem in problems:
            families = {}
            for func, key in (("f", "objective"), ("u", "constraint")):
                tree = directional_derivative_tree(expr_from_json(problem[key]),
                                                   problem["point"])
                for kind in ("upper", "lower"):
                    families[func, kind] = exhauster_from_tree(tree, kind)
            pairs = {}
            for cid in ConditionID:
                parts = cid.value.split("_")
                if parts[0] == "UNC":
                    pairs[cid] = families["f", parts[2].lower()], None
                else:
                    pairs[cid] = families["f", parts[1].lower()], families["u", parts[2].lower()]
            ops.append(self._op(label, pairs, self.recorded.get(label, {})))
        return ops

    def _op(self, label, pairs, recorded) -> Op:
        cli, gate = self.cli, self.gate

        def run():
            verdicts = {cid.value: cli.evaluate_condition(cid, ef, eu).to_json()
                        for cid, (ef, eu) in pairs.items()}
            return json.dumps(verdicts).encode(), 0

        def check(data, code):
            verdicts = json.loads(data)
            errors = gate.status_errors(recorded, {c: v["status"] for c, v in verdicts.items()})
            for cid, (ef, eu) in pairs.items():
                verdict = verdicts[cid.value]
                if verdict["status"] == "violated":
                    errors += gate.witness_errors(cid.value, verdict["witness"], ef, eu)
            return errors

        return Op(label, run, check)


class CliOneshot(Workload):
    """Sequential ``python -m exhausters.cli`` child processes."""

    CALLS = [
        ("analyze-min", ["analyze", "{problem}", "--sense", "min"]),
        ("analyze-max", ["analyze", "{problem}", "--sense", "max"]),
        ("analyze-both-text", ["analyze", "{problem}", "--sense", "both", "--format", "text"]),
        ("check-upper-lower", ["check", "--f-exhauster", "{f_upper}", "--u-exhauster", "{u_lower}",
                               "--conditions", "MIN_UPPER_LOWER,MAX_UPPER_LOWER,UNC_MIN_UPPER,UNC_MAX_UPPER"]),
        ("check-lower-upper", ["check", "--f-exhauster", "{f_lower}", "--u-exhauster", "{u_upper}",
                               "--conditions", "MIN_LOWER_UPPER,MAX_LOWER_UPPER,UNC_MIN_LOWER,UNC_MAX_LOWER"]),
        ("check-upper-upper", ["check", "--f-exhauster", "{f_upper}", "--u-exhauster", "{u_upper}",
                               "--conditions", "MIN_UPPER_UPPER,MAX_UPPER_UPPER"]),
        ("check-lower-lower", ["check", "--f-exhauster", "{f_lower}", "--u-exhauster", "{u_lower}",
                               "--conditions", "MIN_LOWER_LOWER,MAX_LOWER_LOWER"]),
        ("oracle", ["oracle", "{problem}"]),
    ]

    def __init__(self, name, seed, recorded):
        super().__init__(name, seed, recorded)
        # Family files live in a scratch directory inside the checkout.
        self.tmp = tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT)
        self.traced = False
        self.child_layers: list[dict] = []
        from exhausters import Exhauster
        expected = json.loads(EXPECTED_REPORT.read_text())
        self.paths = {"problem": str(FIXTURE)}
        self.families = {}
        for func in ("f", "u"):
            for kind in ("upper", "lower"):
                data = expected["exhausters"][func][kind]
                path = Path(self.tmp.name) / f"{func}_{kind}.json"
                path.write_text(json.dumps(data))
                self.paths[f"{func}_{kind}"] = str(path)
                self.families[str(path)] = Exhauster.from_json(data)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def ops(self, problems):
        calls = list(self.CALLS)
        self.rng.shuffle(calls)
        return [self._op(label, [a.format(**self.paths) for a in argv])
                for label, argv in calls]

    def _op(self, label: str, argv: list[str]) -> Op:
        recorded = self.recorded.get(label, {})

        def run():
            if self.traced:
                cmd = [sys.executable, str(HERE / "cli_child.py")] + argv
            else:
                cmd = [sys.executable, "-m", "exhausters.cli"] + argv
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=ROOT)
            if self.traced:
                layers = json.loads(proc.stderr.decode().splitlines()[-1])
                layers["cli.process_s"] = time.perf_counter() - start
                self.child_layers.append(layers)
            return proc.stdout, proc.returncode

        def check(data, code):
            errors = []
            if "exit" in recorded and code != recorded["exit"]:
                errors.append(f"exit code {code}, recorded {recorded['exit']}")
            if label == "analyze-min" and data != EXPECTED_REPORT.read_bytes():
                errors.append("report differs from expected-report.json")
            if argv[0] == "analyze" and "text" not in argv:
                errors += self.gate.analysis_errors(json.loads(data), code,
                                                    _statuses(recorded))
            if argv[0] == "check":
                out = json.loads(data)
                ef, eu = self.families[argv[2]], self.families[argv[4]]
                statuses = {c: v["status"] for c, v in out["conditions"].items()}
                errors += self.gate.status_errors(_statuses(recorded), statuses)
                for cid, v in out["conditions"].items():
                    if v["status"] == "violated":
                        errors += self.gate.witness_errors(
                            cid, v["witness"], ef, None if cid.startswith("UNC") else eu)
            return errors

        return Op(label, run, check)

    def trace(self, on: bool) -> None:
        self.traced = on

    def take_layers(self):
        out = {}
        for layers in self.child_layers:
            _merge(out, layers)
        self.child_layers.clear()
        return out

    def close(self) -> None:
        self.tmp.cleanup()


def _statuses(recorded):
    if recorded is None or recorded == "over_budget":
        return None
    return {k: v for k, v in recorded.items() if k != "exit"}


WORKLOAD_CLASSES = {"plane_analyze": Analyze, "space_analyze": Analyze,
                    "space_check": Check, "cli_oneshot": CliOneshot}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

OVER = (b"over budget", -1)
SAME = (b"same as the first pass", -1)
SKIPPED = (b"cut by the budget in an earlier pass", -1)


def timed(op: Op) -> tuple[tuple[bytes, int | None], float]:
    """Run one operation under the wall budget; OVER if it ran out, and
    exit code None with the exception's text if it raised."""
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
            out = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverBudget:
        out = OVER
    except Exception:  # the operation failed; the run goes on
        out = (traceback.format_exc().encode(), None)
    return out, time.perf_counter() - start


def import_seconds() -> float:
    """Import time of a fresh interpreter, measured in a child process."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, check=True, timeout=120)
    return float(proc.stdout)


def scaled_import_seconds(speed: SpeedLog) -> float:
    """``import_seconds`` scaled by the speed measured just around it: it
    takes a speed sample before and after the probe."""
    before = speed.mark(force=True)
    seconds = import_seconds()
    speed.mark(force=True)
    return seconds * speed.scale(before)


def op_times(passes: list[dict], key: str = "scaled") -> list[float]:
    """Each operation's median time over the given passes: scaled, or
    wall time with ``key="times"``."""
    return [statistics.median(column) for column in zip(*(p[key] for p in passes))]


def scale_passes(passes: list[dict], speed: SpeedLog) -> None:
    """Add each pass's scaled operation times, and total its operations'
    per-layer parts with their times scaled the same way. An operation
    cut by the budget keeps its wall time: the budget is a wall-clock
    limit."""
    from spans import TIME_METRICS
    for p in passes:
        p["scaled"] = [dt if out is OVER or out is SKIPPED else dt * speed.scale(at)
                       for dt, at, out in zip(p["times"], p["at"], p["outputs"])]
        layers = {}
        for at, part in p["layers"]:
            factor = speed.scale(at)
            _merge(layers, {k: v * factor if k in TIME_METRICS else v
                            for k, v in part.items()})
        p["layers"] = layers


def run_passes(workload: Workload, ops: list[Op], seconds: float, trace: bool,
               setup: list[float], speed: SpeedLog):
    """Timed passes until ``seconds`` is used up, with an import probe
    after each, and reference work between operations (``SpeedLog``).
    Each operation records the index of the speed sample before it and,
    in a traced pass, its per-layer part. In a traced run even passes are
    traced and odd ones are not, and it stops after an even number of
    passes, at least four, so that both kinds have the same number of
    samples."""
    passes = []
    cut: dict[int, float] = {}  # operation index -> time it was cut at
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        workload.trace(traced)
        outputs, times, at, layers = [], [], [], []
        speed.mark(force=True)
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            at.append(speed.mark())
            if i in cut:
                # It would be cut again and cost another full budget, so it
                # is not rerun; it keeps the time it was cut at.
                outputs.append(SKIPPED)
                times.append(cut[i])
                continue
            out, dt = timed(op)
            if out is OVER:
                cut[i] = dt
            # Later passes keep only a marker for a repeated output, so
            # memory does not grow with the number of passes.
            if passes and out is not OVER and out[1] is not None \
                    and out == passes[0]["outputs"][i]:
                out = SAME
            outputs.append(out)
            times.append(dt)
            if traced:
                part = workload.take_layers()
                if out is not OVER:  # partial work of a cut operation is dropped
                    layers.append((at[-1], part))
        speed.mark(force=True)
        wall = time.perf_counter() - t0
        workload.trace(False)
        passes.append({"traced": traced, "wall": wall, "times": times, "at": at,
                       "outputs": outputs, "layers": layers})
        setup.append(scaled_import_seconds(speed))
        elapsed = time.perf_counter() - start
        enough = len(passes) % 2 == 0 and len(passes) >= 4 if trace \
            else len(passes) >= 2
        # The next pass will take about as long as the last one; the first
        # can take longer, since it pays for the operations the budget cuts.
        if enough and elapsed + wall > seconds:
            return passes


def _merge(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def gate_passes(ops: list[Op], passes: list[dict]):
    """Full checks on the first pass, byte-for-byte repeats on the others.
    Returns the failed and over-budget counts over all passes, and the
    reasons for the failures."""
    failed = over = 0
    errors = []
    for i, op in enumerate(ops):
        for p in passes:
            out = p["outputs"][i]
            if out is SAME or out is SKIPPED:
                continue
            if out is OVER:
                if op.may_exceed:
                    over += 1
                else:
                    failed += 1
                    errors.append(f"{op.label}: over budget")
                continue
            if out[1] is None:
                failed += 1
                errors.append(f"{op.label}: raised\n{out[0].decode()}")
                continue
            if p is not passes[0]:
                problems = ["output differs between passes"]
            else:
                try:
                    problems = op.check(*out)
                except Exception as exc:  # a malformed output is a wrong output
                    problems = [f"check raised {exc!r}"]
            if problems:
                failed += 1
                errors += [f"{op.label}: {msg}" for msg in problems]
    return failed, over, errors


def fixture_errors() -> list[str]:
    import exhausters.cli as cli
    problem = json.loads(FIXTURE.read_text())
    report, code = cli.analyze_problem(problem, sense="min")
    if cli.render_report(report) != EXPECTED_REPORT.read_bytes() or code != 0:
        return ["reference fixture does not reproduce expected-report.json"]
    return []


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "exhausters" / "__init__.py").is_file() or not FIXTURE.is_file():
        print(f"error: no exhausters sources under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)
    recorded = json.loads(RECORDED.read_text())

    speed = SpeedLog()
    import_seconds()  # the first child may compile bytecode; not counted
    setup = [scaled_import_seconds(speed) for _ in range(SETUP_REPEATS)]
    errors = fixture_errors()  # also warms up every stage before timing
    workload = WORKLOAD_CLASSES[args.workload](args.workload, args.seed, recorded)
    try:
        ops = workload.ops(draw_problems(args.workload, workload.rng))
        passes = run_passes(workload, ops, args.seconds, bool(args.trace), setup, speed)
    finally:
        workload.close()
    scale_passes(passes, speed)
    failed, over, gate_errors = gate_passes(ops, passes)
    errors += gate_errors
    attempted = sum(out is not SKIPPED for p in passes for out in p["outputs"])

    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        metrics = layer_metrics(passes, untraced, over / attempted, errors, speed)
    else:
        times = op_times(untraced)
        metrics = {
            "pass_s": (sum(times), "s"),
            "latency_p50_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb(args.workload == "cli_oneshot"), "MB"),
        }
    for line in errors:
        print(f"wrong: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(passes, untraced, over_frac, errors, speed) -> dict:
    from spans import COUNT_METRICS, derive, unit_of
    traced = [p for p in passes if p["traced"]]
    for key in COUNT_METRICS:
        if len({p["layers"][key] for p in traced}) > 1:
            errors.append(f"count {key} differs between traced passes")
    per_pass = [derive(p["layers"]) for p in traced]
    metrics = {}
    for key in per_pass[0]:
        # Counts are equal in every traced pass; times take the median.
        value = per_pass[0][key] if key in COUNT_METRICS \
            else statistics.median(d[key] for d in per_pass)
        metrics[key] = (value, unit_of(key))
    metrics["trace.overhead_s"] = (
        sum(op_times(traced)) - sum(op_times(untraced)), "s")
    # What the scaling hides: unscaled pass time and the machine's speed.
    metrics["wall.pass_s"] = (sum(op_times(untraced, "times")), "s")
    metrics["speed.reference_ms"] = (1000.0 * statistics.median(speed.samples), "ms")
    metrics["budget.over_budget_frac"] = (over_frac, "fraction")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
