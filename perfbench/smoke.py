"""Smoke test of the benchmark at reduced input sizes.

Usage, from the root of a source checkout:

    python3 perfbench/smoke.py

For each workload it makes one untraced and two traced runs of `run.py` at
reduced input sizes, SMOKE_SECONDS each, in fresh processes and asserts that

* every pass is correct and none failed;
* every metric BENCHMARK.json names is emitted, with the unit named there;
* the exact per-layer counts are identical in the two traced runs;
* the spans other than the root `cli.main` cover at least SPAN_COVERAGE of
  the traced pass time (`trace.span_coverage`);
* the traced self-time shares put the workload's dominant layer first
  (`spans.dominance`).

Exits 0 when all hold and 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans
from run import run_in_subprocess

SEED = 1
SMOKE_SECONDS = 2
SPAN_COVERAGE = 0.9


def units_mismatch(result: dict, declared: list) -> list:
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    return sorted(
        name for name in emitted.keys() | wanted.keys() if emitted.get(name) != wanted.get(name)
    )


def main() -> int:
    if sys.argv[1:]:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        known = len(problems)
        results = [
            run_in_subprocess(workload, SEED, SMOKE_SECONDS, trace, smoke=True)
            for trace in (0, 1, 1)
        ]
        for trace, result in zip((0, 1, 1), results):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed passes")
        for trace, result in zip((0, 1), results):
            declared = bench["per_layer" if trace else "end_to_end"]
            bad = units_mismatch(result, declared)
            if bad:
                problems.append(f"{workload} trace {trace}: missing or mislabelled {bad}")
        first, second = (r["metrics"] for r in results[1:])
        for name in spans.exact_count_names():
            if first[name]["value"] != second[name]["value"]:
                problems.append(f"{workload}: {name} differs between traced runs")
        values = {name: m["value"] for name, m in first.items()}
        if values["trace.span_coverage"] < SPAN_COVERAGE:
            problems.append(f"{workload}: spans cover {values['trace.span_coverage']:.3f}")
        reason = spans.dominance(workload, values)
        if reason:
            problems.append(f"{workload}: dominant layer not first: {reason}")
        print(f"{workload}: {'ok' if len(problems) == known else 'FAIL'}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
