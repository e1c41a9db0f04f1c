"""Run-to-run spread of the end-to-end metrics, workloads interleaved.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py                  # 10 tuning seeds, one set
    python3 perfbench/spread.py --sets 2         # the same seeds twice
    python3 perfbench/spread.py --held-out       # confirm a claim on unseen seeds

Each set runs `run.py --trace 0` for run_seconds of BENCHMARK.json once per
(seed, workload) over SEEDS_PER_SET seeds and every workload, rotating the
workload order from one seed to the next, so that a slow stretch of the
machine lands on every workload rather than on one.  For each workload and
end-to-end metric it reports the median and the quartiles of
`statistics.quantiles(values, n=4)`, and the spread (Q3 - Q1) / median
against the metric's bound in BENCHMARK.json.  A spread above its bound
fails; one above a third of it is flagged.  With two sets, the second median
may not be worse than the first by more than the bound.  The record, with
each run's provenance, goes to RECORD.

Exits 0 when every run is correct and every spread and median holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import run_in_subprocess

SEEDS_PER_SET = 10
RECORD = Path(".perfbench/spread.json")
#: seeds used while tuning the benchmark and writing changes
TUNING_SEED_BASE = 1
#: seeds held out while a change is written, for confirming the gain it claims
HELD_OUT_SEED_BASE = 1001


def summarize(values: list, better: str, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound, "better": better}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--held-out", action="store_true", help="use the held-out seeds")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    base = HELD_OUT_SEED_BASE if args.held_out else TUNING_SEED_BASE
    seeds = [base + k for k in range(SEEDS_PER_SET)]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs, sets, ok = [], [], True
    for set_ix in range(args.sets):
        values = {w: {m: [] for m in metrics} for w in workloads}
        tally = {w: [0, 0] for w in workloads}  # attempted, failed
        for k, seed in enumerate(seeds):
            shift = k % len(workloads)
            for workload in workloads[shift:] + workloads[:shift]:
                result = run_in_subprocess(workload, seed, seconds, trace=0)
                runs.append({"set": set_ix, "workload": workload, "seed": seed, **result})
                tally[workload][0] += result["attempted"]
                tally[workload][1] += result["failed"]
                if not result["correct"] or result["failed"]:
                    ok = False
                    print(f"FAIL {workload} seed {seed}: {result['failed']} failed passes")
                for name in metrics:
                    values[workload][name].append(result["metrics"][name]["value"])
                print(f"set {set_ix} seed {seed} {workload}: " + ", ".join(
                    f"{n}={result['metrics'][n]['value']:.4g}" for n in metrics), flush=True)
        summary = {
            w: {n: summarize(v, metrics[n]["better"], metrics[n]["bound"]) for n, v in per.items()}
            for w, per in values.items()
        }
        sets.append(summary)
        print(f"\nset {set_ix}: {'workload':<12} {'metric':<12} {'unit':<8} {'median':>11} "
              f"{'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
        for workload, per in summary.items():
            attempted, failed = tally[workload]
            print(f"set {set_ix}: {workload:<12} {'failed_frac':<12} {'1':<8} "
                  f"{failed / attempted:>11.5g}   ({failed} of {attempted} passes)")
            for name, s in per.items():
                flag = ""
                if s["spread"] > s["bound"]:
                    flag, ok = "FAIL", False
                elif s["spread"] > s["bound"] / 3:
                    flag = "wide"
                print(f"set {set_ix}: {workload:<12} {name:<12} {metrics[name]['unit']:<8} "
                      f"{s['median']:>11.5g} "
                      f"{s['q1']:>11.5g} {s['q3']:>11.5g} {s['spread']:>7.3f} "
                      f"{s['bound']:>6.2f} {flag}")
    for set_ix in range(1, len(sets)):
        for workload, per in sets[set_ix].items():
            for name, s in per.items():
                first = sets[0][workload][name]["median"]
                worse = (s["median"] - first) / first
                if s["better"] == "higher":
                    worse = -worse
                flag = "FAIL" if worse > s["bound"] else ""
                ok = ok and not flag
                print(f"set {set_ix} vs 0: {workload:<12} {name:<12} worse by {worse:+.3f} "
                      f"(bound {s['bound']:.2f}) {flag}")

    RECORD.parent.mkdir(parents=True, exist_ok=True)
    RECORD.write_text(json.dumps({"seeds": seeds, "seconds": seconds, "sets": sets, "runs": runs},
                              indent=1) + "\n", encoding="utf-8")
    print(f"record: {RECORD}; {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
