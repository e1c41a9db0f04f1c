"""Benchmark of the `twoboson` command line, one workload per run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep_exact --seed 1 --seconds 20 --trace 0

The run imports the package from `src/` and calls `cli.main(argv)` in
process, in a closed loop with one client: a pass starts only after the
previous one returned.  It checks every pass's output against references
independent of the package (see `workloads.py`) and against the first pass's
bytes, and prints as its last stdout line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A pass fails if it exits
non-zero, raises, or fails its check; failed / attempted is the failure
fraction.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json:

    setup_s        median wall time of a fresh interpreter that imports
                   twoboson.cli and builds its parser (SETUP_REPEATS
                   samples spread over the run)
    pass_p50_ref   median over passes of the pass's wall time divided by
                   the mean rep time of the reference-kernel chunks run
                   just before and just after it (`reference.py`): the
                   pass time in reference reps, which a slow stretch of
                   the shared machine moves far less than the wall time
    units_per_ref  workload units of one pass / pass_p50_ref
    peak_rss_mb    peak resident set size of this process (MiB)

The raw wall times of the passes and of the reference reps, with their
medians, are kept in the run's record.

`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics of `spans.py`: calls and self time per spanned function, self-time
share per module, exact counters, the tracing overhead and the share of the
traced pass time held by spans other than the root `cli.main`.  Traced outputs must be byte-identical to
untraced ones, and the exact counts identical in every traced pass.

`--smoke` runs the reduced-size inputs of each workload; `smoke.py` uses it.
Every run writes its provenance, pass times and metrics to
`.perfbench/<workload>-trace<0|1>.json`, and a traced run its spans to
`.perfbench/<workload>-spans.csv`.  BLAS threads are capped at the number
of usable CPUs before numpy loads.
"""

from __future__ import annotations

import argparse
import os
import sys

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    _value = os.environ.get(_var, "")
    if not _value.isdigit() or not 1 <= int(_value) <= NPROC:
        os.environ[_var] = str(NPROC)

import contextlib  # noqa: E402  (after the BLAS caps, before numpy loads)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from workloads import WORKLOADS  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

#: fresh interpreters timed for setup_s; the median is reported
SETUP_REPEATS = 15
SETUP_CODE = "import twoboson.cli as cli; cli.build_parser()"
#: a run times at least this many passes, however long they take
MIN_PASSES = 3
#: the reference chunk after a pass runs for this share of the pass's time
REF_SHARE = 0.3
#: and for at least this many reps
REF_MIN_REPS = 3
OUT_DIR = ".perfbench"
#: a run must end within this many seconds, build and set-up included
RUN_TIMEOUT_S = 180


class Passes:
    """Runs and checks passes of one workload; keeps their counts and times."""

    def __init__(self, cli, workload, seed: int, smoke: bool):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.argv = workload.argv(seed, smoke)
        self.attempted = 0
        self.failed = 0
        self.first_digest = None
        self.verdicts = {}  # output sha256 -> None or failure reason
        self.failures = []

    def run(self, argv=None) -> float:
        """One checked pass; returns its wall time in seconds."""
        argv = self.argv if argv is None else argv
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception:  # a crash is a failed pass, not a failed benchmark
            code = None
            err.write(traceback.format_exc())
        elapsed = perf_counter() - start
        self.attempted += 1
        reason = self._verdict(argv, code, out.getvalue(), err.getvalue())
        if reason is not None:
            self.failed += 1
            self.failures.append(reason)
        return elapsed

    def _verdict(self, argv, code, out: str, err: str):
        if code != 0:
            return f"exit code {code}: {err.strip()[-500:]}"
        digest = hashlib.sha256(out.encode()).hexdigest()
        if argv is self.argv:
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                return "output differs from the first pass of the same input"
        if digest not in self.verdicts:
            smoke = self.smoke or argv is not self.argv
            self.verdicts[digest] = self.workload.check(out, self.seed, smoke)
        return self.verdicts[digest]


def setup_once(src: Path) -> float:
    """Wall time of one fresh interpreter importing the CLI and building its parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True)
    return perf_counter() - start


def run_in_subprocess(workload: str, seed: int, seconds: float, trace: int,
                      smoke: bool = False) -> dict:
    """Run one workload in a fresh `run.py` process from the current
    directory; returns its result object, with the run's provenance under
    "provenance".  Raises RuntimeError when the run exits non-zero, and
    subprocess.TimeoutExpired when it outlives RUN_TIMEOUT_S."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        + (["--smoke"] if smoke else []),
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{done.returncode}: {done.stderr}")
    provenance = json.loads(lines[-2].removeprefix("provenance: "))
    return {**json.loads(lines[-1]), "provenance": provenance}


def provenance(root: Path, args, numpy, output_sha256) -> dict:
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": NPROC,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "output_sha256": output_sha256,
    }


def end_to_end(passes: Passes, src: Path, seconds: float) -> tuple:
    """Passes for `seconds`, each between two reference chunks, with the
    setup samples spread evenly between them so that all medians see the
    same stretch of machine time; the window is extended by the time the
    setup samples take."""
    times, refs, setup = [], [reference.chunk(0.0, 2 * REF_MIN_REPS)], []
    start = perf_counter()
    while len(times) < MIN_PASSES or perf_counter() < start + seconds + sum(setup):
        due = start + sum(setup) + len(setup) * seconds / SETUP_REPEATS
        if len(setup) < SETUP_REPEATS and perf_counter() >= due:
            setup.append(setup_once(src))
        else:
            times.append(passes.run())
            refs.append(reference.chunk(REF_SHARE * times[-1], REF_MIN_REPS))
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_once(src))
    rel = [t / ((before + after) / 2.0) for t, before, after in zip(times, refs, refs[1:])]
    p50 = statistics.median(rel)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_p50_ref": (p50, "ref"),
        "units_per_ref": (passes.workload.units(passes.smoke) / p50, "units/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    samples = {
        "setup_s": setup, "pass_s": times, "ref_rep_s": refs, "pass_ref": rel,
        "pass_p50_s": statistics.median(times), "ref_rep_p50_s": statistics.median(refs),
    }
    return metrics, samples


def per_layer(passes: Passes, seconds: float, spans_path: Path) -> tuple:
    """Alternate untraced and traced passes (ABBA order, so drift hits both
    sides alike) until `seconds` have passed and each side has two."""
    tracer = spans.Tracer()
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    order = (False, True, True, False)
    k = 0
    while min(len(untraced), len(traced)) < 2 or perf_counter() < deadline:
        if order[k % 4]:
            tracer.begin_pass()
            restore = tracer.install()
            try:
                traced.append(passes.run())
            finally:
                restore()
        else:
            untraced.append(passes.run())
        k += 1
    counts = tracer.pass_exact_counts()
    if any(c != counts[0] for c in counts[1:]):
        passes.failed += 1
        passes.failures.append("exact counts differ between traced passes")
    values = tracer.metrics(traced, untraced)
    tracer.write_spans(spans_path)
    units = spans.metric_units()
    metrics = {name: (values[name], units[name]) for name in units}
    return metrics, {"untraced_pass_s": untraced, "traced_pass_s": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced-size inputs")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "twoboson" / "cli.py").is_file():
        print(f"error: no twoboson sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy
    from twoboson import cli

    workload = WORKLOADS[args.workload]
    passes = Passes(cli, workload, args.seed, args.smoke)
    # one reduced-size pass first, so lazy imports and caches are warm
    passes.run(workload.argv(args.seed, smoke=True))
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        metrics, samples = per_layer(passes, args.seconds, out_dir / f"{args.workload}-spans.csv")
    else:
        metrics, samples = end_to_end(passes, src, args.seconds)

    record = {
        "provenance": provenance(root, args, numpy, passes.first_digest),
        "argv": passes.argv,
        "units_per_pass": workload.units(args.smoke),
        "failures": passes.failures,
        "samples": samples,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if args.trace:
        values = {name: v for name, (v, _) in metrics.items()}
        record["dominance"] = spans.dominance(args.workload, values) or "ok"
    path = out_dir / f"{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for reason in passes.failures:
        print(f"failed pass: {reason}", file=sys.stderr)
    print("provenance: " + json.dumps(record["provenance"]))
    print(json.dumps({
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
