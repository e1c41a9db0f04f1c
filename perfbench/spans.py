"""Per-layer tracing of the `twoboson` package from outside it.

`install` wraps each spanned public function in a span recorder and rebinds
every name under which a `twoboson` module holds that function, so direct
imports such as `cli.expand_in_detector_basis` are traced too.  Spans
(name, start, end, parent, pass id) stay in flat in-memory arrays until the
run writes them out.  A span's self time is its duration minus the durations
of its direct children; calls nest strictly because the benchmark runs one
pass at a time on one thread.  The span coverage is the share of the traced
pass time held by spans other than the root `cli.main`, so time spent in
code no span names lowers it.

`core_state` gets no spans: its calls take under a microsecond, so a wrapper
would mostly time itself.  Its cost lands in its callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter

#: spanned functions by module; the end-to-end metric each should move is in
#: the comment after it
SPANNED = {
    # main: argparse and the command's own loop; _point_values: one grid
    # point's row dict, with the scalar optics helpers and core_state it
    # calls; _write_table: CSV/JSON formatting.  units_per_ref on sweep_exact
    "cli": ("main", "_point_values", "_write_table"),
    # units_per_ref on sweep_exact and verify
    "nolabel_algebra": (
        "expand_in_detector_basis",
        "postselect_one_per_detector",
        "transition_two",
        "project_single",
    ),
    # units_per_ref on sweep_exact and verify
    "fq_oracle": (
        "symmetrize",
        "mode_pattern_weights",
        "oracle_postselected_density",
        "labeled_inner",
        "to_labeled",
    ),
    # units_per_ref on sweep_exact
    "entanglement": (
        "trace_out_distinguishability",
        "wootters_concurrence",
        "number_distribution",
        "entanglement_of_particles",
        "concurrence_closed_form",
    ),
    # units_per_ref on hom_noisy
    "optics": (
        "fit_gaussian_dip",
        "monte_carlo_errorbars",
        "simulate_counts",
    ),
    # units_per_ref on verify
    "verification": ("run_suites",),
}

FUNCTIONS = tuple(f"{m}.{f}" for m, fns in SPANNED.items() for f in fns)
#: the span around a whole pass; its self time counts as not covered
ROOT = "cli.main"

#: counts taken at the span boundaries, all exact for a given seed
COUNTERS = {
    "optics.fit.iterations": "count",
    "optics.fit.failures": "count",
    "fq_oracle.cells_visited": "count",
    "nolabel_algebra.postselect.kept_ratio": "ratio",
}


def metric_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for fn in FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_us_per_call"] = "us/call"
    for module in SPANNED:
        units[f"{module}.self_share"] = "fraction"
    units.update(COUNTERS)
    units["trace.overhead_frac"] = "fraction"
    units["trace.span_coverage"] = "fraction"
    return units


def exact_count_names() -> list:
    """Per-layer metrics that must repeat exactly across runs of one seed."""
    return [f"{fn}.calls" for fn in FUNCTIONS] + list(COUNTERS)


# ---------------------------------------------------------------------------
# counter hooks: (counts of the current pass, positional args, result or error)
# ---------------------------------------------------------------------------


def _fit_done(counts, args, result):
    counts["optics.fit.iterations"] += result.n_iter


def _fit_failed(counts, args, exc):
    counts["optics.fit.failures"] += 1
    best = getattr(exc, "best", None)  # FitConvergenceError keeps its iterations
    if best is not None:
        counts["optics.fit.iterations"] += best.n_iter


def _dense_scan(counts, args, result):
    # mode_pattern_weights and oracle_postselected_density visit every cell
    # of the (4d, 4d) labeled tensor
    counts["fq_oracle.cells_visited"] += (4 * args[0].dist_dim) ** 2


def _postselected(counts, args, result):
    counts["postselect.terms_in"] += args[0].num_terms
    counts["postselect.terms_kept"] += result.num_terms


_ON_RESULT = {
    "optics.fit_gaussian_dip": _fit_done,
    "fq_oracle.mode_pattern_weights": _dense_scan,
    "fq_oracle.oracle_postselected_density": _dense_scan,
    "nolabel_algebra.postselect_one_per_detector": _postselected,
}
_ON_ERROR = {"optics.fit_gaussian_dip": _fit_failed}


class Tracer:
    """Span and counter store for one benchmark run."""

    def __init__(self):
        self.names = list(FUNCTIONS)
        self.name_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_ix = array("i")
        self.pass_counts = []  # one Counter per traced pass
        self._stack = []

    def begin_pass(self) -> None:
        self.pass_counts.append(Counter())

    def wrap(self, name: str, fn):
        ix = self.names.index(name)
        on_result, on_error = _ON_RESULT.get(name), _ON_ERROR.get(name)
        stack, starts, ends = self._stack, self.start, self.end

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(starts)
            self.name_ix.append(ix)
            self.parent.append(stack[-1] if stack else -1)
            self.pass_ix.append(len(self.pass_counts) - 1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[i] = perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(self.pass_counts[-1], args, exc)
                raise
            ends[i] = perf_counter()
            stack.pop()
            if on_result is not None:
                on_result(self.pass_counts[-1], args, result)
            return result

        return span

    def install(self):
        """Rebind every traced function in every loaded `twoboson` module;
        returns a callable that restores the originals."""
        wrappers = {}
        for module, fns in SPANNED.items():
            mod = importlib.import_module(f"twoboson.{module}")
            for fn in fns:
                original = getattr(mod, fn)
                wrappers[id(original)] = (original, self.wrap(f"{module}.{fn}", original))
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "twoboson" and not mod_name.startswith("twoboson."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    patched.append((mod, attr, value))

        def restore():
            for mod, attr, value in patched:
                setattr(mod, attr, value)

        return restore

    def pass_exact_counts(self) -> list:
        """The exact counts of each traced pass, as name -> value dicts."""
        calls = Counter(zip(self.pass_ix, self.name_ix))
        per_pass = []
        for p, counts in enumerate(self.pass_counts):
            row = {f"{fn}.calls": calls[p, n] for n, fn in enumerate(self.names)}
            for name in COUNTERS:
                row[name] = counts[name]
            terms_in = counts["postselect.terms_in"]
            row["nolabel_algebra.postselect.kept_ratio"] = (
                counts["postselect.terms_kept"] / terms_in if terms_in else 0.0
            )
            per_pass.append(row)
        return per_pass

    def self_times(self) -> list:
        """Self time of every span, in seconds."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def metrics(self, traced_s: list, untraced_s: list) -> dict:
        """Per-layer metrics from the spans of the traced passes.

        `traced_s` and `untraced_s` are the wall times of the traced and
        untraced passes; calls and counts are per pass, times are totals over
        all traced passes divided by their calls or by the traced wall time.
        """
        own = self.self_times()
        self_by_fn = Counter()
        for n, t in zip(self.name_ix, own):
            self_by_fn[self.names[n]] += t
        counts = self.pass_exact_counts()[0]
        n_pass = len(self.pass_counts)
        total_s = sum(traced_s)
        values = {}
        for fn in FUNCTIONS:
            calls = counts[f"{fn}.calls"]
            values[f"{fn}.calls"] = calls
            values[f"{fn}.self_us_per_call"] = (
                1e6 * self_by_fn[fn] / (calls * n_pass) if calls else 0.0
            )
        for module in SPANNED:
            values[f"{module}.self_share"] = (
                sum(t for fn, t in self_by_fn.items() if fn.startswith(module + ".")) / total_s
            )
        for name in COUNTERS:
            values[name] = counts[name]
        untraced = statistics.median(untraced_s)
        values["trace.overhead_frac"] = (statistics.median(traced_s) - untraced) / untraced
        # the root span's self time holds whatever no other span claims
        root = self.names.index(ROOT)
        covered = sum(t for n, t in zip(self.name_ix, own) if n != root)
        values["trace.span_coverage"] = covered / total_s
        return values

    def write_spans(self, path) -> None:
        """Write every span as CSV: name, start_s, end_s, parent, pass."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_s,end_s,parent,pass\n")
            for n, s, e, p, q in zip(self.name_ix, self.start, self.end, self.parent, self.pass_ix):
                handle.write(f"{self.names[n]},{s - origin:.9f},{e - origin:.9f},{p},{q}\n")


def dominance(workload: str, values: dict) -> str | None:
    """None when the workload's traced shares put its dominant layer first,
    else the reason they do not."""
    share = {m: values[f"{m}.self_share"] for m in SPANNED}
    fn_self = {
        fn: values[f"{fn}.calls"] * values[f"{fn}.self_us_per_call"] for fn in FUNCTIONS
    }
    if workload == "sweep_exact":
        pipeline = share["fq_oracle"] + share["entanglement"] + share["nolabel_algebra"]
        others = max(share["cli"], share["optics"], share["verification"])
        if pipeline <= others:
            return f"pipeline layers hold {pipeline:.2f}, another module {others:.2f}"
    elif workload == "hom_noisy":
        fit = fn_self["optics.fit_gaussian_dip"] / sum(fn_self.values())
        if fit < 0.8:
            return f"optics.fit_gaussian_dip holds {fit:.2f} of the self time"
    elif workload == "verify":
        reference = share["fq_oracle"] + share["nolabel_algebra"]
        if reference <= share["optics"]:
            return f"fq_oracle + nolabel_algebra {reference:.2f} <= optics {share['optics']:.2f}"
    return None
