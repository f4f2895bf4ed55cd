"""Run one workload of the cpvi benchmark and print its result.

From the root of a checkout:

    python3 perfbench/run.py --workload disc --seed 1 --seconds 15 --trace 0

The benchmark imports cpvi from the checkout's ``src`` directory and
refuses to run without it.  With ``--trace 0`` it sets up ``SETUP_REPS``
times (fresh import of cpvi, the program-side objects of one sweep, one
warm-up sweep), then runs whole sweeps of fresh seeded inputs until the
wall time spent inside sweeps reaches ``--seconds``, and reads the peak
resident set.  Every output is checked: after its sweep, or, for a
workload whose checks import scipy or mpmath, after the peak-RSS reading.
Times are scaled to a reference host speed (see hostspeed.py).  With
``--trace 1`` it runs traced sweeps of the named workload and one of each
other workload, so that every per-layer metric is measured (see
run_traced), and writes the spans to ``perfbench/out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import disc  # noqa: E402  (flat modules next to this file)
import flow  # noqa: E402
import verify  # noqa: E402
from common import failures  # noqa: E402
from hostspeed import factor, reference_seconds  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = {"disc": disc, "flow": flow, "verify": verify}
SETUP_REPS = 5
TRACE_SWEEPS = 2
PHASE_SETUP, PHASE_TIMED, PHASE_TRACED = 0, 1, 2
CPVI_MODULES = ("params", "hyperfn", "linear", "dynamics", "symmetry")

END_TO_END_UNITS = {"setup_s": "s", "sweep_ms": "ms", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def _median_span(span, scale):
    return lambda tr: statistics.median(tr.durations(span)) * scale


def _median_sample(name):
    return lambda tr: statistics.median(tr.samples[name])


def _mean_sample(name):
    return lambda tr: statistics.fmean(tr.samples[name])


COUNTED_SAMPLES = ("hyperfn.eval_series_terms", "linear.useful_term_ratio",
                   "dynamics.rhs_calls", "dynamics.rejected_steps")

# name: (unit, value from the tracer)
PER_LAYER = {
    "params.partial_sum_us": ("us", _median_span("params.partial_sum", 1e6)),
    "params.sample_generic_ms": ("ms", _median_span("params.sample_generic", 1e3)),
    "hyperfn.series_coefficients_us": ("us", _median_span("hyperfn.series_coefficients", 1e6)),
    "hyperfn.eval_series_ms": ("ms", _median_span("hyperfn.eval_series", 1e3)),
    "hyperfn.eval_series_terms": ("count", _mean_sample("hyperfn.eval_series_terms")),
    "hyperfn.eval_series_jet_ms": ("ms", _median_span("hyperfn.eval_series_jet", 1e3)),
    "hyperfn.operator_residual_us": ("us", _median_span("hyperfn.operator_residual", 1e6)),
    "linear.branch_spec_us": ("us", _median_span("linear.branch_spec", 1e6)),
    "linear.fundamental_solution_ms": ("ms", _median_span("linear.fundamental_solution", 1e3)),
    "linear.solution_value_us": ("us", _median_span("linear.solution_value", 1e6)),
    "linear.fundamental_matrix_n1_ms": ("ms", _median_span("linear.fundamental_matrix_n1", 1e3)),
    "linear.fundamental_matrix_n2_ms": ("ms", _median_span("linear.fundamental_matrix_n2", 1e3)),
    "linear.fundamental_matrix_n4_ms": ("ms", _median_span("linear.fundamental_matrix_n4", 1e3)),
    "linear.fundamental_matrix_n8_ms": ("ms", _median_span("linear.fundamental_matrix_n8", 1e3)),
    "linear.useful_term_ratio": ("ratio", _mean_sample("linear.useful_term_ratio")),
    "linear.recurrence_vectors_ms": ("ms", _median_span("linear.recurrence_vectors", 1e3)),
    "linear.closed_form_vectors_ms": ("ms", _median_span("linear.closed_form_vectors", 1e3)),
    "linear.recurrence_residual_us": ("us", _median_span("linear.recurrence_residual", 1e6)),
    "linear.component_operator_residual_us":
        ("us", _median_span("linear.component_operator_residual", 1e6)),
    "linear.system_residual_us": ("us", _median_span("linear.system_residual", 1e6)),
    "dynamics.symmetric_field_us": ("us", _median_span("dynamics.symmetric_field", 1e6)),
    "dynamics.degenerate_field_us": ("us", _median_span("dynamics.degenerate_field", 1e6)),
    "dynamics.cp6_field_us": ("us", _median_span("dynamics.cp6_field", 1e6)),
    "dynamics.integrate_ms": ("ms", _median_span("dynamics.integrate", 1e3)),
    "dynamics.step_us": ("us", _median_sample("dynamics.step_us")),
    "dynamics.stepper_self_us": ("us", _median_sample("dynamics.stepper_self_us")),
    "dynamics.rhs_calls": ("count", _mean_sample("dynamics.rhs_calls")),
    "dynamics.rejected_steps": ("count", _mean_sample("dynamics.rejected_steps")),
    "dynamics.pushforward_field_us": ("us", _median_span("dynamics.pushforward_field", 1e6)),
    "symmetry.apply_generator_us": ("us", _median_span("symmetry.apply_generator", 1e6)),
    "symmetry.verify_relations_ms": ("ms", _median_span("symmetry.verify_relations", 1e3)),
    "symmetry.poisson_bracket_us": ("us", _median_span("symmetry.poisson_bracket", 1e6)),
}


def load_cpvi():
    """Import cpvi afresh from the checkout and return its modules."""
    for name in [m for m in sys.modules if m == "cpvi" or m.startswith("cpvi.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(**{m: importlib.import_module(f"cpvi.{m}") for m in CPVI_MODULES})


def rng_for(seed, workload, phase, index):
    return np.random.default_rng([seed, list(WORKLOADS).index(workload), phase, index])


def prepare(wl, cp, seed, name, phase, index, tr=None):
    """(batch, seconds spent building the program-side objects).

    Input screening against an oracle, where a workload has it, is not
    counted in the returned time.
    """
    rng = rng_for(seed, name, phase, index)
    start = time.perf_counter()
    sample_generic = cp.params.sample_generic
    if tr is not None:
        cp.params.sample_generic = lambda *a, **k: tr.call("params.sample_generic", sample_generic, *a, **k)
    try:
        batch = wl.build(cp, rng, index)
    finally:
        cp.params.sample_generic = sample_generic
    built = time.perf_counter() - start
    if hasattr(wl, "screen"):
        wl.screen(cp, batch, rng)
    return batch, built


def run_untraced(name, seed, seconds):
    wl = WORKLOADS[name]
    for _ in range(3):
        reference_seconds()
    setups, setups_raw = [], []
    for rep in range(SETUP_REPS):
        before = reference_seconds()
        start = time.perf_counter()
        cp = load_cpvi()
        imported = time.perf_counter() - start
        batch, built = prepare(wl, cp, seed, name, PHASE_SETUP, rep)
        start = time.perf_counter()
        wl.sweep(cp, batch)
        raw = imported + built + time.perf_counter() - start
        setups_raw.append(raw)
        setups.append(raw * factor(before, reference_seconds()))

    tally = Tally()
    pending, sweeps, sweeps_raw = [], [], []
    while sum(sweeps_raw) < seconds:
        batch, _ = prepare(wl, cp, seed, name, PHASE_TIMED, len(sweeps))
        gc.collect()
        before = reference_seconds()
        start = time.perf_counter()
        outputs = wl.sweep(cp, batch)
        raw = time.perf_counter() - start
        sweeps_raw.append(raw)
        sweeps.append(raw * factor(before, reference_seconds()))
        if wl.DEFERRED_CHECKS:
            pending.append((batch, outputs))
        else:
            tally.add(wl, batch, outputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for batch, outputs in pending:
        tally.add(wl, batch, outputs)

    metrics = {
        "setup_s": statistics.median(setups),
        "sweep_ms": statistics.median(sweeps) * 1e3,
        "items_per_s": (tally.attempted - len(tally.errors)) / sum(sweeps),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"setup_s": setups, "setup_raw_s": setups_raw, "sweep_s": sweeps, "sweep_raw_s": sweeps_raw}
    return tally, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, detail


def run_traced(name, seed, seconds):
    """Traced sweeps: TRACE_SWEEPS of ``name`` and one of each other workload,
    then more of ``name`` until its traced sweeps have taken ``seconds``.

    The count metrics come from the fixed first part only, so they repeat
    exactly for a seed; the timings use every traced sweep.
    """
    tr = Tracer()
    cp = load_cpvi()
    tally = Tally()
    sweeps_raw, sweeps = [], []

    def traced_sweep(wl_name, index):
        wl = WORKLOADS[wl_name]
        batch, _ = prepare(wl, cp, seed, wl_name, PHASE_TRACED, index, tr)
        before = reference_seconds()
        start = time.perf_counter()
        outputs = wl.sweep(cp, batch, tr)
        raw = time.perf_counter() - start
        if wl_name == name:
            sweeps_raw.append(raw)
            sweeps.append(raw * factor(before, reference_seconds()))
        tally.add(wl, batch, outputs)

    for index in range(TRACE_SWEEPS):
        traced_sweep(name, index)
    for other in WORKLOADS:
        if other != name:
            traced_sweep(other, 0)
    counts = {k: list(tr.samples[k]) for k in COUNTED_SAMPLES}
    while sum(sweeps_raw) < seconds:
        traced_sweep(name, len(sweeps))
    tr.samples.update(counts)
    metrics = {k: (fn(tr), unit) for k, (unit, fn) in PER_LAYER.items()}
    return tally, metrics, {"traced_sweep_s": sweeps, "traced_sweep_raw_s": sweeps_raw}, tr


class Tally:
    """Items attempted, failed (raised) and wrong (failed a check)."""

    def __init__(self):
        self.attempted = 0
        self.errors = []
        self.wrong = []

    def add(self, wl, batch, outputs):
        items = wl.entries(outputs)
        self.attempted += len(items)
        self.errors += failures(items)
        self.wrong += wl.check(batch, outputs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "cpvi" / "__init__.py").is_file():
        print(f"no cpvi sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tally, metrics, detail, tr = run_traced(args.workload, args.seed, args.seconds)
        tr.write(OUT / f"{stem}.spans.jsonl")
    else:
        tally, metrics, detail = run_untraced(args.workload, args.seed, args.seconds)

    for message in tally.errors:
        print(f"failed: {message}", file=sys.stderr)
    for message in tally.wrong:
        print(f"wrong: {message}", file=sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(dict(result, failures=tally.errors, wrong=tally.wrong, **detail), fh, indent=1)
    for k, (v, unit) in metrics.items():
        print(f"{k:40s} {v:14.6g} {unit}")
    print(json.dumps(result))
    return 0 if not tally.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
