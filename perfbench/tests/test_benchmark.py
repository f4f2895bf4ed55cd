"""Self-test of the benchmark: its checks catch wrong outputs, and its
output names every metric of BENCHMARK.json with its unit.

Run from the root of the repository (outside the tier-1 suite):

    python3 -m pytest -q perfbench/tests
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import disc  # noqa: E402
import flow  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 7
NUDGE = 1.0 + 1e-6


@pytest.fixture(scope="module")
def cp():
    return run.load_cpvi()


def swept(cp, wl, name):
    batch, _ = run.prepare(wl, cp, SEED, name, run.PHASE_TIMED, 0)
    return batch, wl.sweep(cp, batch)


class TestChecksRejectPerturbedOutputs:
    def test_disc(self, cp):
        batch, out = swept(cp, disc, "disc")
        small = disc.Batch(batch.matrices[:1], batch.rims[:1])
        small_out = {"matrices": out["matrices"][:1], "rims": out["rims"][:1]}
        assert disc.check(small, small_out) == []

        nudged = copy.deepcopy(small_out)
        Y = nudged["matrices"][0][1]
        i = np.argmax(np.abs(Y[:, 0]))
        Y[i, 0] *= NUDGE
        assert any("column error" in m for m in disc.check(small, nudged))

        nudged = copy.deepcopy(small_out)
        value, terms = nudged["rims"][0]
        nudged["rims"][0] = (value * NUDGE, terms)
        assert any("rim" in m for m in disc.check(small, nudged))

    def test_flow(self, cp):
        batch, out = swept(cp, flow, "flow")
        assert flow.check(batch, out) == []
        for kind in ("symmetric", "cp6", "linear"):
            i = next(j for j, item in enumerate(batch) if item.kind == kind)
            states = out[i].states.copy()
            states[5] *= NUDGE
            nudged = list(out)
            nudged[i] = dataclasses.replace(out[i], states=states)
            assert any("sample error" in m for m in flow.check(batch, nudged)), kind

    def test_verify(self, cp):
        batch, out = swept(cp, verify, "verify")
        assert verify.check(batch, out) == []

        nudged = copy.deepcopy(out)
        rec, cf = nudged["exact"][-1]
        cf[3][1] *= Fraction(10 ** 6 + 1, 10 ** 6)
        assert any("exact" in m for m in verify.check(batch, nudged))

        nudged = copy.deepcopy(out)
        sol, rec = nudged["assembly"][-1]
        coeffs = sol.coeffs.copy()
        coeffs[4, 0] *= NUDGE
        bent = dataclasses.replace(sol, coeffs=coeffs)
        nudged["assembly"][-1] = (bent, rec)
        assert any("assembly" in m for m in verify.check(batch, nudged))

        # the same bent solution must fail its recurrence residual
        ranks = batch.ranks[-1]
        nudged["residuals"][-3] = ("recurrence", cp.linear.recurrence_residual(ranks.system, bent))
        assert any("recurrence residual" in m for m in verify.check(batch, nudged))

        nudged = copy.deepcopy(out)
        push, direct = nudged["pushforwards"][0]
        nudged["pushforwards"][0] = (push * NUDGE, direct)
        assert any("push-forward" in m for m in verify.check(batch, nudged))

        nudged = copy.deepcopy(out)
        q, dq = nudged["riccati"][0]
        nudged["riccati"][0] = (q, dq * NUDGE)
        assert any("Riccati" in m for m in verify.check(batch, nudged))


def test_traced_counts_repeat(cp):
    samples = []
    for _ in range(2):
        tr = Tracer()
        batch, _ = run.prepare(flow, cp, SEED, "flow", run.PHASE_TRACED, 0, tr)
        flow.sweep(cp, batch, tr)
        samples.append((tr.samples["dynamics.rhs_calls"], tr.samples["dynamics.rejected_steps"]))
    assert samples[0] == samples[1] and samples[0][0]


def result(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_reported(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    proc = result("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] > 0
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in out["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = result("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
