"""Tests of the benchmark itself, on tiny workloads.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
from layers import SpanTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

#: Small enough for a test, large enough that every layer does work.
SCALE = {"share_read": 0.05, "write_sync": 0.1, "openloop_mix": 0.05}


@pytest.fixture(scope="module")
def outcomes():
    """One untraced and one traced tiny measurement per workload."""
    return {
        (name, trace): run.measure(name, 3, 0.0, trace, scale=SCALE[name])
        for name in WORKLOADS
        for trace in (False, True)
    }


def test_spec_names_every_workload_the_runner_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_emits_every_metric_with_its_unit(outcomes, name, trace):
    out = outcomes[(name, trace)]
    assert out["correct"], out["_problems"]
    assert out["attempted"] >= 1 and out["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    for key, entry in out["metrics"].items():
        assert isinstance(entry["value"], (int, float)), key
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_host_self_time_accounts_for_the_traced_wall(outcomes, name):
    out = outcomes[(name, True)]
    traced = out["_runs"][-1]
    total = sum(
        v["value"] for k, v in out["metrics"].items() if k.endswith(".host_self_s")
    )
    assert total == pytest.approx(traced.wall_s, rel=0.15)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_spans_nest_and_self_time_fits_the_span(outcomes, name):
    tracer: SpanTracer = outcomes[(name, True)]["_runs"][-1].tracer
    selfs = tracer.self_times()
    for span in tracer.spans:
        assert -1e-12 <= selfs[span] <= span.end - span.start + 1e-12
    cache_parents = {
        s.parent.name for s in tracer.spans
        if s.name.startswith("cache.") and s.parent is not None
    }
    assert cache_parents and all(p.startswith("client.") for p in cache_parents)
    for span in tracer.spans:
        if span.parent is not None:
            assert span.op == span.parent.op


def test_traced_run_reproduces_the_untraced_one(outcomes):
    for name in WORKLOADS:
        runs = outcomes[(name, True)]["_runs"]
        assert runs[-1].tracer is not None
        assert {r.result.fingerprint() for r in runs} == {runs[0].result.fingerprint()}


def test_host_clock_samples_inside_the_section_and_leaves_slices_out():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with run.HostClock() as clock:
        while time.perf_counter() - start < 3 * run.SAMPLE_PERIOD_S:
            pass
    elapsed = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(clock.slices) >= 4  # both ends and at least two ticks
    assert clock.raw_s == pytest.approx(elapsed - sum(clock.slices), abs=0.01)
    speed = run.REFERENCE_SLICE_S / (sum(clock.slices) / len(clock.slices))
    assert clock.seconds == pytest.approx(clock.raw_s * speed, rel=0.5)


def test_seed_gives_the_same_inputs_and_another_seed_others():
    def makespans(seed):
        out = run.measure("openloop_mix", seed, 0.0, False, scale=0.02)
        return [r.result.makespan_s for r in out["_first"]]

    assert makespans(5) == makespans(5)
    assert makespans(5) != makespans(6)


@pytest.mark.parametrize("var", run.REFUSED_ENV)
def test_refuses_variables_that_change_the_run(monkeypatch, capsys, var):
    monkeypatch.setenv(var, "1")
    code = run.main(["--workload", "share_read", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "share_read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
