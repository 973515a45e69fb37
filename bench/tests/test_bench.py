"""Tests of the benchmark's own tracing, timing order and output checks.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import argparse
import dataclasses
import json
import sys
import time
import types

import pytest

import harness
import reference
import run
import tracing
from workloads import WORKLOADS, Workload

TINY = Workload(
    ensemble="complex",
    dim=3,
    n=2,
    functions=("sld", "wy"),
    samples=12,
    parallelism=1,
    timed_sweeps=True,
    trace_samples=4,
    trace_pairs=2,
)


@pytest.fixture
def fake_package(monkeypatch):
    """A package whose ``outer`` calls ``inner`` twice through module globals."""
    module = types.ModuleType("fakepkg")
    exec(
        "def inner():\n    return 1\n"
        "def outer():\n    return inner() + inner()\n",
        module.__dict__,
    )
    monkeypatch.setitem(sys.modules, "fakepkg", module)
    return module


def ticking_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_of_a_synthetic_nested_call(fake_package):
    # op opens at 0; outer 1..12; inner 2..5 and 6..10; op closes at 13
    clock = ticking_clock([0.0, 1.0, 2.0, 5.0, 6.0, 10.0, 12.0, 13.0])
    targets = {"outer": fake_package.outer, "inner": fake_package.inner}
    tracer = tracing.Tracer(targets, package="fakepkg", clock=clock)
    with tracer:
        with tracer.op("sweep"):
            assert fake_package.outer() == 2
    names = [span[0] for span in tracer.spans]
    assert names == ["op.sweep", "outer", "inner", "inner"]
    assert tracing.self_times(tracer.spans) == [2.0, 4.0, 3.0, 4.0]
    totals = tracing.totals_by_op_kind(tracer.spans, tracer.op_kinds)
    assert totals[("outer", "sweep")] == [4.0, 1]
    assert totals[("inner", "sweep")] == [7.0, 2]


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["parent", 0.0, 10.0, -1, -1],
        ["a", 1.0, 4.0, 0, -1],
        ["b", 3.0, 6.0, 0, -1],
        ["c", 8.0, 12.0, 0, -1],
    ]
    # children cover 1..6 and 8..10 of the parent
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_restores_every_binding(fake_package):
    original = fake_package.inner
    tracer = tracing.Tracer({"inner": original}, package="fakepkg")
    with tracer:
        assert fake_package.inner is not original
        assert tracing.installed_wrappers("fakepkg") == ["fakepkg.inner"]
        with pytest.raises(RuntimeError, match="fakepkg.inner"):
            tracing.assert_untraced("fakepkg")
    assert fake_package.inner is original
    tracing.assert_untraced("fakepkg")
    fake_package.outer()
    assert tracer.spans == []


def test_tracer_wraps_callers_namespaces():
    from qfivol import monotone, sweep, volumes

    original = monotone.mean_table
    with tracing.Tracer(harness.trace_targets()):
        assert sweep.mean_table is monotone.mean_table is volumes.mean_table
        assert sweep.mean_table is not original
    assert sweep.mean_table is original
    assert volumes.mean_table is original


@pytest.fixture
def session(tmp_path):
    ledger = harness.Ledger()
    session = harness.Session(TINY, 5, tmp_path)
    harness.sweep_op(session, session.config, session.record_path, ledger)
    assert (ledger.attempted, ledger.failed) == (1, 0)
    return session


def test_wrappers_are_removed_before_untraced_timing(session, monkeypatch):
    seen = []
    real_pass = harness.work_pass

    def spy(session, config, ledger, tracer=None, reads=None):
        seen.append((tracer is not None, tracing.installed_wrappers()))
        return real_pass(session, config, ledger, tracer, reads)

    monkeypatch.setattr(harness, "work_pass", spy)
    ledger = harness.Ledger()
    _, result = harness.trace(session, 0.0, ledger)
    assert [traced for traced, _ in seen] == [False, True]
    assert seen[0][1] == []
    assert seen[1][1]
    tracing.assert_untraced()
    assert ledger.failed == 0
    assert result["layer_metrics"]["matrices.as_hermitian.calls"] > 0


def test_measure_refuses_to_time_with_wrappers_installed(session):
    with tracing.Tracer(harness.trace_targets()):
        with pytest.raises(RuntimeError, match="wrappers still installed"):
            harness.measure(session, 0.0, harness.Ledger())


def test_tampered_record_fails_replay(session):
    ledger = harness.Ledger()
    harness.replay_op(session, ledger, line=1)
    assert (ledger.attempted, ledger.failed) == (1, 0)
    lines = session.record_path.read_text().splitlines()
    lines[0] = lines[0].replace('"gap": ', '"gap": 1', 1)
    session.record_path.write_text("\n".join(lines) + "\n")
    harness.replay_op(session, ledger, line=1)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "mismatched" in ledger.errors[0]


def test_unreadable_record_fails_replay(session):
    ledger = harness.Ledger()
    session.record_path.write_text("not json\n")
    harness.replay_op(session, ledger, line=1)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_digest_mismatch_fails_the_sweep(session):
    ledger = harness.Ledger()
    harness.sweep_op(session, session.config, session.record_path, ledger)
    assert ledger.failed == 0
    key = next(iter(session.digests))
    session.digests[key] = "0" * 64
    harness.sweep_op(session, session.config, session.record_path, ledger)
    assert (ledger.attempted, ledger.failed) == (2, 1)


@pytest.mark.parametrize("timed_sweeps", [True, False])
def test_a_raising_sweep_fails_the_run_without_crashing(timed_sweeps, tmp_path, monkeypatch):
    monkeypatch.setitem(WORKLOADS, "tiny", dataclasses.replace(TINY, timed_sweeps=timed_sweeps))

    def broken_sweep(config, out_path):
        raise RuntimeError("sweep broke")

    def in_process(mode, args, deadline):
        return harness.run_mode(mode, args.workload, args.seed, args.seconds,
                                time.monotonic(), tmp_path)

    monkeypatch.setattr(harness.sweep, "run_sweep", broken_sweep)
    monkeypatch.setattr(run, "spawn", in_process)
    result = run.run_workload(argparse.Namespace(workload="tiny", seed=5, seconds=0, trace=0))
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["samples_per_ref"]["value"] is None
    assert result["metrics"]["check_ref.p50"]["value"] > 0
    json.dumps(result)


def test_digest_mismatch_between_processes_fails():
    def result(digest):
        return {"attempted": 1, "failed": 0, "errors": [], "digests": {"cfg": digest}}

    assert run.tally([result("a"), result("a")])[:2] == (3, 0)
    attempted, failed, errors = run.tally([result("a"), result("b")])
    assert (attempted, failed) == (3, 1)
    assert "differs" in errors[0]


def test_reference_units_divide_by_the_samples_around_an_op(monkeypatch):
    # kernel calls take 2 s before the op and 4 s after it, so 6 s is 2 refs
    durations = iter([2.0, 2.0, 2.0, 4.0, 4.0, 4.0])
    clock = [0.0]

    def kernel():
        clock[0] += next(durations)

    monkeypatch.setattr(reference.time, "perf_counter", lambda: clock[0])
    ref = reference.Reference(kernel)
    assert ref.units(6.0) == 2.0
    assert ref.seconds == [2.0, 4.0]
