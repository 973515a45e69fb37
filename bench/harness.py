"""One run of one qfivol benchmark workload, in a fresh process.

``run.py`` starts this script with single-threaded BLAS and the checkout's
``src`` on ``PYTHONPATH``.  Every mode first does the workload's set-up
(imports, ``SweepConfig`` validation, function registration, one warm-up
chunk, one warm-up check and, for ``replay-check``, building the record
file), then:

* ``setup``   stops there;
* ``measure`` times the workload with tracing off;
* ``trace``   alternates untraced and traced passes of a fixed amount of work
  and derives per-layer self times from the traced ones.

Each op's output is checked; a failed check or an exception counts as a
failed op.  The last line on stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import qfivol
from qfivol import monotone, sampling, sweep, volumes

from reference import SETUP_WINDOW_S, Reference, compute_kernel, parse_kernel
from tracing import Tracer, assert_untraced, totals_by_op_kind
from workloads import LAYER_METRICS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

# share of --seconds given to timed sweeps; the rest goes to replay/check
SWEEP_SHARE = 0.6
MIN_SWEEPS = 3
# a sweep takes about a second; its reference samples span this long
SWEEP_REFERENCE_WINDOW_S = 0.05
# p90 needs at least ten samples beyond it
MIN_LATENCY_SAMPLES = 100
# wall-clock cap on the timed part, so a slow build still exits in time
HARD_LIMIT_S = 100.0
# check draws use sample indices no sweep reaches, so they are fresh inputs
CHECK_INDEX_BASE = 1 << 40
MAX_REPORTED_ERRORS = 5


class Ledger:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.monotonicity_violations = 0

    def check(self, passed, message):
        self.attempted += 1
        if not passed:
            self.failed += 1
            if len(self.errors) < MAX_REPORTED_ERRORS:
                self.errors.append(message)

    def error(self, what):
        self.check(False, f"{what} raised:\n{traceback.format_exc()}")


class Session:
    """Inputs and record-file state of one workload run."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.workdir = Path(workdir)
        self.config = sweep.SweepConfig(
            n=workload.n,
            dim=workload.dim,
            samples=workload.samples,
            functions=workload.functions,
            ensemble=workload.ensemble,
            seed=seed,
            parallelism=workload.parallelism,
        )
        self.record_path = self.workdir / "records.jsonl"
        self.records = self.config.samples * len(self.config.functions)
        self.check_spec = sampling.RandomSpec(seed, self.config.dim, self.config.ensemble)
        self.next_check = CHECK_INDEX_BASE
        self.line_rng = np.random.default_rng(seed)
        # sha256 of each sweep output, keyed by its config at parallelism 1,
        # so repeats and the serial reference are compared with the first run
        self.digests = {}


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sweep_op(session, config, path, ledger):
    """Time one ``run_sweep``; check its summary and output digest.

    Returns the wall seconds of the call, or None if it raised.
    """
    start = time.perf_counter()
    try:
        summary = sweep.run_sweep(config, path)
    except Exception:
        ledger.error(f"run_sweep({config})")
        return None
    elapsed = time.perf_counter() - start
    ledger.monotonicity_violations += summary.monotonicity_violations
    digest = file_sha256(path)
    key = dataclasses.replace(config, parallelism=1)
    expected = session.digests.setdefault(key, digest)
    ledger.check(
        summary.candidate_counterexamples == 0 and digest == expected,
        f"sweep {config}: {summary.candidate_counterexamples} candidates, "
        f"sha256 {digest} (first run {expected})",
    )
    return elapsed


def replay_op(session, ledger, line=None):
    """Time one ``replay_record`` of a seeded random line; any mismatch fails."""
    if line is None:
        line = int(session.line_rng.integers(1, session.records + 1))
    start = time.perf_counter()
    try:
        result = sweep.replay_record(str(session.record_path), line)
    except Exception:
        ledger.error(f"replay_record(line {line})")
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    ledger.check(
        not result["mismatches"],
        f"replay of line {line} mismatched: {result['mismatches']}",
    )
    return elapsed


def check_op(session, ledger):
    """Time one ``check_inequalities`` on a fresh draw; main_holds must be True."""
    index = session.next_check
    session.next_check += 1
    state = sampling.sample_state(session.check_spec, index)
    observables = sampling.sample_observables(session.check_spec, index, 2)
    spec = volumes.GramSpec(state, observables, monotone.WY)
    start = time.perf_counter()
    try:
        verdict = volumes.check_inequalities(spec, partner=monotone.SLD)
    except Exception:
        ledger.error(f"check_inequalities(index {index})")
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    ledger.check(verdict.main_holds, f"check at index {index}: main inequality fails")
    return elapsed


def set_up(workload, seed, workdir, ledger):
    """Everything before the first timed call; returns (session, build).

    ``build`` is None, or for workloads that build their record file here,
    that sweep's throughput in samples/s and in samples/ref.
    """
    session = Session(workload, seed, workdir)
    warmup = dataclasses.replace(session.config, samples=sweep.CHUNK_SIZE)
    sweep_op(session, warmup, session.workdir / "warmup.jsonl", ledger)
    check_op(session, ledger)
    if workload.timed_sweeps:
        return session, None
    reference = Reference(compute_kernel, window=SWEEP_REFERENCE_WINDOW_S)
    elapsed = sweep_op(session, session.config, session.record_path, ledger)
    if elapsed is None:
        return session, None
    samples = session.config.samples
    return session, {"per_s": samples / elapsed, "per_ref": samples / reference.units(elapsed)}


def latency_summary(values):
    """p50 and p90 of a list of latencies, with the counts behind them."""
    p90 = statistics.quantiles(values, n=10)[8]
    return {
        "p50": statistics.median(values),
        "p90": p90,
        "count": len(values),
        "beyond_p90": sum(v > p90 for v in values),
    }


def measure(session, seconds, ledger):
    """The timed part of an untraced run.

    Every op's wall time is kept both in seconds and in refs (see
    ``reference.py``); reference kernels run between ops, never during one.
    """
    assert_untraced()
    references = {"check": Reference(compute_kernel), "replay": Reference(parse_kernel)}
    if session.workload.timed_sweeps:
        references["sweep"] = Reference(compute_kernel, window=SWEEP_REFERENCE_WINDOW_S)
    result = timed_ops(session, seconds, ledger, references)
    result["reference_us"] = {
        kind: statistics.median(ref.seconds) * 1e6 for kind, ref in references.items()
    }
    if session.config.parallelism > 1:
        # serial reference: outside the timed region and outside set-up
        serial = dataclasses.replace(session.config, parallelism=1)
        sweep_op(session, serial, session.workdir / "serial.jsonl", ledger)
    return result


def timed_ops(session, seconds, ledger, references):
    result = {}
    start = time.perf_counter()
    hard_stop = start + HARD_LIMIT_S
    samples = session.config.samples
    if session.workload.timed_sweeps:
        per_s, per_ref = [], []
        deadline = start + SWEEP_SHARE * seconds
        while len(per_s) < MIN_SWEEPS or time.perf_counter() < deadline:
            elapsed = sweep_op(session, session.config, session.record_path, ledger)
            if elapsed is None or time.perf_counter() > hard_stop:
                break
            per_s.append(samples / elapsed)
            per_ref.append(samples / references["sweep"].units(elapsed))
        result["sweeps"] = len(per_s)
        result["samples_per_s"] = statistics.median(per_s) if per_s else None
        result["samples_per_ref"] = statistics.median(per_ref) if per_ref else None
    latencies = {"replay": ([], []), "check": ([], [])}
    deadline = start + seconds
    while len(latencies["check"][0]) < MIN_LATENCY_SAMPLES or time.perf_counter() < deadline:
        if time.perf_counter() > hard_stop:
            break
        for kind, op in (("replay", replay_op), ("check", check_op)):
            elapsed = op(session, ledger)
            latencies[kind][0].append(elapsed)
            latencies[kind][1].append(references[kind].units(elapsed))
    for kind, (wall, refs) in latencies.items():
        result[kind] = {"s": latency_summary(wall), "ref": latency_summary(refs)}
    return result


class BytesRead:
    """Bytes this process has read through read syscalls (Linux rchar).

    Calling it costs one read of /proc/self/io; ``overhead`` is what that
    read itself adds, measured back to back, and is subtracted by ``delta``.
    """

    def __init__(self):
        self._fd = os.open("/proc/self/io", os.O_RDONLY)
        self.overhead = 0
        self.overhead = min(self.delta(self()) for _ in range(3))

    def __call__(self):
        for line in os.pread(self._fd, 4096, 0).decode().splitlines():
            if line.startswith("rchar:"):
                return int(line.split()[1])
        raise RuntimeError("no rchar line in /proc/self/io")

    def delta(self, before):
        return self() - before - self.overhead

    def close(self):
        os.close(self._fd)


def work_pass(session, config, ledger, tracer=None, reads=None):
    """One fixed pass: a sweep, then replay/check pairs.  Returns bytes read
    by the replays (when ``reads`` is given)."""
    op = tracer.op if tracer is not None else (lambda kind: nullcontext())
    with op("sweep"):
        sweep_op(session, config, session.workdir / "trace.jsonl", ledger)
    bytes_read = 0
    for _ in range(session.workload.trace_pairs):
        before = reads() if reads is not None else 0
        with op("replay"):
            replay_op(session, ledger)
        if reads is not None:
            bytes_read += reads.delta(before)
        with op("check"):
            check_op(session, ledger)
    return bytes_read


def trace_targets():
    """Span name -> function object for every function a layer metric names."""
    targets = {}
    for _, name, _, _ in LAYER_METRICS:
        module, attr = name.split(".")
        targets[name] = getattr(getattr(qfivol, module), attr)
    return targets


def layer_metrics(tracer, op_sizes):
    """Per-layer values from the traced spans.

    ``op_sizes`` gives, per op kind, the units the scopes divide by: sweep
    samples for "sweep", calls for "replay" and "check".
    """
    totals = totals_by_op_kind(tracer.spans, tracer.op_kinds)
    out = {}
    for name, function, quantity, scope in LAYER_METRICS:
        own, calls = totals.get((function, scope), (0.0, 0))
        units = op_sizes[scope]
        out[name] = {
            "self_us": own / units * 1e6,
            "self_ms": own / units * 1e3,
            "calls": calls / units,
        }[quantity]
    return out


def trace(session, seconds, ledger):
    """Alternate untraced and traced passes until ``seconds`` have passed."""
    if session.workload.timed_sweeps:
        sweep_op(session, session.config, session.record_path, ledger)
    config = dataclasses.replace(
        session.config, samples=session.workload.trace_samples, parallelism=1
    )
    tracer = Tracer(trace_targets())
    reads = BytesRead()
    walls = {False: [], True: []}
    bytes_read = 0
    deadline = time.perf_counter() + seconds
    try:
        while not walls[True] or time.perf_counter() < deadline:
            order = (False, True) if len(walls[True]) % 2 == 0 else (True, False)
            for traced in order:
                if traced:
                    with tracer:
                        start = time.perf_counter()
                        bytes_read += work_pass(session, config, ledger, tracer, reads)
                        walls[True].append(time.perf_counter() - start)
                else:
                    assert_untraced()
                    start = time.perf_counter()
                    work_pass(session, config, ledger)
                    walls[False].append(time.perf_counter() - start)
    finally:
        reads.close()
    passes = len(walls[True])
    pairs = passes * session.workload.trace_pairs
    metrics = layer_metrics(
        tracer, {"sweep": passes * config.samples, "replay": pairs, "check": pairs}
    )
    metrics["sweep.replay_record.bytes_read"] = bytes_read / pairs
    metrics["trace.overhead_ratio"] = sum(walls[True]) / sum(walls[False])
    return tracer, {
        "layer_metrics": metrics,
        "passes": passes,
        "pairs_per_pass": session.workload.trace_pairs,
        "sweep_samples_per_pass": config.samples,
    }


def write_spans(tracer, path):
    with open(path, "w") as fh:
        for name, start, end, parent, op in tracer.spans:
            kind = tracer.op_kinds[op] if op >= 0 else None
            fh.write(json.dumps([name, start, end, parent, op, kind]) + "\n")


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def fingerprint():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run_mode(mode, workload_name, seed, seconds, t0, out_dir):
    """Set up one workload, run it in ``mode`` and return the result dict."""
    workload = WORKLOADS[workload_name]
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_dir))
    ledger = Ledger()
    try:
        session, build = set_up(workload, seed, workdir, ledger)
        result = {
            "setup_wall_s": time.monotonic() - t0,
            # run.py samples the kernel just before this process starts
            "setup_kernel_s": Reference(compute_kernel, window=SETUP_WINDOW_S).last,
            "build": build,
        }
        if mode == "measure":
            result.update(measure(session, seconds, ledger))
        elif mode == "trace":
            tracer, traced = trace(session, seconds, ledger)
            result.update(traced)
            spans = out_dir / f"spans-{workload_name}-seed{seed}.jsonl"
            write_spans(tracer, spans)
            result["spans_file"] = str(spans)
        result.update(
            attempted=ledger.attempted,
            failed=ledger.failed,
            errors=ledger.errors,
            monotonicity_violations=ledger.monotonicity_violations,
            digests={str(key): value for key, value in session.digests.items()},
            peak_rss_mb=peak_rss_mb(),
            fingerprint=fingerprint(),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    args = parser.parse_args(argv)

    package_dir = Path(qfivol.__file__).resolve().parent
    if package_dir != ROOT / "src" / "qfivol":
        raise SystemExit(f"imported qfivol from {package_dir}, not from this checkout")
    result = run_mode(args.mode, args.workload, args.seed, args.seconds, args.t0,
                      ROOT / ".bench_out")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
