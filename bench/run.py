"""Benchmark of qfivol's sweep, replay and check paths.

    python3 bench/run.py --workload sweep-complex-d3n3 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, untraced and traced

Run from any directory of a checkout; the package is imported from the
checkout's ``src``.  Each measurement runs ``harness.py`` in a fresh process
with ``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``.  With ``--trace 0``
set-up is measured in several fresh processes and the end-to-end metrics
come from an untraced run; with ``--trace 1`` one process reports the
per-layer metrics of a traced pass.  Every metric is printed with its unit,
and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The exit code is 0 when a result was printed, else non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# before numpy is imported: the reference kernel runs here too
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

from reference import SETUP_WINDOW_S, Reference, compute_kernel, setup_seconds  # noqa: E402
from workloads import END_TO_END, WORKLOADS, layer_units  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# set-up is measured in this many fresh processes (the measuring one included)
SETUP_RUNS = 5
# a single workload run must finish well inside three minutes
RUN_BUDGET_S = 170.0


class RunFailed(RuntimeError):
    """A workload process failed, timed out, or printed no result."""


def git_revision(root):
    """The checkout's commit, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(mode, args, deadline):
    """Run harness.py once and return its JSON result, with ``setup_s``."""
    kernel_before_s = Reference(compute_kernel, window=SETUP_WINDOW_S).last
    result = spawn(mode, args, deadline)
    result["setup_s"] = setup_seconds(
        result["setup_wall_s"], kernel_before_s, result["setup_kernel_s"])
    return result


def spawn(mode, args, deadline):
    """Run harness.py once and return its JSON result."""
    command = [
        sys.executable,
        str(BENCH_DIR / "harness.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--t0", repr(t0)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            timeout=max(1.0, deadline - t0),
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{mode} run of {args.workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{mode} run of {args.workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def tally(results):
    """(attempted, failed, errors) over child results, digests included.

    Sweep outputs of one config must hash the same in every process, so each
    process after the first that saw a config adds one compared op.
    """
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    first = {}
    for result in results:
        for key, digest in result["digests"].items():
            if key in first:
                attempted += 1
                if digest != first[key]:
                    failed += 1
                    errors.append(f"sweep {key}: sha256 differs between processes")
            else:
                first[key] = digest
    return attempted, failed, errors


def run_untraced(args, deadline):
    results = [run_child("setup", args, deadline) for _ in range(SETUP_RUNS - 1)]
    main = run_child("measure", args, deadline)
    results.append(main)
    if WORKLOADS[args.workload].timed_sweeps:
        per_ref, per_s = main["samples_per_ref"], main["samples_per_s"]
        rate_note = f"median of {main['sweeps']} timed sweeps"
    else:
        builds = [r["build"] for r in results if r["build"] is not None]
        per_ref = statistics.median(b["per_ref"] for b in builds) if builds else None
        per_s = statistics.median(b["per_s"] for b in builds) if builds else None
        rate_note = f"median of {len(builds)} record-file builds in set-up"
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "samples_per_ref": per_ref,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(results)} fresh processes; "
        f"{statistics.median(r['setup_wall_s'] for r in results):.4g} s wall",
        "samples_per_ref": f"{per_s:.6g} samples/s wall; {rate_note}"
        if per_s is not None else "no sweep completed",
    }
    for kind, scale, unit in (("replay", 1e3, "ms"), ("check", 1e6, "us")):
        refs, wall = main[kind]["ref"], main[kind]["s"]
        for q in ("p50", "p90"):
            name = f"{kind}_ref.{q}"
            values[name] = refs[q]
            notes[name] = f"{wall[q] * scale:.6g} {unit} wall; n={refs['count']}"
        notes[f"{kind}_ref.p90"] += f", {refs['beyond_p90']} beyond"
    notes["peak_rss_mb"] = "ref medians in this run: " + ", ".join(
        f"{kind} {us:.4g} us" for kind, us in main["reference_us"].items())
    return results, main, values, END_TO_END, notes


def run_traced(args, deadline):
    main = run_child("trace", args, deadline)
    notes = {
        "trace.overhead_ratio": f"{main['passes']} traced passes, each a "
        f"{main['sweep_samples_per_pass']}-sample serial sweep and "
        f"{main['pairs_per_pass']} replay/check pairs"
    }
    return [main], main, main["layer_metrics"], layer_units(), notes


def run_workload(args):
    """Run one workload in one mode; print its report and return the result."""
    deadline = time.monotonic() + RUN_BUDGET_S
    runner = run_traced if args.trace else run_untraced
    results, main, values, units, notes = runner(args, deadline)
    attempted, failed, errors = tally(results)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    if args.trace and WORKLOADS[args.workload].parallelism > 1:
        print("note: the traced pass sweeps at parallelism 1; spans inside worker "
              "processes are out of reach")
    if args.trace:
        print(f"spans written to {os.path.relpath(main['spans_file'], ROOT)}")
    fingerprint = dict(main["fingerprint"], git_revision=git_revision(ROOT))
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        value = "-" if values[name] is None else f"{values[name]:.6g}"
        print(f"  {name:<42} {value:>14} {unit}{note}")
    print(f"  {'failed_ratio':<42} {failed / attempted:>14.6g}  "
          f"({failed} failed of {attempted} attempted)")
    print(f"  {'monotonicity_violations':<42} "
          f"{sum(r['monotonicity_violations'] for r in results):>14d} count  "
          "(reported, not gated)")
    for error in errors:
        print("FAILED: " + error, file=sys.stderr)
    # a metric is None when every op that measures it raised
    return {
        "correct": failed == 0 and None not in values.values(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default: both, for --workload all)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qfivol" / "__init__.py").is_file():
        print(f"no qfivol sources under {ROOT / 'src'}; run from a qfivol checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        runs = [(args.workload, args.trace or 0)]
    else:
        traces = (0, 1) if args.trace is None else (args.trace,)
        runs = [(name, trace) for name in WORKLOADS for trace in traces]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name, trace in runs:
            result = run_workload(argparse.Namespace(
                workload=name, seed=args.seed, seconds=args.seconds, trace=trace))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = "" if len(runs) == 1 else name + ":"
            for metric, value in result["metrics"].items():
                combined["metrics"][prefix + metric] = value
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
