"""
Deterministic sweeps with replayable records
============================================

A sweep evaluates the determinant gap on a seeded random ensemble and writes
one structured record per (sample, function).  Records carry everything
needed to regenerate their inputs, so any line of the file can be recomputed
bit-for-bit later, on any machine, at any worker count.
"""

import json
import tempfile
from pathlib import Path

from qfivol import SweepConfig, replay_record, run_sweep

config = SweepConfig(
    n=3,
    dim=3,
    samples=500,
    functions=("sld", "wy", "wyd:0.25"),
    ensemble="complex",
    seed=42,
    parallelism=2,
)

with tempfile.TemporaryDirectory() as workdir:
    out = Path(workdir) / "records.jsonl"
    summary = run_sweep(config, out)

    print(f"wrote {summary.records} records to {out}")
    print(f"min gap {summary.min_gap:.6e} at sample {summary.argmin_index} "
          f"({summary.argmin_function})")
    print(f"candidate counterexamples: {summary.candidate_counterexamples}")
    print(f"monotonicity violations:   {summary.monotonicity_violations}")
    print(f"elapsed: {summary.elapsed:.2f}s")

    print()
    print("per-function aggregates:")
    for fid, stats in summary.per_function.items():
        print(f"  {fid:<10} min {stats['min_gap']:+.6e}  mean {stats['mean_gap']:+.6e}")

    # replay the record where the gap was smallest
    lines = out.read_text().splitlines()
    target = next(
        i + 1
        for i, line in enumerate(lines)
        if not json.loads(line).get("summary")
        and json.loads(line)["index"] == summary.argmin_index
        and json.loads(line)["function"] == summary.argmin_function
    )
    print()
    print(f"replaying line {target} (the minimal-gap record)...")
    result = replay_record(str(out), target)
    print("mismatches:", result["mismatches"] or "none - reproduced bit-for-bit")
