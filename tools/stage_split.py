"""Time the stages of one sweep kernel call, in µs per sample.

Usage: PYTHONPATH=src python tools/stage_split.py [--ensemble complex]
       [--dim 3] [--n 3] [--functions sld,wy,wyd:0.25] [--batch 256]

Runs what a sweep chunk runs for one kernel call of ``--batch`` samples,
``sweep._evaluate`` (the draw and the kernel) and then
``sweep._format_batch``, ``REPEATS`` times in this process with seed
``SEED``, and prints for each stage its best-of-N exclusive time: the time
spent inside the stage's functions minus the time of the timed stages they
call (so ``det_small`` holds every determinant, the dependence screen's and
Robertson's included, and ``_dependent`` only the rest of the screen and its
SVD).  The stages are functions of ``sampling`` and ``record_v3``
(``STAGES``); each repeat runs under the bench's ``Tracer``
(``bench/tracing.py``), which wraps every binding of them in the package
and puts the originals back, and ``tracing.self_times`` gives each call its
exclusive time.  Nothing of the kernel is
re-implemented here, so a renamed stage function fails with an
AttributeError before anything is wrapped, and one that is no longer called
reads 0 calls.

It also prints the whole call, best of N with the tracer in place, and the
unattributed rest: the best whole call minus the sum of the stage bests.
The ``_format_batch`` row also gives its µs per printed float: a call of
B samples and F functions prints B (1 + 2F + [n even]) floats
(``floats_per_sample``); every other byte of a line comes from a template.
Each stage's best is at most its time in the best whole call, so the rest
is never below that call's own unattributed time; it holds the state and
observable build, the kernel's glue and the tracer's overhead.
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys
import time
from pathlib import Path

from qfivol import sweep
from qfivol.monotone import builtin
from qfivol.sampling import RandomSpec

# bench/tracing.py, from the checkout's bench/ as its own tests find it
BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))
import tracing  # noqa: E402

SEED = 7
REPEATS = 30  # runs to take the best of

# (stage, module, functions): each function is looked up where the draw
# (sampling) or the version-3 kernel and line format (record_v3) calls it;
# the tracer wraps it there and wherever else the package binds it
STAGES = (
    ("_normals", "sampling", ("_normals",)),
    ("density_stack", "sampling", ("density_stack",)),
    ("frames", "record_v3", ("expectation_stack", "frame_stack", "real_coordinates")),
    ("_dependent", "record_v3", ("_dependent",)),
    ("mean_table", "record_v3", ("mean_table",)),
    ("batched_grams", "record_v3", ("batched_grams",)),
    ("det_small", "record_v3", ("det_small",)),
    ("_robertson", "record_v3", ("_robertson",)),
    ("_format_batch", "record_v3", ("_format_batch",)),
)


def stage_split(ensemble, dim, n, functions, batch) -> dict:
    """Best-of-``REPEATS`` µs/sample of each stage of one kernel call of
    ``batch`` samples (see the module docstring), as {stage: (µs, calls per
    run)}, plus "rest" and "whole" entries with no call count (None).  The
    config is checked as a sweep's is."""
    config = sweep.SweepConfig(n, dim, batch, tuple(functions), ensemble, SEED)
    spec = RandomSpec(config.seed, config.dim, config.ensemble)
    fs = tuple(builtin(fid) for fid in config.functions)
    templates = sweep._templates(spec.seed, spec.ensemble, spec.dim, config.n, config.functions)
    indices = range(config.samples)
    targets = {
        f"{stage}:{name}": getattr(importlib.import_module(f"qfivol.{module}"), name)
        for stage, module, names in STAGES for name in names
    }

    def call():
        # module attribute lookups, so that the tracer's wrappers see them
        out = sweep._evaluate(spec, indices, config.n, fs)
        sweep._format_batch(templates, indices, out)

    call()  # warm the per-size caches and the thread's generator
    best, whole = {stage: math.inf for stage, _, _ in STAGES}, math.inf
    for _ in range(REPEATS):
        with tracing.Tracer(targets, clock=time.perf_counter_ns) as tracer:
            start = time.perf_counter_ns()
            call()
            whole = min(whole, time.perf_counter_ns() - start)
        spent, calls = dict.fromkeys(best, 0), dict.fromkeys(best, 0)
        for span, own in zip(tracer.spans, tracing.self_times(tracer.spans)):
            stage = span[0].partition(":")[0]
            spent[stage] += own
            calls[stage] += 1
        best = {stage: min(best[stage], spent[stage]) for stage in best}
    per_sample = 1e-3 / config.samples
    split = {stage: (best[stage] * per_sample, calls[stage]) for stage in best}
    split["rest"] = ((whole - sum(best.values())) * per_sample, None)
    split["whole"] = (whole * per_sample, None)
    return split


def floats_per_sample(n, functions) -> int:
    """The floats one sample's records print: cov_det once, qfi_det and gap
    once per function, and robertson_det once when n is even."""
    return 1 + 2 * len(functions) + (n % 2 == 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ensemble", default="complex")
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--functions", default="sld,wy,wyd:0.25")
    parser.add_argument("--batch", type=int, default=256, help="samples in the one kernel call")
    args = parser.parse_args(argv)
    functions = [fid for fid in args.functions.split(",") if fid]
    split = stage_split(args.ensemble, args.dim, args.n, functions, args.batch)
    whole = split["whole"][0]
    print(f"{args.ensemble} dim {args.dim} n {args.n}, {','.join(functions)}, "
          f"B {args.batch}, best of {REPEATS}, µs/sample (exclusive)")
    floats = floats_per_sample(args.n, functions)
    print(f"{'stage':<16} {'us/sample':>10} {'share':>7} {'calls':>6} {'us/float':>9}")
    for stage, (us, calls) in split.items():
        count = "" if calls is None else calls
        per_float = f"{us / floats:9.3f}" if stage == "_format_batch" else ""
        print(f"{stage:<16} {us:>10.3f} {100 * us / whole:6.1f}% {count:>6} {per_float}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
