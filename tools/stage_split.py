"""Time the stages of one sweep kernel call, in µs per sample.

Usage: PYTHONPATH=src python tools/stage_split.py [--ensemble complex]
       [--dim 3] [--n 3] [--functions sld,wy,wyd:0.25] [--batch 256]

``--batch 1`` splits the call a replay makes (``format_record`` runs
``sweep._lines`` on one sample); the default is a sweep's call.

Runs what a sweep chunk runs for one kernel call of ``--batch`` samples,
one ``sweep._lines`` call (the draw, the kernel and the line format),
``REPEATS`` times in this process with seed ``SEED``, and prints for each
stage its best-of-N exclusive time and its share of the call.  The
exclusive time is the time spent inside the stage's functions minus the
time of the timed stages they call (so ``det_small``
holds every determinant, the dependence screen's and Robertson's included,
``_dependent`` only the rest of the screen and its SVD, and
``density_stack`` only what its ``as_hermitian`` and ``_checked_eigh``
stages leave: the trace and eigenvalue checks and the clamp, and
``product`` only what ``coordinate_grams`` leaves: the weighted product).
The stages are functions of ``sampling``, ``matrices``, ``volumes`` and
``sweep`` (``STAGES``); each repeat runs under the bench's ``Tracer``
(``bench/tracing.py``), which wraps every binding of them in the package
and puts the originals back, and ``tracing.self_times`` gives each call its
exclusive time.  Nothing of the kernel is re-implemented here, so a renamed
stage function fails with an AttributeError before anything is wrapped, and
one that is no longer called reads 0 calls.

A stage's share is the median, over the repeats, of its exclusive time
divided by the whole call of the same repeat (``median_shares``): load
that slows a stretch of repeats slows every stage of each of them alike,
so it cancels in each repeat's ratios, where the best of each stage may
come from a different repeat under different load.

It also prints the whole call, best of N with the tracer in place, and the
unattributed rest: the best whole call minus the sum of the stage bests;
the rest's share is the median of what each repeat's stages leave of it.
The ``_format_batch`` row also gives its µs per printed float: a call of
B samples and F functions prints B (1 + 2F + [n even]) floats
(``floats_per_sample``); every other byte of a line comes from a template.
Each stage's best is at most its time in the best whole call, so the rest
is never below that call's own unattributed time; it holds the glue of
the draw and the kernel and the tracer's overhead.  The state and
observable build from their normals are stages of their own
(``_state_matrices``, and ``_observables`` with its ``_hermitian``).
"""

from __future__ import annotations

import argparse
import importlib
import statistics
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
# (sampling, and matrices for density_stack's own calls), the kernel
# (volumes) or the line format (sweep) calls it; the tracer wraps it there and
# wherever else the package binds it.  The product stage is what
# coordinate_grams does itself: the weighted product Y diag(w) Y^T
STAGES = (
    ("_normals", "sampling", ("_normals",)),
    ("_state_matrices", "sampling", ("_state_matrices",)),
    ("_observables", "sampling", ("_observables",)),
    ("density_stack", "sampling", ("density_stack",)),
    ("as_hermitian", "matrices", ("as_hermitian",)),
    ("_checked_eigh", "matrices", ("_checked_eigh",)),
    ("_coordinates", "volumes", ("_coordinates",)),
    ("_weights", "volumes", ("_weights",)),
    ("product", "volumes", ("coordinate_grams",)),
    ("_commutator_gram", "volumes", ("_commutator_gram",)),
    ("det_small", "volumes", ("det_small",)),
    ("_dependent", "volumes", ("_dependent",)),
    ("_format_batch", "sweep", ("_format_batch",)),
)


def median_shares(spent, wholes) -> dict:
    """{stage: median over repeats of its time over the same repeat's whole
    call}, from one {stage: time} dict per repeat in ``spent`` and the
    whole calls' times in ``wholes``, plus "rest", what the stages leave of
    each whole call, and "whole" (1.0)."""
    rows = [
        {**times, "rest": whole - sum(times.values()), "whole": whole} for times, whole in zip(spent, wholes)
    ]
    return {stage: statistics.median(row[stage] / row["whole"] for row in rows) for stage in rows[0]}


def stage_split(ensemble, dim, n, functions, batch) -> dict:
    """Best-of-``REPEATS`` µs/sample of each stage of one kernel call of
    ``batch`` samples and its median share of the call (see the module
    docstring), as {stage: (µs, calls per run, share)}, plus "rest" and
    "whole" entries with no call count (None).  The config is checked as a
    sweep's is."""
    config = sweep.SweepConfig(n, dim, batch, tuple(functions), ensemble, SEED)
    spec = RandomSpec(config.seed, config.dim, config.ensemble)
    fs = tuple(builtin(fid) for fid in config.functions)
    targets = {
        f"{stage}:{name}": getattr(importlib.import_module(f"qfivol.{module}"), name)
        for stage, module, names in STAGES for name in names
    }

    def call():
        sweep._lines(spec, 0, config.samples, config.n, fs)

    call()  # warm the per-size caches and the thread's generator
    stages = [stage for stage, _, _ in STAGES]
    repeats, wholes = [], []
    for _ in range(REPEATS):
        with tracing.Tracer(targets, clock=time.perf_counter_ns) as tracer:
            start = time.perf_counter_ns()
            call()
            wholes.append(time.perf_counter_ns() - start)
        spent, calls = dict.fromkeys(stages, 0), dict.fromkeys(stages, 0)
        for span, own in zip(tracer.spans, tracing.self_times(tracer.spans)):
            stage = span[0].partition(":")[0]
            spent[stage] += own
            calls[stage] += 1
        repeats.append(spent)
    best = {stage: min(spent[stage] for spent in repeats) for stage in stages}
    whole, shares = min(wholes), median_shares(repeats, wholes)
    per_sample = 1e-3 / config.samples
    split = {stage: (best[stage] * per_sample, calls[stage], shares[stage]) for stage in best}
    split["rest"] = ((whole - sum(best.values())) * per_sample, None, shares["rest"])
    split["whole"] = (whole * per_sample, None, shares["whole"])
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
    print(f"{args.ensemble} dim {args.dim} n {args.n}, {','.join(functions)}, B {args.batch}, "
          f"µs/sample (exclusive) best of {REPEATS}, share median of {REPEATS}")
    floats = floats_per_sample(args.n, functions)
    print(f"{'stage':<16} {'us/sample':>10} {'share':>7} {'calls':>6} {'us/float':>9}")
    for stage, (us, calls, share) in split.items():
        count = "" if calls is None else calls
        per_float = f"{us / floats:9.3f}" if stage == "_format_batch" else ""
        print(f"{stage:<16} {us:>10.3f} {100 * share:6.1f}% {count:>6} {per_float}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
