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
SVD).  The stages are module functions, each wrapped with a timer in the
namespace its caller looks it up in (``STAGES``); nothing of the kernel is
re-implemented here, so a renamed stage function fails with an
AttributeError, and one that is no longer called reads 0 calls.

It also prints the whole call, best of N with the timers in place, and the
unattributed rest: the best whole call minus the sum of the stage bests.
The ``_format_batch`` row also gives its µs per printed float: a call of
B samples and F functions prints B (1 + 2F + [n even]) floats
(``floats_per_sample``); every other byte of a line comes from a template.
Each stage's best is at most its time in the best whole call, so the rest
is never below that call's own unattributed time; it holds the state and
observable build, the kernel's glue and the timers' overhead.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import math
import sys
import time

from qfivol import sweep
from qfivol.monotone import builtin
from qfivol.sampling import RandomSpec

SEED = 7
REPEATS = 30  # runs to take the best of

# (stage, module, functions): each function is wrapped where the kernel,
# the draw or this script looks it up
STAGES = (
    ("_normals", "sampling", ("_normals",)),
    ("density_stack", "sampling", ("density_stack",)),
    ("frames", "volumes", ("expectation_stack", "frame_stack", "real_coordinates")),
    ("_dependent", "volumes", ("_dependent",)),
    ("mean_table", "volumes", ("mean_table",)),
    ("batched_grams", "volumes", ("batched_grams",)),
    ("det_small", "volumes", ("det_small",)),
    ("_robertson", "volumes", ("_robertson",)),
    ("_format_batch", "sweep", ("_format_batch",)),
)


class _Timers:
    """Exclusive nanoseconds and call counts per stage, since the last reset."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.exclusive = {stage: 0 for stage, _, _ in STAGES}
        self.calls = dict.fromkeys(self.exclusive, 0)
        # the time of the timed calls made inside each open timed call
        self._inner = [0]

    def wrap(self, stage, func):
        @functools.wraps(func)
        def timed(*args, **kwargs):
            self._inner.append(0)
            start = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self.exclusive[stage] += elapsed - self._inner.pop()
                self.calls[stage] += 1
                self._inner[-1] += elapsed

        return timed


def _install(timers) -> list:
    """Wrap every stage function; returns (module, name, original) to restore."""
    saved = []
    try:
        for stage, module_name, names in STAGES:
            module = importlib.import_module(f"qfivol.{module_name}")
            for name in names:
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, timers.wrap(stage, original))
    except BaseException:
        _restore(saved)
        raise
    return saved


def _restore(saved):
    for module, name, original in reversed(saved):
        setattr(module, name, original)


def _elapsed_ns(call) -> int:
    start = time.perf_counter_ns()
    call()
    return time.perf_counter_ns() - start


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

    def call():
        # module attribute lookups, so that the installed timers see them
        out = sweep._evaluate(spec, indices, config.n, fs)
        sweep._format_batch(templates, indices, out)

    call()  # warm the per-size caches and the thread's generator
    timers = _Timers()
    best, whole = dict.fromkeys(timers.exclusive, math.inf), math.inf
    saved = _install(timers)
    try:
        for _ in range(REPEATS):
            timers.reset()
            whole = min(whole, _elapsed_ns(call))
            for stage, spent in timers.exclusive.items():
                best[stage] = min(best[stage], spent)
    finally:
        _restore(saved)
    calls = timers.calls
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
