"""Deterministic exploratory sweeps over random ensembles.

One record is emitted per (sample, function) to a line-delimited file with a
fixed field order and floats printed with 17 significant digits, so records
round-trip bit-exactly and a file is byte-identical across runs and worker
counts.  Work is split into fixed-size chunks (independent of parallelism);
each chunk returns its formatted lines with its gap and main-flag arrays, and
the parent writes the lines and folds the arrays into the summary in chunk
order, which keeps even the floating-point summary stable when the worker
count changes.  The file is written next to its target and renamed onto it
once complete.  Wall time is reported on the returned summary object only,
never written to the file.

Ensemble tags are resolved by ``sampling.resolve_ensemble``; records carry
the base tags, and records with retired tags replay unchanged.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .monotone import builtin
from .monotone import mean_table  # noqa: F401  bench/tests traces it through this namespace
from .sampling import RandomSpec, draw_samples
from .volumes import MAX_OBSERVABLES, BatchReport, evaluate_batch, order_pairs

# fixed regardless of parallelism so record and aggregation order are stable
CHUNK_SIZE = 256
# samples per evaluation-kernel call inside a chunk; records do not depend on
# it, and at 256 samples of dim 8 the kernel's temporaries (~2 MB) raised a
# sweep worker's peak RSS by ~2 MB where 64 costs ~0.5 MB
KERNEL_BATCH = 64

RECORD_FIELDS = (
    "index",
    "seed",
    "ensemble",
    "dim",
    "n",
    "function",
    "cov_det",
    "qfi_det",
    "gap",
    "volume_cov",
    "volume_qfi",
    "robertson_det",
    "main_holds",
    "dependent",
    "equality_consistent",
    "candidate",
)


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep parameters; functions are kept as parse strings so the
    config stays picklable for worker processes."""

    n: int
    dim: int
    samples: int
    functions: tuple
    ensemble: str
    seed: int
    parallelism: int = 1

    def __post_init__(self):
        if not 1 <= self.n <= MAX_OBSERVABLES:
            raise ValueError(f"n must be in 1..{MAX_OBSERVABLES}, got {self.n}")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if self.parallelism < 1:
            raise ValueError("parallelism must be positive")
        if not self.functions:
            raise ValueError("at least one function is required")
        object.__setattr__(self, "ensemble", RandomSpec(self.seed, self.dim, self.ensemble).ensemble)
        object.__setattr__(
            self, "functions", tuple(builtin(fid).fid for fid in self.functions)
        )
        for fid in self.functions:
            if not builtin(fid).regular:
                raise ValueError(f"sweep functions must be regular, got {fid}")
        if self.ensemble == "pauli-like-structured" and self.n != 3:
            raise ValueError("the structured ensemble requires n = 3")


@dataclass(frozen=True)
class SweepSummary:
    samples: int
    records: int
    functions: tuple
    min_gap: float
    argmin_index: int
    argmin_function: str
    candidate_counterexamples: int
    monotonicity_violations: int
    per_function: dict
    elapsed: float


# one conversion per RECORD_FIELDS entry; floats print with 17 significant
# digits so they round-trip, and %s fields take JSON words
_RECORD_TEMPLATE = (
    '{"index": %d, "seed": %d, "ensemble": "%s", "dim": %d, "n": %d, '
    '"function": "%s", "cov_det": %.17g, "qfi_det": %.17g, "gap": %.17g, '
    '"volume_cov": %.17g, "volume_qfi": %.17g, "robertson_det": %s, '
    '"main_holds": %s, "dependent": %s, "equality_consistent": %s, "candidate": %s}'
)
_JSON_WORDS = {True: "true", False: "false", None: "null"}


def _format_row(row) -> str:
    rob = row[11]
    return _RECORD_TEMPLATE % (
        *row[:11], "null" if rob is None else "%.17g" % rob, *map(_JSON_WORDS.__getitem__, row[12:])
    )


def format_record(record: dict) -> str:
    """One record as a JSON object line with fixed key order."""
    return _format_row([record[key] for key in RECORD_FIELDS])


def _evaluate(rspec: RandomSpec, indices, n: int, functions) -> BatchReport:
    (rho, lam, vectors), observables = draw_samples(rspec, indices, n)
    return evaluate_batch(rho, lam, vectors, observables, functions)


def _rows(rspec: RandomSpec, indices, n: int, functions, out: BatchReport):
    """The records of a kernel report as tuples in RECORD_FIELDS order,
    sample-major, then function."""
    cov_det, vol_cov = out.cov_det.tolist(), out.volume_cov.tolist()
    dependent = out.dependent.tolist()
    rob = [None] * len(indices) if out.robertson_det is None else out.robertson_det.tolist()
    columns = [
        (f.fid, *(arr[k].tolist() for arr in (
            out.qfi_det, out.gap, out.volume_qfi, out.main_holds, out.equality_consistent
        )))
        for k, f in enumerate(functions)
    ]
    for b, index in enumerate(indices):
        for fid, qfi_det, gap, vol_qfi, main, equal in columns:
            yield (
                index, rspec.seed, rspec.ensemble, rspec.dim, n, fid, cov_det[b],
                qfi_det[b], gap[b], vol_cov[b], vol_qfi[b], rob[b], main[b],
                dependent[b], equal[b], not main[b],
            )


def evaluate_sample(rspec: RandomSpec, index: int, n: int, functions, order_pairs=()):
    """All per-function records for one sample plus its monotonicity violations."""
    out = _evaluate(rspec, [index], n, functions)
    records = [dict(zip(RECORD_FIELDS, row)) for row in _rows(rspec, [index], n, functions, out)]
    return records, int(out.violations(order_pairs)[0])


def _chunk_worker(args):
    """Record lines, (F, B) gap and main-flag arrays and the monotonicity
    violation count of samples start..stop."""
    config, start, stop = args
    functions = tuple(builtin(fid) for fid in config.functions)
    rspec = RandomSpec(config.seed, config.dim, config.ensemble)
    pairs = order_pairs(functions)
    lines, gap, main, violations = [], [], [], 0
    for lo in range(start, stop, KERNEL_BATCH):
        indices = range(lo, min(lo + KERNEL_BATCH, stop))
        out = _evaluate(rspec, indices, config.n, functions)
        lines += map(_format_row, _rows(rspec, indices, config.n, functions, out))
        gap.append(out.gap)
        main.append(out.main_holds)
        violations += int(out.violations(pairs).sum())
    return lines, np.concatenate(gap, axis=1), np.concatenate(main, axis=1), violations


_SUMMARY_TEMPLATE = (
    '{"summary": true, "samples": %d, "records": %d, "n": %d, "dim": %d, '
    '"ensemble": "%s", "seed": %d, "functions": [%s], "min_gap": %.17g, '
    '"argmin_index": %d, "argmin_function": "%s", "candidate_counterexamples": %d, '
    '"monotonicity_violations": %d, "per_function": {%s}}'
)


def format_summary(config: SweepConfig, summary: SweepSummary) -> str:
    """The trailing summary line (fixed key order, no wall time)."""
    per_function = ", ".join(
        '"%s": {"min_gap": %.17g, "mean_gap": %.17g, "candidates": %d}'
        % (fid, stats["min_gap"], stats["mean_gap"], stats["candidates"])
        for fid, stats in summary.per_function.items()
    )
    return _SUMMARY_TEMPLATE % (
        summary.samples, summary.records, config.n, config.dim, config.ensemble,
        config.seed, ", ".join(f'"{fid}"' for fid in config.functions),
        summary.min_gap, summary.argmin_index, summary.argmin_function,
        summary.candidate_counterexamples, summary.monotonicity_violations, per_function,
    )


def _fold(config: SweepConfig, parts, fh, start_time) -> SweepSummary:
    """Write each chunk's lines and fold its arrays into the summary, in chunk
    order: per-function gap sums add each chunk's in-order sum, and the
    argmin keeps the first record holding the minimum gap."""
    fids = config.functions
    min_gap, sum_gap = [math.inf] * len(fids), [0.0] * len(fids)
    candidates, violations, done = np.zeros(len(fids), dtype=int), 0, 0
    best, argmin_index, argmin_function = math.inf, -1, ""
    for lines, gap, main, count in parts:
        fh.write("\n".join(lines))
        fh.write("\n")
        for k, g in enumerate(gap.tolist()):
            min_gap[k] = min(min_gap[k], min(g))
            sum_gap[k] += sum(g, 0.0)
        flat = gap.T.ravel()
        k = int(np.argmin(flat))
        if flat[k] < best:
            best, argmin_index = float(flat[k]), done + k // len(fids)
            argmin_function = fids[k % len(fids)]
        candidates += (~main).sum(axis=1)
        violations += count
        done += gap.shape[1]
    return SweepSummary(
        samples=config.samples,
        records=config.samples * len(fids),
        functions=fids,
        min_gap=best,
        argmin_index=argmin_index,
        argmin_function=argmin_function,
        candidate_counterexamples=int(candidates.sum()),
        monotonicity_violations=violations,
        per_function={
            fid: {"min_gap": lo, "mean_gap": total / config.samples, "candidates": int(c)}
            for fid, lo, total, c in zip(fids, min_gap, sum_gap, candidates)
        },
        elapsed=time.perf_counter() - start_time,
    )


def run_sweep(config: SweepConfig, out_path) -> SweepSummary:
    """Run the sweep, write records plus a summary line, return the summary.

    The file is written as ``OUT.tmp`` next to ``OUT`` and renamed onto it
    after the summary line, so a failed sweep leaves ``OUT`` as it was.
    """
    start_time = time.perf_counter()
    chunks = [
        (config, lo, min(lo + CHUNK_SIZE, config.samples))
        for lo in range(0, config.samples, CHUNK_SIZE)
    ]
    tmp_path = f"{os.fspath(out_path)}.tmp"
    try:
        with open(tmp_path, "w") as fh, ExitStack() as stack:
            if config.parallelism == 1:
                parts = map(_chunk_worker, chunks)
            else:
                pool = stack.enter_context(ProcessPoolExecutor(max_workers=config.parallelism))
                parts = pool.map(_chunk_worker, chunks, chunksize=1)
            summary = _fold(config, parts, fh, start_time)
            fh.write(format_summary(config, summary) + "\n")
        os.replace(tmp_path, out_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise
    return summary


# the record fields a replay draws and evaluates from, checked before SweepConfig
_REPLAY_TYPES = {"index": int, "seed": int, "dim": int, "n": int, "ensemble": str, "function": str}
_TYPE_NAMES = {int: "an integer", str: "a string"}


def replay_record(path, line_number: int) -> dict:
    """Recompute one record from its own fields and compare bit-for-bit.

    Floats are printed with 17 significant digits, so parsing and equality
    comparison are exact; any mismatch means the stream is not reproducible
    on this build.
    """
    # binary lines, since only the wanted line needs decoding (json.loads
    # takes bytes); records end in "\n"
    with open(path, "rb") as fh:
        # read up to the wanted line only; count the rest just for the error
        line = next(itertools.islice(fh, line_number - 1, None), None) if line_number > 0 else None
        if line is None:
            fh.seek(0)
            raise ValueError(f"line {line_number} out of range 1..{sum(1 for _ in fh)}")
    stored = json.loads(line)
    if isinstance(stored, dict) and stored.get("summary"):
        raise ValueError("the summary line cannot be replayed")
    missing = [key for key in RECORD_FIELDS if not isinstance(stored, dict) or key not in stored]
    if missing:
        raise ValueError(f"line {line_number} is not a sweep record: missing {', '.join(missing)}")
    for key, kind in _REPLAY_TYPES.items():
        # exact types: JSON gives bool for true/false, which int would accept
        if type(stored[key]) is not kind:
            raise ValueError(
                f"line {line_number}: {key} must be {_TYPE_NAMES[kind]}, got {stored[key]!r}"
            )
    try:
        config = SweepConfig(
            n=stored["n"], dim=stored["dim"], samples=1, functions=(stored["function"],),
            ensemble=stored["ensemble"], seed=stored["seed"],
        )
    except ValueError as exc:
        raise ValueError(f"line {line_number}: {exc}") from exc
    rspec = RandomSpec(config.seed, config.dim, config.ensemble)
    records, _ = evaluate_sample(rspec, stored["index"], config.n, (builtin(config.functions[0]),))
    fresh = records[0]
    # JSON gives back exactly the printed floats, ints for integral ones; a
    # retired ensemble tag names the stream of the base tag fresh records carry
    expected = dict(stored, ensemble=rspec.ensemble)
    mismatches = {
        key: (stored[key], fresh[key]) for key in RECORD_FIELDS if expected[key] != fresh[key]
    }
    return {"stored": stored, "recomputed": fresh, "mismatches": mismatches}
