"""Deterministic exploratory sweeps over random ensembles.

One record is emitted per (sample, function) to a line-delimited file with a
fixed field order and floats printed with 17 significant digits, so records
round-trip bit-exactly and a file is byte-identical across runs and worker
counts.  Work is split into fixed-size chunks (independent of parallelism)
and both the record stream and the running aggregates are combined in chunk
order, which keeps even the floating-point summary stable when the worker
count changes.  Wall time is reported on the returned summary object only,
never written to the file.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .monotone import builtin
from .monotone import mean_table  # noqa: F401  bench/tests traces it through this namespace
from .sampling import ENSEMBLES, RandomSpec, draw_observables, draw_states
from .volumes import BatchReport, evaluate_batch, order_pairs

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

_ALIASES = {
    "complex": "density",
    "real": "real-density",
    "structured": "pauli-like-structured",
    "density+complex-hermitian": "density",
    "real-density+real-symmetric": "real-density",
    "pauli-like-structured+pauli-like-structured": "pauli-like-structured",
}


def resolve_ensemble(tag: str) -> str:
    """Map a CLI ensemble tag (alias or STATE+OBSERVABLE pair) to a base tag."""
    key = tag.strip().lower()
    if key in _ALIASES:
        return _ALIASES[key]
    if key in ENSEMBLES:
        return key
    raise ValueError(
        f"unknown ensemble {tag!r}; use one of {sorted(_ALIASES)} or {ENSEMBLES}"
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
    strict: bool = False

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"n must be 1, 2, or 3, got {self.n}")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if self.parallelism < 1:
            raise ValueError("parallelism must be positive")
        if not self.functions:
            raise ValueError("at least one function is required")
        canonical = resolve_ensemble(self.ensemble)
        object.__setattr__(self, "ensemble", canonical)
        object.__setattr__(
            self, "functions", tuple(builtin(fid).fid for fid in self.functions)
        )
        for fid in self.functions:
            if not builtin(fid).regular:
                raise ValueError(f"sweep functions must be regular, got {fid}")
        if canonical == "pauli-like-structured" and self.n != 3:
            raise ValueError("the structured ensemble requires n = 3")
        RandomSpec(self.seed, self.dim, canonical)


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
_NUMBER_FIELDS = operator.itemgetter(*RECORD_FIELDS[:11])
_FLAG_FIELDS = operator.itemgetter(*RECORD_FIELDS[12:])


def format_record(record: dict) -> str:
    """One record as a JSON object line with fixed key order."""
    rob = record["robertson_det"]
    return _RECORD_TEMPLATE % (
        *_NUMBER_FIELDS(record),
        "null" if rob is None else "%.17g" % rob,
        *map(_JSON_WORDS.__getitem__, _FLAG_FIELDS(record)),
    )


def _evaluate(rspec: RandomSpec, indices, n: int, functions) -> BatchReport:
    rho, lam, vectors = draw_states(rspec, indices)
    return evaluate_batch(rho, lam, vectors, draw_observables(rspec, indices, n), functions)


def _records(rspec: RandomSpec, indices, n: int, functions, out: BatchReport):
    """The records of a kernel report (sample-major, then function), each dict
    built on demand so that a chunk holds formatted lines, not dicts."""
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
            yield dict(zip(RECORD_FIELDS, (
                index, rspec.seed, rspec.ensemble, rspec.dim, n, fid, cov_det[b],
                qfi_det[b], gap[b], vol_cov[b], vol_qfi[b], rob[b], main[b],
                dependent[b], equal[b], not main[b],
            )))


def evaluate_sample(rspec: RandomSpec, index: int, n: int, functions, order_pairs=()):
    """All per-function records for one sample plus its monotonicity violations."""
    out = _evaluate(rspec, [index], n, functions)
    records = list(_records(rspec, [index], n, functions, out))
    return records, int(out.violations(order_pairs)[0])


def _empty_aggregate(fids):
    return {
        "min_gap": math.inf,
        "argmin_index": -1,
        "argmin_function": "",
        "candidates": 0,
        "mono_violations": 0,
        "records": 0,
        "per_function": {
            fid: {"min_gap": math.inf, "sum_gap": 0.0, "count": 0, "candidates": 0}
            for fid in fids
        },
    }


def _merge_aggregate(total, part):
    if part["min_gap"] < total["min_gap"]:
        total["min_gap"] = part["min_gap"]
        total["argmin_index"] = part["argmin_index"]
        total["argmin_function"] = part["argmin_function"]
    total["candidates"] += part["candidates"]
    total["mono_violations"] += part["mono_violations"]
    total["records"] += part["records"]
    for fid, stats in part["per_function"].items():
        dst = total["per_function"][fid]
        dst["min_gap"] = min(dst["min_gap"], stats["min_gap"])
        dst["sum_gap"] += stats["sum_gap"]
        dst["count"] += stats["count"]
        dst["candidates"] += stats["candidates"]
    return total


def _chunk_worker(args):
    config, start, stop = args
    functions = tuple(builtin(fid) for fid in config.functions)
    rspec = RandomSpec(config.seed, config.dim, config.ensemble)
    pairs = order_pairs(functions)
    lines, gap, main, violations = [], [], [], 0
    for lo in range(start, stop, KERNEL_BATCH):
        indices = range(lo, min(lo + KERNEL_BATCH, stop))
        out = _evaluate(rspec, indices, config.n, functions)
        lines += [format_record(rec) for rec in _records(rspec, indices, config.n, functions, out)]
        gap.append(out.gap)
        main.append(out.main_holds)
        violations += int(out.violations(pairs).sum())
    gap, main = np.concatenate(gap, axis=1), np.concatenate(main, axis=1)
    # in record order (sample-major) argmin keeps the first minimum, as a scan
    # with a strict < would; each sum_gap adds this chunk's gaps in order
    gaps = gap.T.ravel()
    best = int(np.argmin(gaps))
    candidates = (~main).sum(axis=1).tolist()
    return lines, {
        "min_gap": float(gaps[best]),
        "argmin_index": start + best // len(functions),
        "argmin_function": functions[best % len(functions)].fid,
        "candidates": sum(candidates),
        "mono_violations": violations,
        "records": gaps.size,
        "per_function": {
            f.fid: {"min_gap": min(g), "sum_gap": sum(g, 0.0), "count": len(g), "candidates": c}
            for f, g, c in zip(functions, gap.tolist(), candidates)
        },
    }


def _per_function(agg: dict) -> dict:
    return {
        fid: {
            "min_gap": stats["min_gap"],
            "mean_gap": stats["sum_gap"] / stats["count"] if stats["count"] else 0.0,
            "candidates": stats["candidates"],
        }
        for fid, stats in agg["per_function"].items()
    }


_SUMMARY_TEMPLATE = (
    '{"summary": true, "samples": %d, "records": %d, "n": %d, "dim": %d, '
    '"ensemble": "%s", "seed": %d, "functions": [%s], "min_gap": %.17g, '
    '"argmin_index": %d, "argmin_function": "%s", "candidate_counterexamples": %d, '
    '"monotonicity_violations": %d, "per_function": {%s}}'
)


def format_summary(config: SweepConfig, agg: dict) -> str:
    """The trailing summary line (fixed key order, no wall time)."""
    per_function = ", ".join(
        '"%s": {"min_gap": %.17g, "mean_gap": %.17g, "candidates": %d}'
        % (fid, stats["min_gap"], stats["mean_gap"], stats["candidates"])
        for fid, stats in _per_function(agg).items()
    )
    return _SUMMARY_TEMPLATE % (
        config.samples, agg["records"], config.n, config.dim, config.ensemble,
        config.seed, ", ".join(f'"{fid}"' for fid in config.functions),
        agg["min_gap"], agg["argmin_index"], agg["argmin_function"],
        agg["candidates"], agg["mono_violations"], per_function,
    )


def run_sweep(config: SweepConfig, out_path) -> SweepSummary:
    """Run the sweep, write records plus a summary line, return the summary."""
    start_time = time.perf_counter()
    chunks = [
        (config, lo, min(lo + CHUNK_SIZE, config.samples))
        for lo in range(0, config.samples, CHUNK_SIZE)
    ]
    agg = _empty_aggregate(config.functions)
    with open(out_path, "w") as fh, ExitStack() as stack:
        if config.parallelism == 1:
            parts = map(_chunk_worker, chunks)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=config.parallelism))
            parts = pool.map(_chunk_worker, chunks, chunksize=1)
        for lines, part in parts:
            fh.write("\n".join(lines))
            fh.write("\n")
            _merge_aggregate(agg, part)
        fh.write(format_summary(config, agg) + "\n")
    return SweepSummary(
        samples=config.samples,
        records=agg["records"],
        functions=config.functions,
        min_gap=agg["min_gap"],
        argmin_index=agg["argmin_index"],
        argmin_function=agg["argmin_function"],
        candidate_counterexamples=agg["candidates"],
        monotonicity_violations=agg["mono_violations"],
        per_function=_per_function(agg),
        elapsed=time.perf_counter() - start_time,
    )


def replay_record(path, line_number: int) -> dict:
    """Recompute one record from its own fields and compare bit-for-bit.

    Floats are printed with 17 significant digits, so parsing and equality
    comparison are exact; any mismatch means the stream is not reproducible
    on this build.
    """
    with open(path) as fh:
        # read up to the wanted line only; count the rest just for the error
        line = next(itertools.islice(fh, line_number - 1, None), None) if line_number > 0 else None
        if line is None:
            fh.seek(0)
            raise ValueError(f"line {line_number} out of range 1..{sum(1 for _ in fh)}")
    stored = json.loads(line)
    if stored.get("summary"):
        raise ValueError("the summary line cannot be replayed")
    rspec = RandomSpec(stored["seed"], stored["dim"], stored["ensemble"])
    function = builtin(stored["function"])
    records, _ = evaluate_sample(rspec, stored["index"], stored["n"], (function,))
    fresh = records[0]
    # JSON gives back exactly the printed floats, ints for integral ones
    mismatches = {
        key: (stored[key], fresh[key]) for key in RECORD_FIELDS if stored[key] != fresh[key]
    }
    return {"stored": stored, "recomputed": fresh, "mismatches": mismatches}
