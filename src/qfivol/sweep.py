"""Deterministic exploratory sweeps over random ensembles.

One record is emitted per (sample, function) to a line-delimited file with a
fixed field order and floats printed with 17 significant digits, so records
round-trip bit-exactly and a file is byte-identical across runs and worker
counts.  Work is split into fixed-size chunks (independent of parallelism);
each chunk returns its records as one bytes block per kernel call with its
gap and main-flag arrays, and the parent writes the blocks and folds the
arrays into the summary in chunk order, which keeps even the floating-point
summary stable when the worker count changes.  The fold reduces the arrays
in numpy: a chunk's per-function gap sum is a cumsum, which adds the gaps
left to right on every interpreter, so the summary's bits do not depend on
the Python version (Python's own float ``sum`` changed its algorithm in
3.12).  At parallelism P the parent also evaluates every P-th chunk itself,
beside at most P - 1 worker processes that evaluate the rest, so P counts
every process that evaluates chunks.
The file is written next to its target and renamed onto it once complete.
Wall time is reported on the returned summary object only, never written to
the file.

Worker processes are kept from one sweep to the next; ``run_sweep`` says
when they are forked, reused and shut down.  The pool's modules
(concurrent.futures, multiprocessing, threading) are imported by the first
sweep that forks one, not with the package, since most processes never do.

Every record starts with ``"version": 4`` (``RECORD_VERSION``), its format,
whose fields, in ``RECORD_FIELDS`` order, this module prints from the report
of ``volumes.coordinate_batch``, the one kernel, which also serves the
single-spec API, so a record holds the bits ``check_inequalities`` gives
for its draw.  Records are bytes from a table of whole-line templates, one per
function and flag code, with the sweep's shared fields, the JSON words and
the newline baked in (``_templates``); a kernel call joins the templates
that one numpy array of flag codes picks and fills every line with one
``%`` (``_format_batch``), over values laid out column by column, not record
by record, formatting each sample's ``cov_det`` and ``robertson_det`` once
for all its functions.

One function, ``_lines``, is the route from a draw to record bytes and the
only caller of that table: it draws the samples at some indices, runs the
kernel on them and prints their lines.  A sweep chunk calls it once per
kernel call with a ``range`` of indices, whose draw checks its two ends and
slices its rows (``sampling._normals``), ``evaluate_sample`` parses its
lines, and ``format_record`` prints the one line it gives for a record's
index and function, which is how replay recomputes a record.

Replay reads version 4 only: older records (version 3, which an earlier
kernel wrote, version 2, and unversioned ones drawn from an earlier stream)
are retired, and their lines exit with an error that names their version.
The first replay of a file reads it once to index where each line starts;
later replays of the same unchanged file seek straight to their line.

Ensemble tags are resolved by ``sampling.resolve_ensemble``; records carry
the base tags, and replay compares a record's tag as it is, so a line whose
tag is a CLI alias, which no sweep writes, reports an ``ensemble``
mismatch, and one whose tag resolves to no base tag fails on it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import stat
import time
from array import array
from dataclasses import dataclass

import numpy as np

from .monotone import builtin, require_regular
from .monotone import mean_table  # noqa: F401  bench/tests traces it through this namespace
from .sampling import RandomSpec, as_integer, draw_samples, observable_draw
from .volumes import BatchReport, coordinate_batch, order_pairs

# the format of the records a sweep writes, the "version" each starts with,
# and the only one replay reads
RECORD_VERSION = 4

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
    "robertson_det",
    "main_holds",
    "dependent",
    "equality_consistent",
    "candidate",
)

# fixed regardless of parallelism so record and aggregation order are stable
CHUNK_SIZE = 256
# a chunk's kernel calls take up to KERNEL_BATCH samples each, more while the
# kernel's largest temporary, the (F + 2, B, n, d^2) weighted coordinates of
# volumes.coordinate_grams, stays within KERNEL_FLOATS float64s (512 KiB) (see
# _call_bounds): each call pays the kernel's fixed numpy overhead, while one
# 256-sample call at real d8 n2 with six functions would hold 2 MiB of them;
# records depend on neither.  So a complex d3 n3 chunk with three functions is
# one call, and a real d8 n2 chunk with six is four calls of 64
KERNEL_BATCH = 64
KERNEL_FLOATS = 2**16


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep parameters; functions are kept as parse strings so the
    config stays picklable for worker processes.  Seed, dim and ensemble are
    checked by the RandomSpec they build, n by sampling.observable_draw
    (1..8, 3 for the structured ensemble), function names by monotone.builtin
    and their regularity by monotone.require_regular; only samples,
    parallelism and the function list are checked here."""

    n: int
    dim: int
    samples: int
    functions: tuple
    ensemble: str
    seed: int
    parallelism: int = 1

    def __post_init__(self):
        for name in ("samples", "parallelism"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name), 1))
        if isinstance(self.functions, str) or not self.functions:
            raise ValueError(f"functions must be a non-empty tuple of names, got {self.functions!r}")
        spec = RandomSpec(self.seed, self.dim, self.ensemble)
        for name in ("seed", "dim", "ensemble"):
            object.__setattr__(self, name, getattr(spec, name))
        observable_draw(spec, self.n)
        object.__setattr__(self, "n", int(self.n))
        fids = tuple(require_regular(builtin(fid), "sweep function").fid for fid in self.functions)
        object.__setattr__(self, "functions", fids)
        for k, fid in enumerate(fids):
            if fid in fids[:k]:
                raise ValueError(f"function {fid} is listed twice")


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


def format_record(record: dict) -> str:
    """The line a sweep writes for ``record``'s sample and function, without
    its newline: the one line ``_lines`` prints for the record's own seed,
    ensemble, dim, n, index and function, checked as a sweep checks them.
    The record's seed, dim and ensemble build one RandomSpec, its function
    passes monotone.builtin and require_regular, and its n and index the
    draw's own checks, so a bad field fails as ``<field> must be ...``
    before any normal is drawn.  Aliases and other spellings print the
    canonical names a sweep writes; the record's other fields are
    recomputed, not read."""
    rspec = RandomSpec(record["seed"], record["dim"], record["ensemble"])
    function = require_regular(builtin(record["function"]), "sweep function")
    block, _ = _lines(rspec, [record["index"]], record["n"], (function,))
    return block[:-1].decode()


def _lines(rspec: RandomSpec, indices, n: int, functions) -> tuple[bytes, BatchReport]:
    """The record lines of the samples at ``indices`` of the spec's stream,
    sample-major, then function, as one bytes block, and the kernel's report
    on them.  The one route from a draw to record bytes: sweep chunks,
    evaluate_sample and format_record (and so replay_record) all call it,
    and it alone calls _templates and _format_batch.  The draw checks the
    indices and n before it draws anything."""
    (rho, lam, vectors), observables = draw_samples(rspec, indices, n)
    out = coordinate_batch(rho, lam, vectors, observables, functions)
    templates = _templates(rspec.seed, rspec.ensemble, rspec.dim, n, tuple(f.fid for f in functions))
    return _format_batch(templates, indices, out), out


@functools.lru_cache
def _templates(seed: int, ensemble: str, dim: int, n: int, fids: tuple) -> np.ndarray:
    """An 8 F object array of bytes %-templates of a whole line, the flat
    (F, 2, 2, 2) table indexed by function, main_holds, dependent and
    equality_consistent: function k's template for flag code c = 4
    main_holds + 2 dependent + equality_consistent sits at 8 k + c.  Each
    bakes in the record version, the fields every line of a sweep
    shares, the four JSON words (candidate is not main_holds),
    robertson_det's null for odd n and the trailing newline.  It leaves
    index, cov_det, qfi_det, gap and, for even n, robertson_det; cov_det and
    robertson_det are %s, formatted once per sample.  Floats print with 17
    significant digits so they round-trip."""
    words, rob = ("false", "true"), "%s" if n % 2 == 0 else "null"
    table = np.empty((len(fids), 2, 2, 2), dtype=object)
    for k, fid in enumerate(fids):
        for main, dependent, equal in itertools.product((0, 1), repeat=3):
            table[k, main, dependent, equal] = (
                f'{{"version": {RECORD_VERSION}, "index": %d, "seed": {seed}, "ensemble": "{ensemble}", '
                f'"dim": {dim}, "n": {n}, "function": "{fid}", "cov_det": %s, "qfi_det": %.17g, '
                f'"gap": %.17g, "robertson_det": {rob}, "main_holds": {words[main]}, "dependent": '
                f'{words[dependent]}, "equality_consistent": {words[equal]}, "candidate": {words[not main]}}}\n'
                .encode()
            )
    return table.reshape(-1)


def _format_batch(templates, indices, out: BatchReport) -> bytes:
    """The record lines of a kernel report as one bytes block, sample-major,
    then function: the templates picked by each record's position in the
    table, joined, then one % over every line's values.  A batch's
    positions are one numpy array; a single sample's F positions, as replay
    prints, are read from its flags in Python, which is cheaper than
    numpy's fixed cost per call.  The values are filled column by column
    into one list of B F lines of 4 (odd n) or 5 fields: qfi_det and gap in
    one strided slice each, and the per-sample fields, index (as given, so
    Python ints up to 2**64 - 1 stay exact), cov_det and, for even n,
    robertson_det (both formatted once per sample), in one strided slice
    per function."""
    count = len(out.main_holds)
    if len(indices) == 1:
        dependent = 2 * out.dependent.item(0)
        main, equal = out.main_holds.ravel().tolist(), out.equality_consistent.ravel().tolist()
        starts = range(0, 8 * count, 8)
        picked = [templates[at + 4 * m + dependent + e] for at, m, e in zip(starts, main, equal)]
    else:
        flags = (np.arange(count)[:, None], out.main_holds, out.dependent, out.equality_consistent)
        picked = templates.take(np.ravel_multi_index(flags, (count, 2, 2, 2)).T).ravel().tolist()
    fmt = b"%.17g".__mod__
    width = 4 if out.robertson_det is None else 5
    step = width * count
    values = [None] * (width * len(picked))
    # ravel("F") of an (F, B) array is sample-major
    values[2::width] = out.qfi_det.ravel("F").tolist()
    values[3::width] = out.gap.ravel("F").tolist()
    cov = list(map(fmt, out.cov_det.tolist()))
    rob = None if out.robertson_det is None else list(map(fmt, out.robertson_det.tolist()))
    for k in range(0, step, width):
        values[k::step] = indices
        values[k + 1::step] = cov
        if rob is not None:
            values[k + 4::step] = rob
    return b"".join(picked) % tuple(values)


def evaluate_sample(rspec: RandomSpec, index: int, n: int, functions, order_pairs=()):
    """The records (parsed from their lines) of one sample drawn from the
    spec's stream, one per function, plus its monotonicity violations."""
    block, out = _lines(rspec, [index], n, functions)
    return [json.loads(line) for line in block.splitlines()], int(out.violations(order_pairs)[0])


def _call_bounds(config: SweepConfig, start: int, stop: int) -> list:
    """The bounds of the fewest near-equal kernel calls that cover samples
    start..stop with at most max(KERNEL_BATCH, KERNEL_FLOATS // ((F + 2) n d^2))
    samples each, F the sweep's function count."""
    floats = (len(config.functions) + 2) * config.n * config.dim**2
    per_call = max(KERNEL_BATCH, KERNEL_FLOATS // floats)
    calls = -(-(stop - start) // per_call)
    return [start + (stop - start) * k // calls for k in range(calls + 1)]


def _chunk_worker(args):
    """The record lines of samples start..stop as one bytes block per kernel
    call, their (F, B) gap and main-flag arrays and their monotonicity
    violation count."""
    config, start, stop = args
    functions = tuple(builtin(fid) for fid in config.functions)
    rspec = RandomSpec(config.seed, config.dim, config.ensemble)
    pairs = order_pairs(functions)
    blocks, gap, main, violations = [], [], [], 0
    bounds = _call_bounds(config, start, stop)
    for lo, hi in zip(bounds, bounds[1:]):
        block, out = _lines(rspec, range(lo, hi), config.n, functions)
        blocks.append(block)
        gap.append(out.gap)
        main.append(out.main_holds)
        violations += int(out.violations(pairs).sum())
    return blocks, np.concatenate(gap, axis=1), np.concatenate(main, axis=1), violations


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
    """Write each chunk's blocks and fold its arrays into the summary, in chunk
    order, with numpy reductions over the (F, B) gap array: per-function gap
    sums add each chunk's cumsum total, which adds the chunk's gaps left to
    right on every interpreter, and the argmin keeps the first record
    (sample-major) holding the minimum gap."""
    fids = config.functions
    min_gap, sum_gap = np.full(len(fids), np.inf), np.zeros(len(fids))
    candidates, violations, done = np.zeros(len(fids), dtype=int), 0, 0
    best, argmin_index, argmin_function = np.inf, -1, ""
    for blocks, gap, main, count in parts:
        fh.writelines(blocks)
        min_gap = np.minimum(min_gap, gap.min(axis=1))
        sum_gap += np.cumsum(gap, axis=1)[:, -1]
        s, k = divmod(int(np.argmin(gap.T)), len(fids))
        if gap[k, s] < best:
            best, argmin_index = float(gap[k, s]), done + s
            argmin_function = fids[k]
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
            fid: {"min_gap": lo, "mean_gap": total / config.samples, "candidates": c}
            for fid, lo, total, c in zip(fids, min_gap.tolist(), sum_gap.tolist(), candidates.tolist())
        },
        elapsed=time.perf_counter() - start_time,
    )


# the kept worker pool as (pid of the process that built it, worker count,
# executor), or None; see run_sweep
_pool = None
# the pool's executor class, concurrent.futures.ProcessPoolExecutor once the
# first pool is built (_worker_pool); None until then
ProcessPoolExecutor = None


def _wait_for_parent(sentinel):
    from multiprocessing.connection import wait

    wait([sentinel])
    os._exit(1)


def _exit_with_parent():
    """Pool initializer: a daemon thread ends the worker once its parent is
    gone, since a worker holds its own ends of the pool's pipes and would
    never see them close."""
    import multiprocessing
    import threading

    sentinel = multiprocessing.parent_process().sentinel
    threading.Thread(target=_wait_for_parent, args=(sentinel,), daemon=True).start()


def _close_pool():
    """Forget the kept pool; shut it down, cancelling what it has not started,
    if this process built it (a forked child leaves its parent's pool be)."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None and pool[0] == os.getpid():
        pool[2].shutdown(cancel_futures=True)


def _worker_pool(workers):
    """The kept pool if this process built it with exactly ``workers``
    workers, else a new one built after the kept one is closed."""
    global _pool, ProcessPoolExecutor
    if _pool is None or _pool[:2] != (os.getpid(), workers):
        _close_pool()
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_exit_with_parent)
        _pool = (os.getpid(), workers, pool)
    return _pool[2]


def run_sweep(config: SweepConfig, out_path) -> SweepSummary:
    """Run the sweep, write records plus a summary line, return the summary.

    The file is written as ``OUT.tmp`` next to ``OUT`` and renamed onto it
    after the summary line, so a failed sweep leaves ``OUT`` as it was.

    At parallelism P this process evaluates chunks 0, P, 2P, ... itself; a
    pool of min(P - 1, the chunks it gets) worker processes evaluates the
    others, and is used only if it gets any.  The pool is forked at the first
    sweep that uses it and kept for the next sweep that needs the same
    worker count, so those workers see the module state of fork time; a
    sweep needing another count shuts it down before forking anew, a
    failed sweep shuts it down, and a pool broken while idle is replaced.
    Not for concurrent calls from several threads at P above 1.
    """
    start_time = time.perf_counter()
    chunks = [
        (config, lo, min(lo + CHUNK_SIZE, config.samples))
        for lo in range(0, config.samples, CHUNK_SIZE)
    ]
    step = config.parallelism
    theirs = [chunk for k, chunk in enumerate(chunks) if k % step]
    tmp_path = f"{os.fspath(out_path)}.tmp"
    try:
        with open(tmp_path, "wb") as fh:
            results = iter(())
            if theirs:
                from concurrent.futures.process import BrokenProcessPool

                # a fork-started pool forks all its workers at its first submit
                workers = min(step - 1, len(theirs))
                try:
                    results = _worker_pool(workers).map(_chunk_worker, theirs)
                except BrokenProcessPool:
                    # a kept worker died while idle, so nothing was submitted
                    _close_pool()
                    results = _worker_pool(workers).map(_chunk_worker, theirs)
            parts = (
                next(results) if k % step else _chunk_worker(chunk)
                for k, chunk in enumerate(chunks)
            )
            summary = _fold(config, parts, fh, start_time)
            fh.write(f"{format_summary(config, summary)}\n".encode())
        os.replace(tmp_path, out_path)
    except BaseException:
        # a failed pool may be broken or still busy: the next sweep forks anew
        if theirs:
            _close_pool()
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise
    return summary


# (fstat key, line starts) of the file replay_record read last, or None; see
# _read_line
_line_index = None


def _file_key(st) -> tuple:
    """What must match for a kept line index to be used: the file's identity,
    size and both timestamps (CPython checks only mtime and size for .pyc)."""
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _line_starts(fh) -> array:
    """The offset at which each line of an unread binary file starts, then its
    size, from one streaming pass: 8 bytes a line, never the whole file.  A
    last line without "\n" still counts."""
    return array("q", itertools.accumulate(map(len, fh), initial=0))


def _indexed_line(fd: int, starts, line_number: int, size: int):
    """Line ``line_number`` read at the offsets ``starts`` gives it, or None
    when it is out of their range or the bytes there are not one whole line:
    the byte before is "\n" (or the line starts the file), and the line's
    only "\n" is its last byte (or it ends the file without one)."""
    if not 0 < line_number < len(starts):
        return None
    start, end = starts[line_number - 1], starts[line_number]
    lead = 1 if start else 0
    data = os.pread(fd, end - start + lead, start - lead)
    line = data[lead:]
    whole = (
        len(line) == end - start
        and (not lead or data[0] == 0x0A)
        and line.find(b"\n", 0, len(line) - 1) < 0
        and (line[-1] == 0x0A or end == size)
    )
    return line if whole else None


def _reader(path, fd: int):
    """A buffered binary reader of the open file ``fd``, named ``path``; it
    reads and closes a duplicate of ``fd``, which shares its offset."""
    return open(path, "rb", opener=lambda _path, _flags: os.dup(fd))


def _read_line(path, line_number: int) -> bytes:
    """Line ``line_number`` (from 1) of the file at ``path``, as bytes.

    The file is opened as a bare descriptor.  The first call on a file
    indexes its line starts in one pass and keeps the index, keyed by
    ``_file_key`` of the open file; later calls on the same unchanged file
    are an fstat and one pread of the line, with no file object built.  A
    kept index whose line fails ``_indexed_line``'s checks, or is out of its
    range, is rebuilt once from the same open file.  ``run_sweep`` renames a
    new file onto its path, so a re-swept path gets a new inode and a new
    index.  A file that is not a regular one, such as a pipe, is read up to
    the line on every call and never indexed.
    """
    global _line_index
    fd = os.open(path, os.O_RDONLY)
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            # a pipe can neither seek nor keep an index: read to the line once
            count = 0
            with _reader(path, fd) as fh:
                for count, line in enumerate(fh, 1):
                    if count == line_number:
                        return line
            raise ValueError(f"line {line_number} out of range 1..{count}")
        key = _file_key(st)
        # one read of the slot: another thread may replace it meanwhile
        kept = _line_index
        if kept is not None and kept[0] == key:
            line = _indexed_line(fd, kept[1], line_number, st.st_size)
            if line is not None:
                return line
        # preads leave the offset at 0, where the indexing pass starts
        with _reader(path, fd) as fh:
            starts = _line_starts(fh)
        _line_index = (key, starts)
        line = _indexed_line(fd, starts, line_number, st.st_size)
        if line is None:
            raise ValueError(f"line {line_number} out of range 1..{len(starts) - 1}")
        return line
    finally:
        os.close(fd)


def replay_record(path, line_number: int) -> dict:
    """Recompute one record from its own fields and compare bit-for-bit.

    Floats are printed with 17 significant digits, so parsing and equality
    comparison are exact; any mismatch means the stream is not reproducible
    on this build.  The record must carry every RECORD_FIELDS key and
    ``"version": 4``; older records are retired.  The record is recomputed
    as the line format_record prints for it, whose checks make a bad field
    fail as ``line N: <field> must be ...`` before any normal is drawn.
    The stored line's bytes are compared with the printed line's first:
    equal bytes are a bit-for-bit replay, and only lines that differ, such
    as one written with other spacing, key order or line ending, are
    parsed again and compared field by field, which names every field that
    differs.  Fields are compared as stored, so a tag that the RandomSpec
    resolves to another base tag is an ``ensemble`` mismatch.

    The first call on a file reads it once to index its line starts; later
    calls on the same unchanged file seek straight to their line (see
    ``_read_line``), so checking many lines in one process costs one pass
    over the file in total.
    """
    line_number = as_integer("line_number", line_number)
    # binary, since only the wanted line needs decoding (json.loads takes
    # bytes); an index of line starts, built once per file, finds it
    line = _read_line(path, line_number)
    try:
        stored = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"line {line_number} is not a JSON record: {exc}") from exc
    stored = stored if isinstance(stored, dict) else {}
    if stored.get("summary"):
        raise ValueError("the summary line cannot be replayed")
    missing = [key for key in RECORD_FIELDS if key not in stored]
    if missing:
        raise ValueError(f"line {line_number} is not a sweep record: missing {', '.join(missing)}")
    version = stored.get("version")
    # exact type: JSON gives bool for true and float for 3.0, which equal ints
    if type(version) is not int or version != RECORD_VERSION:
        found = repr(version) if "version" in stored else "no version field"
        raise ValueError(f"line {line_number}: version must be {RECORD_VERSION}, got {found} "
                         f"(records before version {RECORD_VERSION} are retired)")
    try:
        # each check refuses JSON's true, false and 3.0 as integers, before
        # any normal is drawn
        printed = format_record(stored)
    except ValueError as exc:
        raise ValueError(f"line {line_number}: {exc}") from exc
    if line == f"{printed}\n".encode():
        # the same bytes parse to the same values: nothing to compare
        return {"stored": stored, "recomputed": dict(stored), "mismatches": {}}
    # JSON gives back exactly the printed floats, ints for integral ones
    fresh = json.loads(printed)
    mismatches = {k: (stored[k], fresh[k]) for k in RECORD_FIELDS if stored[k] != fresh[k]}
    return {"stored": stored, "recomputed": fresh, "mismatches": mismatches}
