"""Tests for the deterministic bulk sweep and its record replay machinery."""

import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from qfivol import (
    SLD,
    GramSpec,
    RandomSpec,
    SweepConfig,
    builtin,
    check_inequalities,
    cli,
    observables_dependent,
    regular_builtins,
    replay_record,
    robertson_bound,
    run_sweep,
    sweep,
    volume_gap,
)
from qfivol.sampling import resolve_ensemble, sample_observables, sample_state
from qfivol.sweep import evaluate_sample, format_record
from qfivol.volumes import BatchReport, order_pairs

# sha256 of 300-sample, seed-7 sweep files of record version 4 on stream
# v2, as the batched kernel writes them.  The digests belong to one
# numpy/LAPACK build (numpy 2.4.6 with scipy-openblas 0.3.31 on x86-64);
# another build may round differently, and then this guard fails by design.
SWEEP_DIGESTS = {
    ("complex", 3, 3, "sld,wy,wyd:0.25"):
        "62a90fa91f597fc59f9da8bf9b9119273c01178a0fec6d1638bae28ccc50d6ef",
    ("real", 8, 2, "sld,wy,wyd:0.05,wyd:0.1,wyd:0.25,wyd:0.4"):
        "b629ba3238befcb088d1c4d80bd9c2bc0f84962ce5edad4bf05cb6af17ebface",
    ("structured", 4, 3, "sld,wy"):
        "376a61584315f620f8adc7292dbee7b3bd8b27fb0b63a41888b19eaeb34aeb8d",
    # the one config with even n and a nonzero Robertson determinant
    ("complex", 8, 4, "sld,wy"):
        "a73d85ab1bd88bee621bb47e54153f5f9c9c0f63ffcedfbeab72963aee94a0bc",
}


def _config(**overrides):
    base = dict(
        seed=123,
        dim=2,
        n=1,
        samples=30,
        functions=("sld",),
        ensemble="complex",
        parallelism=1,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_resolve_ensemble_aliases():
    assert resolve_ensemble("complex") == "density"
    assert resolve_ensemble("real") == "real-density"
    assert resolve_ensemble("structured") == "pauli-like-structured"
    assert resolve_ensemble("density") == "density"
    assert resolve_ensemble(" Real ") == "real-density"
    with pytest.raises(ValueError, match="unknown ensemble 'density\\+complex-hermitian'"):
        resolve_ensemble("density+complex-hermitian")
    with pytest.raises(ValueError, match="ensemble"):
        resolve_ensemble("bogus")


def test_config_validation():
    with pytest.raises(ValueError, match="n must be in 1..8"):
        _config(n=9)
    with pytest.raises(ValueError, match="n must be in 1..8"):
        _config(n=0)
    with pytest.raises(ValueError, match="samples"):
        _config(samples=0)
    with pytest.raises(ValueError, match="parallelism"):
        _config(parallelism=0)
    with pytest.raises(ValueError, match="function"):
        _config(functions=())
    with pytest.raises(ValueError, match="regular"):
        _config(functions=("rld",))
    with pytest.raises(ValueError, match="structured"):
        _config(ensemble="structured", n=2)
    with pytest.raises(ValueError, match="dim"):
        _config(dim=1)
    # two spellings of one function would write its records twice per sample
    with pytest.raises(ValueError, match="wyd:0.25 is listed twice"):
        _config(functions=("sld", "wyd:.25", "wyd:0.25"))


@pytest.mark.parametrize(
    "field,value",
    [(field, value) for field in ("n", "dim", "samples", "seed", "parallelism")
     for value in (True, 3.0)],
)
def test_config_rejects_bool_and_non_integral_fields(tmp_path, field, value):
    """A bool would be written as "seed": True, which no JSON reader parses,
    and a float would fail deep inside the draw."""
    out = tmp_path / "sweep.jsonl"
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        run_sweep(_config(**{field: value}), out)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "functions,message",
    [((3,), "function must be a string, got 3"),
     # a string would be iterated one character at a time
     ("sld,wy", "functions must be a non-empty tuple of names, got 'sld,wy'")],
)
def test_config_rejects_mistyped_functions(functions, message):
    with pytest.raises(ValueError) as info:
        _config(functions=functions)
    assert str(info.value) == message


def test_config_takes_numpy_integers(tmp_path):
    fields = dict(n=2, dim=3, samples=5, seed=9, parallelism=1)
    config = _config(**{key: np.int64(value) for key, value in fields.items()})
    assert all(type(getattr(config, key)) is int for key in fields)
    run_sweep(config, tmp_path / "numpy.jsonl")
    run_sweep(_config(**fields), tmp_path / "int.jsonl")
    assert (tmp_path / "numpy.jsonl").read_bytes() == (tmp_path / "int.jsonl").read_bytes()


def test_config_canonicalizes_tags():
    config = _config(functions=("SLD", "Wy"), ensemble="real")
    assert config.functions == ("sld", "wy")
    assert config.ensemble == "real-density"
    with pytest.raises(ValueError, match="unknown ensemble 'complex-hermitian'"):
        _config(ensemble="complex-hermitian")


def test_format_record_round_trips_as_json():
    rspec = RandomSpec(123, 3, "density")
    records, _ = evaluate_sample(rspec, 7, 2, (builtin("wy"),))
    line = format_record(records[0])
    parsed = json.loads(line)
    assert parsed["index"] == 7
    assert parsed["function"] == "wy"
    assert isinstance(parsed["candidate"], bool)
    assert '"candidate": false' in line or '"candidate": true' in line
    assert '"candidate": 0' not in line
    assert line.index('"index"') < line.index('"gap"') < line.index('"candidate"')
    assert line.startswith('{"version": 4, "index": 7, ')


@pytest.mark.parametrize(
    "field,value,message",
    [
        pytest.param(
            "ensemble", 'a"b', "unknown ensemble 'a\"b'", id='ensemble-a"b-ensemble unknown'
        ),
        ("function", "w%y", "unknown function 'w%y'"),
        ("function", "wyd:\t0.25", "unknown function 'wyd:\\t0.25'"),
    ],
)
def test_format_record_refuses_strings_its_template_cannot_write(field, value, message):
    """A name that RandomSpec or monotone.builtin rejects is refused with
    their message, so no printed line holds a quote, a % or a control
    character."""
    records, _ = evaluate_sample(RandomSpec(123, 3, "density"), 7, 2, (builtin("wy"),))
    with pytest.raises(ValueError) as info:
        format_record(dict(records[0], **{field: value}))
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "field,value,canonical",
    [
        ("ensemble", "complex", "density"),
        ("ensemble", "density\n", "density"),
        ("function", "SLD", "sld"),
        ("function", "sld\n", "sld"),
        ("function", "wy\t", "wy"),
    ],
)
def test_format_record_prints_canonical_names(field, value, canonical):
    """An alias or another spelling of a name prints the line of its
    canonical name, as ``qfivol sweep --ensemble complex`` writes it."""
    rspec = RandomSpec(123, 3, "density")
    function = builtin(canonical if field == "function" else "wy")
    records, _ = evaluate_sample(rspec, 7, 2, (function,))
    line = format_record(dict(records[0], **{field: value}))
    assert json.loads(line)[field] == canonical
    assert line == format_record(records[0])


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("seed", 5.0, "seed must be an integer, got 5.0"),
        ("seed", True, "seed must be an integer, got True"),
        ("dim", True, "dim must be an integer, got True"),
        ("n", True, "n must be an integer, got True"),
        ("function", "rld", "sweep function must be regular (f(0) > 0), got rld"),
    ],
)
def test_format_record_refuses_what_replay_refuses(field, value, message):
    """The record's fields pass RandomSpec, observable_draw and
    require_regular, so format_record never prints a line that replay would
    refuse or that is not JSON."""
    records, _ = evaluate_sample(RandomSpec(123, 3, "density"), 7, 2, (builtin("wy"),))
    with pytest.raises(ValueError) as info:
        format_record(dict(records[0], **{field: value}))
    assert str(info.value) == message


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("n", [3, 4], ids=["odd-n", "even-n"])
def test_format_record_prints_every_sweep_line(tmp_path, n, parallelism):
    """Every record of a sweep formats back to its own line, and replay of
    those lines, written by format_record, reports no mismatch."""
    config = _config(n=n, dim=3, samples=300, functions=("sld", "wy"), parallelism=parallelism)
    run_sweep(config, tmp_path / "sweep.jsonl")
    lines = (tmp_path / "sweep.jsonl").read_text().splitlines()[:-1]
    printed = [format_record(json.loads(line)) for line in lines]
    assert printed == lines
    (tmp_path / "printed.jsonl").write_text("".join(f"{line}\n" for line in printed))
    for number in range(1, len(printed) + 1):
        assert replay_record(tmp_path / "printed.jsonl", number)["mismatches"] == {}


@pytest.mark.parametrize(
    "ensemble,dim,n,functions",
    [
        ("complex", 3, 3, "sld,wy,wyd:0.25"),
        ("real", 8, 2, "sld,wy,wyd:0.4"),
        ("structured", 4, 3, "sld,wy"),
    ],
)
def test_format_record_matches_sweep_lines(tmp_path, ensemble, dim, n, functions):
    """The single-record formatter writes the bytes of the sweep's own line
    for each (index, function): against a 256-sample kernel call (complex d3
    n3), 64-sample calls (real d8 n2), 128-sample calls (structured d4 n3) and
    a partial last chunk."""
    config = _config(
        ensemble=ensemble, dim=dim, n=n, samples=300, functions=tuple(functions.split(","))
    )
    out = tmp_path / "sweep.jsonl"
    run_sweep(config, out)
    lines = out.read_text().splitlines()
    rspec = RandomSpec(config.seed, dim, config.ensemble)
    for index in (0, 63, 64, 255, 256, 299):
        records, _ = evaluate_sample(rspec, index, n, tuple(map(builtin, config.functions)))
        for k, record in enumerate(records):
            assert format_record(record) == lines[index * len(records) + k]


# The str formatter that wrote records before they were written as bytes,
# kept as the oracle the bytes formatter must match line for line.
_ORACLE_WORDS = {True: "true", False: "false"}


def _oracle_templates(seed, ensemble, dim, n, fids):
    return [
        f'{{"version": 4, "index": %d, "seed": {seed}, "ensemble": "{ensemble}", '
        f'"dim": {dim}, "n": {n}, "function": "{fid}", "cov_det": %s, "qfi_det": %.17g, '
        '"gap": %.17g, "robertson_det": %s, "main_holds": %s, "dependent": %s, '
        '"equality_consistent": %s, "candidate": %s}'
        for fid in fids
    ]


def _oracle_format_batch(templates, indices, out):
    words = _ORACLE_WORDS.__getitem__
    cov = ["%.17g" % x for x in out.cov_det.tolist()]
    rob = (
        ["null"] * len(cov) if out.robertson_det is None
        else ["%.17g" % x for x in out.robertson_det.tolist()]
    )
    dependent = list(map(words, out.dependent.tolist()))
    columns = [
        map(template.__mod__, zip(
            indices, cov, qfi_det, gap, rob, map(words, main), dependent, map(words, equal),
            [words(not m) for m in main],
        ))
        for template, qfi_det, gap, main, equal in zip(
            templates, out.qfi_det.tolist(), out.gap.tolist(),
            out.main_holds.tolist(), out.equality_consistent.tolist(),
        )
    ]
    return [line for sample in zip(*columns) for line in sample]


_EDGE_FLOATS = (-0.0, 5e-324, 1.7976931348623157e308, -1e-300, 2.0, -2.5e-17, -3.0)


def _synthetic_report(n, count, batch, shift):
    """A report of ``batch`` samples and ``count`` functions whose flag code
    4 main_holds + 2 dependent + equality_consistent is ``shift`` at sample
    0, function 0, so the 8 shifts cover all 8 codes even at one sample and
    one function; every float is drawn from the edge values or a random
    pool, negative gaps included."""
    rng = np.random.default_rng(shift)
    pool = np.concatenate([_EDGE_FLOATS, rng.standard_normal(9) * 10.0 ** rng.integers(-200, 200, 9)])
    s, k = np.arange(batch), np.arange(count)[:, None]
    code = (s + k + shift) % 8
    return BatchReport(
        cov_gram=None, qfi_gram=None,
        cov_det=pool[(s + shift) % len(pool)],
        qfi_det=pool[(3 * s + k + shift + 1) % len(pool)],
        gap=pool[(5 * s + 2 * k + shift + 2) % len(pool)],
        scale=None, volume_qfi=None,
        robertson_det=None if n % 2 else pool[(7 * s + shift + 3) % len(pool)],
        dependent=((s + shift) % 8 & 2).astype(bool),
        main_holds=(code & 4).astype(bool),
        equality_consistent=(code & 1).astype(bool),
        rank_deficient=False,
    )


@pytest.mark.parametrize("n", [3, 4], ids=["odd-n", "even-n"])
@pytest.mark.parametrize("count", [1, 6])
@pytest.mark.parametrize("batch", [1, 256])
def test_format_batch_matches_the_str_oracle(n, count, batch):
    """Every bytes line equals the oracle's line plus its newline and parses
    back to the report's values, over all 8 flag codes, extreme floats and
    numpy-integer indices up to 2^64 - 1."""
    fids = ("sld", "wy", "wyd:0.05", "wyd:0.1", "wyd:0.25", "wyd:0.4")[:count]
    templates = sweep._templates(7, "complex", 3, n, fids)
    oracle = _oracle_templates(7, "complex", 3, n, fids)
    indices = np.uint64(2**64 - 1) - np.arange(batch, dtype=np.uint64)
    codes = set()
    for shift in range(8):
        out = _synthetic_report(n, count, batch, shift)
        lines = sweep._format_batch(templates, indices, out).splitlines(keepends=True)
        expected = _oracle_format_batch(oracle, indices, out)
        assert len(lines) == batch * count
        for line, old in zip(lines, expected):
            assert line == f"{old}\n".encode()
        for j, line in enumerate(lines):
            s, k = divmod(j, count)
            record = json.loads(line)
            main, dependent = bool(out.main_holds[k, s]), bool(out.dependent[s])
            equal = bool(out.equality_consistent[k, s])
            codes.add(4 * main + 2 * dependent + equal)
            rob = None if n % 2 else out.robertson_det[s]
            assert (record["index"], record["function"]) == (int(indices[s]), fids[k])
            assert record["cov_det"] == out.cov_det[s] and record["robertson_det"] == rob
            assert (record["qfi_det"], record["gap"]) == (out.qfi_det[k, s], out.gap[k, s])
            assert (record["main_holds"], record["dependent"]) == (main, dependent)
            assert (record["equality_consistent"], record["candidate"]) == (equal, not main)
    assert codes == set(range(8))


# The per-record printer that wrote every version-4 line before the flag codes
# and values were built column by column: nested template tuples indexed by
# function then flag code, and one comprehension over records.
def _reference_templates(seed, ensemble, dim, n, fids):
    words, rob = ("false", "true"), "%s" if n % 2 == 0 else "null"
    return tuple(
        tuple(
            f'{{"version": 4, "index": %d, "seed": {seed}, "ensemble": "{ensemble}", '
            f'"dim": {dim}, "n": {n}, "function": "{fid}", "cov_det": %s, "qfi_det": %.17g, '
            f'"gap": %.17g, "robertson_det": {rob}, "main_holds": {words[main]}, "dependent": '
            f'{words[dependent]}, "equality_consistent": {words[equal]}, "candidate": {words[not main]}}}\n'
            .encode()
            for main, dependent, equal in itertools.product((False, True), repeat=3)
        )
        for fid in fids
    )


def _reference_format_batch(templates, indices, out):
    cov = [b"%.17g" % x for x in out.cov_det.tolist()]
    qfi, gap, functions = out.qfi_det.T.tolist(), out.gap.T.tolist(), range(len(templates))
    flags = zip(out.main_holds.T.tolist(), out.dependent.tolist(), out.equality_consistent.T.tolist())
    block = b"".join([templates[k][4 * m[k] + 2 * d + e[k]] for m, d, e in flags for k in functions])
    if out.robertson_det is None:
        rows = zip(indices, cov, qfi, gap)
        values = [x for i, c, q, g in rows for k in functions for x in (i, c, q[k], g[k])]
    else:
        rows = zip(indices, cov, qfi, gap, [b"%.17g" % x for x in out.robertson_det.tolist()])
        values = [x for i, c, q, g, r in rows for k in functions for x in (i, c, q[k], g[k], r)]
    return block % tuple(values)


@pytest.mark.parametrize("n", [3, 4], ids=["odd-n", "even-n"])
@pytest.mark.parametrize("count", [1, 3, 6])
@pytest.mark.parametrize("batch", [1, 7, 64, 256])
def test_format_batch_matches_the_per_record_printer(n, count, batch):
    """The column-wise printer gives the per-record printer's bytes for every
    flag code, at batch sizes a replay, a sweep tail and both sweep kernel
    calls use, with Python-int indices on both sides of 2**63 and up to
    2**64 - 1, as ranges and as lists.  numpy reads range(2**63 - 2,
    2**63 + 1) as float64, so a printer that went through np.asarray would
    print those indices wrong."""
    fids = ("sld", "wy", "wyd:0.05", "wyd:0.1", "wyd:0.25", "wyd:0.4")[:count]
    templates = sweep._templates(11, "real-density", 8, n, fids)
    reference = _reference_templates(11, "real-density", 8, n, fids)
    starts = (0, 2**63 - 1 - batch // 2, 2**64 - batch)
    codes = set()
    for shift in range(8):
        out = _synthetic_report(n, count, batch, shift)
        codes |= set((4 * out.main_holds + 2 * out.dependent + out.equality_consistent).ravel().tolist())
        for start in starts:
            for indices in (range(start, start + batch), list(range(start, start + batch))):
                block = sweep._format_batch(templates, indices, out)
                assert block == _reference_format_batch(reference, indices, out)
        lines = block.splitlines()
        assert [json.loads(line)["index"] for line in lines[::count]] == list(range(2**64 - batch, 2**64))
    assert codes == set(range(8))


def test_template_tables_do_not_leak_between_configs(tmp_path):
    """Sweeps, evaluate_sample and format_record on configs that differ from
    one base config in exactly one shared field, interleaved in one process,
    each write their own config's fields on every line."""
    base = dict(seed=5, ensemble="complex", dim=3, n=2, functions=("sld", "wy"))
    variants = [
        base, dict(base, seed=6), dict(base, ensemble="real"), dict(base, dim=4),
        dict(base, n=3), dict(base, functions=("sld", "wyd:0.25")), dict(base, functions=("wy", "sld")),
    ]
    configs = [_config(samples=4, **variant) for variant in variants]
    files = []
    for k, config in enumerate(configs):
        run_sweep(config, tmp_path / f"{k}.jsonl")
        files.append((tmp_path / f"{k}.jsonl").read_text().splitlines()[:-1])

    def check(config, record):
        shared = {key: getattr(config, key) for key in ("seed", "ensemble", "dim", "n")}
        assert {key: record[key] for key in shared} == shared
        assert (record["robertson_det"] is None) == (config.n % 2 == 1)

    for config, lines in zip(configs, files):
        records = [json.loads(line) for line in lines]
        assert [r["function"] for r in records] == list(config.functions) * config.samples
        for record in records:
            check(config, record)
    for config, lines in zip(configs, files):
        rspec = RandomSpec(config.seed, config.dim, config.ensemble)
        records, _ = evaluate_sample(rspec, 3, config.n, tuple(map(builtin, config.functions)))
        assert [r["function"] for r in records] == list(config.functions)
        for k, record in enumerate(records):
            check(config, record)
            assert format_record(record) == lines[3 * len(config.functions) + k]
    # seeds 5 and 5.0 hash alike, and 5.0 is refused as replay refuses it
    record = json.loads(files[0][0])
    with pytest.raises(ValueError, match="seed must be an integer, got 5.0"):
        format_record(dict(record, seed=5.0))
    assert format_record(record) == files[0][0]


def test_order_pairs_covers_the_chain():
    pairs = order_pairs(regular_builtins())
    assert pairs == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_order_pairs_detects_equality_both_ways():
    f = builtin("sld")
    assert order_pairs((f, f)) == ((0, 1), (1, 0))


def test_evaluate_sample_fields():
    rspec = RandomSpec(123, 3, "density")
    functions = (builtin("sld"), builtin("wy"))
    records, violations = evaluate_sample(rspec, 0, 2, functions)
    assert violations == 0
    assert [r["function"] for r in records] == ["sld", "wy"]
    for record in records:
        assert record["n"] == 2
        assert record["dim"] == 3
        assert record["ensemble"] == "density"
        assert record["robertson_det"] is not None
        assert record["cov_det"] >= record["qfi_det"] - 1e-10
        assert record["main_holds"] is True
    odd, _ = evaluate_sample(rspec, 0, 1, functions[:1])
    assert odd[0]["robertson_det"] is None


@pytest.mark.parametrize(
    "index,message",
    [(True, "index must be an integer, got True"),
     (2.0, "index must be an integer, got 2.0"),
     (-1, "index must be in 0..18446744073709551615, got -1"),
     (2**64, "index must be in 0..18446744073709551615, got 18446744073709551616")],
)
def test_evaluate_sample_checks_its_index(no_normals, index, message):
    """True would draw sample 1 and record it as index 1; 2.0 names no sample."""
    with pytest.raises(ValueError) as info:
        evaluate_sample(RandomSpec(3, 2, "density"), index, 2, (builtin("wy"),))
    assert str(info.value) == message


@pytest.mark.parametrize("index", [np.uint64(2**64 - 1), np.int64(5)])
def test_a_numpy_index_prints_the_records_of_its_int(index):
    """A numpy start prints as the Python int it holds, with no wrap at
    2**64 - 1."""
    rspec, functions = RandomSpec(3, 2, "density"), (builtin("wy"), builtin("sld"))
    records, _ = evaluate_sample(rspec, index, 2, functions)
    assert records == evaluate_sample(rspec, int(index), 2, functions)[0]
    assert [record["index"] for record in records] == [int(index)] * 2


def test_evaluate_sample_counts_monotonicity_violations():
    """The ordered chain never breaks on real triples, and flipping a pair
    direction makes the same samples register as violations."""
    rspec = RandomSpec(123, 3, "real-density")
    functions = (builtin("sld"), builtin("wy"))
    for index in range(20):
        _, violations = evaluate_sample(rspec, index, 3, functions, ((0, 1),))
        assert violations == 0
        _, flipped = evaluate_sample(rspec, index, 3, functions, ((1, 0),))
        assert flipped in (0, 1)


def test_sweep_output_independent_of_parallelism(tmp_path):
    # 600 samples spans three chunks: at parallelism 2 the parent evaluates
    # chunks 0 and 2 and one worker chunk 1; at 3 each process evaluates one
    config = _config(samples=600)
    serial = tmp_path / "serial.jsonl"
    summary_one = run_sweep(config, serial)
    for parallelism in (2, 3):
        parallel = tmp_path / f"parallel-{parallelism}.jsonl"
        summary = run_sweep(dataclasses.replace(config, parallelism=parallelism), parallel)
        assert serial.read_bytes() == parallel.read_bytes()
        assert dataclasses.replace(summary_one, elapsed=0.0) == dataclasses.replace(
            summary, elapsed=0.0
        )


@pytest.fixture
def thread_pools(monkeypatch):
    """Stands a thread pool in for sweep's ProcessPoolExecutor, so a test can
    see which thread evaluates a chunk; returns a list recording each pool's
    max_workers and the cancel_futures of each shutdown.  The initializer is
    kept on the pool as ``initializer`` and never run: it is meant for worker
    processes."""
    pools = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers, initializer=None):
            self.record = {"max_workers": max_workers, "cancel_futures": None}
            self.initializer = initializer
            pools.append(self.record)
            super().__init__(max_workers)

        def shutdown(self, wait=True, *, cancel_futures=False):
            self.record["cancel_futures"] = cancel_futures
            super().shutdown(wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", Pool)
    return pools


@pytest.mark.parametrize(
    "samples,parallelism,workers",
    [(300, 64, [1]), (256, 4, []), (1, 2, []), (600, 2, [1]), (600, 3, [2]), (600, 8, [2])],
)
def test_sweep_forks_no_more_workers_than_worker_chunks(
    tmp_path, thread_pools, samples, parallelism, workers
):
    """The parent keeps chunks 0, P, 2P, ...; the pool gets min(P - 1, the
    other chunks) workers, and no pool is built when it would get no chunk."""
    run_sweep(_config(samples=samples, parallelism=parallelism), tmp_path / "out.jsonl")
    assert [pool["max_workers"] for pool in thread_pools] == workers
    sweep._close_pool()
    assert all(pool["cancel_futures"] is True for pool in thread_pools)


@pytest.mark.parametrize("parallelism,parents", [(1, [0, 256, 512]), (2, [0, 512]), (3, [0])])
def test_parent_evaluates_every_pth_chunk(tmp_path, monkeypatch, thread_pools, parallelism, parents):
    evaluated = []
    chunk_worker = sweep._chunk_worker

    def recording(args):
        evaluated.append((args[1], threading.current_thread() is threading.main_thread()))
        return chunk_worker(args)

    monkeypatch.setattr(sweep, "_chunk_worker", recording)
    config = _config(samples=600, parallelism=parallelism)
    run_sweep(config, tmp_path / "out.jsonl")
    assert [start for start, on_parent in evaluated if on_parent] == parents
    assert sorted(start for start, _ in evaluated) == [0, 256, 512]


def test_a_failing_parent_chunk_cancels_the_pool(tmp_path, monkeypatch, thread_pools):
    chunk_worker = sweep._chunk_worker

    def failing_on_parent(args):
        if threading.current_thread() is threading.main_thread():
            raise RuntimeError(f"chunk at {args[1]} failed")
        return chunk_worker(args)

    monkeypatch.setattr(sweep, "_chunk_worker", failing_on_parent)
    monkeypatch.setattr(sweep, "CHUNK_SIZE", 10)
    out = tmp_path / "out.jsonl"
    with pytest.raises(RuntimeError, match="chunk at 0 failed"):
        run_sweep(_config(samples=60, parallelism=2), out)
    assert thread_pools == [{"max_workers": 1, "cancel_futures": True}]
    assert not out.exists()
    assert not (tmp_path / "out.jsonl.tmp").exists()


def test_consecutive_sweeps_keep_one_pool_per_worker_count(tmp_path, monkeypatch, thread_pools):
    """Three 600-sample sweeps at P = 2 share one 1-worker pool; P = 3 shuts it
    down before building a 2-worker pool, and a one-chunk sweep leaves that
    pool alone."""
    for k in range(3):
        run_sweep(_config(samples=600, parallelism=2), tmp_path / f"p2-{k}.jsonl")
    assert thread_pools == [{"max_workers": 1, "cancel_futures": None}]
    assert sweep._pool[2].initializer is sweep._exit_with_parent
    pool_class = sweep.ProcessPoolExecutor

    def after_every_shutdown(*args, **kwargs):
        assert all(pool["cancel_futures"] is True for pool in thread_pools)
        return pool_class(*args, **kwargs)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", after_every_shutdown)
    run_sweep(_config(samples=600, parallelism=3), tmp_path / "p3.jsonl")
    assert thread_pools == [
        {"max_workers": 1, "cancel_futures": True},
        {"max_workers": 2, "cancel_futures": None},
    ]
    kept = sweep._pool
    run_sweep(_config(samples=256, parallelism=4), tmp_path / "p4.jsonl")
    assert sweep._pool is kept
    assert len(thread_pools) == 2 and thread_pools[1]["cancel_futures"] is None


def test_a_failing_worker_chunk_drops_the_kept_pool(tmp_path, monkeypatch, thread_pools):
    config = _config(samples=600, parallelism=2)
    serial = tmp_path / "serial.jsonl"
    run_sweep(dataclasses.replace(config, parallelism=1), serial)
    chunk_worker = sweep._chunk_worker

    def failing_off_parent(args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(f"chunk at {args[1]} failed")
        return chunk_worker(args)

    monkeypatch.setattr(sweep, "_chunk_worker", failing_off_parent)
    with pytest.raises(RuntimeError, match="chunk at 256 failed"):
        run_sweep(config, tmp_path / "out.jsonl")
    assert sweep._pool is None
    assert thread_pools == [{"max_workers": 1, "cancel_futures": True}]
    monkeypatch.setattr(sweep, "_chunk_worker", chunk_worker)
    run_sweep(config, tmp_path / "out.jsonl")
    assert [pool["max_workers"] for pool in thread_pools] == [1, 1]
    assert (tmp_path / "out.jsonl").read_bytes() == serial.read_bytes()


def test_a_kept_worker_killed_while_idle_is_replaced(tmp_path):
    config = _config(samples=600, parallelism=2)
    serial = tmp_path / "serial.jsonl"
    run_sweep(dataclasses.replace(config, parallelism=1), serial)
    run_sweep(config, tmp_path / "out.jsonl")
    kept = sweep._pool
    (worker,) = multiprocessing.active_children()
    os.kill(worker.pid, signal.SIGKILL)
    deadline = time.monotonic() + 5
    while not kept[2]._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    run_sweep(config, tmp_path / "out.jsonl")
    assert sweep._pool is not kept
    assert (tmp_path / "out.jsonl").read_bytes() == serial.read_bytes()


def _sweep_in_forked_child(config, out):
    """Body of a fork-started child: sweep with a pool of its own, then close it."""
    inherited = sweep._pool
    run_sweep(config, out)
    assert sweep._pool is not inherited and sweep._pool[0] == os.getpid()
    sweep._close_pool()


def test_a_forked_child_builds_its_own_pool(tmp_path):
    """A fork-started child sweeps with its own workers and leaves the
    parent's kept pool to serve the parent's next sweep."""
    config = _config(samples=600, parallelism=2)
    serial = tmp_path / "serial.jsonl"
    run_sweep(dataclasses.replace(config, parallelism=1), serial)
    run_sweep(config, tmp_path / "parent-1.jsonl")
    kept = sweep._pool
    child = multiprocessing.get_context("fork").Process(
        target=_sweep_in_forked_child, args=(config, tmp_path / "child.jsonl")
    )
    child.start()
    child.join(timeout=60)
    assert child.exitcode == 0
    assert (tmp_path / "child.jsonl").read_bytes() == serial.read_bytes()
    run_sweep(config, tmp_path / "parent-2.jsonl")
    assert sweep._pool is kept
    assert (tmp_path / "parent-2.jsonl").read_bytes() == serial.read_bytes()


# a child process that sweeps at P = 2 (or P = 3 given "3") and prints the
# pids of its workers; with "long" it then starts a sweep of many seconds
_SWEEPING_CHILD = """
import multiprocessing, sys
from qfivol import SweepConfig, run_sweep
out, parallelism, then = sys.argv[1], int(sys.argv[2]), sys.argv[3]
config = SweepConfig(n=1, dim=2, samples=600, functions=("sld",), ensemble="complex",
                     seed=5, parallelism=parallelism)
for _ in range(2):
    run_sweep(config, out)
print(" ".join(str(p.pid) for p in multiprocessing.active_children()), flush=True)
if then == "long":
    run_sweep(SweepConfig(n=2, dim=3, samples=10**6, functions=("sld",), ensemble="complex",
                          seed=5, parallelism=parallelism), out)
"""


def _child_env():
    """This environment with the checkout's package first on PYTHONPATH."""
    pythonpath = os.environ.get("PYTHONPATH")
    src = str(Path(sweep.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src + os.pathsep + pythonpath if pythonpath else src)


def _sweeping_child(tmp_path, parallelism, then):
    return subprocess.Popen(
        [sys.executable, "-c", _SWEEPING_CHILD, str(tmp_path / "out.jsonl"), str(parallelism), then],
        stdout=subprocess.PIPE, text=True, env=_child_env(),
    )


def _gone(pid, seconds=5.0):
    """Whether ``pid`` leaves /proc, or is left a zombie, within ``seconds``."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                # the state follows the parenthesised command name
                if fh.read().rsplit(")", 1)[1].split()[0] in "ZX":
                    return True
        except FileNotFoundError:
            return True
        time.sleep(0.05)
    return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_exit_when_their_sweep_process_is_killed(tmp_path):
    child = _sweeping_child(tmp_path, 2, "long")
    try:
        pids = [int(pid) for pid in child.stdout.readline().split()]
        assert pids, "no kept worker after a P = 2 sweep"
        time.sleep(0.5)  # well into the long sweep
        child.kill()
        child.wait(timeout=30)
    finally:
        child.kill()
        child.stdout.close()
    assert [pid for pid in pids if not _gone(pid)] == []


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_exit_with_a_sweep_process_that_exits(tmp_path):
    child = _sweeping_child(tmp_path, 3, "exit")
    try:
        pids = [int(pid) for pid in child.stdout.readline().split()]
        assert child.wait(timeout=60) == 0
    finally:
        child.kill()
        child.stdout.close()
    assert len(pids) == 2
    assert [pid for pid in pids if not _gone(pid)] == []


_POOL_MODULES = ("concurrent.futures", "multiprocessing")

# a child process that prints which of _POOL_MODULES it has loaded after
# importing qfivol and running a serial sweep, a replay and a check, then
# again after a two-chunk sweep at P = 2, whose second chunk a worker takes
_LOADING_CHILD = f"""
import json, sys
from qfivol import SLD, WY, GramSpec, RandomSpec, SweepConfig, check_inequalities, replay_record, run_sweep, sweep
from qfivol.sampling import sample_observables, sample_state
serial, parallel = sys.argv[1:]
loaded = lambda: [name for name in {_POOL_MODULES!r} if name in sys.modules]
config = dict(n=2, dim=3, samples=300, functions=("sld", "wy"), ensemble="complex", seed=7)
run_sweep(SweepConfig(**config), serial)
replay_record(serial, 3)
rspec = RandomSpec(7, 3, "complex")
check_inequalities(GramSpec(sample_state(rspec, 0), sample_observables(rspec, 0, 2), WY), partner=SLD)
before = loaded()
run_sweep(SweepConfig(**config, parallelism=2), parallel)
sweep._close_pool()
print(json.dumps([before, loaded()]))
"""


def test_the_worker_pool_modules_load_with_the_first_sweep_that_forks(tmp_path):
    """import qfivol, a serial sweep, a replay and a check leave
    concurrent.futures and multiprocessing unloaded; the first sweep that
    gives the pool a chunk loads them and writes the serial bytes.  A fresh
    interpreter, since this one has loaded both already."""
    serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
    result = subprocess.run(
        [sys.executable, "-c", _LOADING_CHILD, str(serial), str(parallel)],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[], list(_POOL_MODULES)]
    assert parallel.read_bytes() == serial.read_bytes()


def test_sweep_repeated_run_is_byte_identical(tmp_path):
    config = _config(samples=50, n=2, functions=("sld", "wy"))
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    run_sweep(config, first)
    run_sweep(config, second)
    assert first.read_bytes() == second.read_bytes()


def test_summary_matches_records(tmp_path):
    config = _config(samples=40, n=2)
    out = tmp_path / "sweep.jsonl"
    summary = run_sweep(config, out)
    lines = out.read_text().splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    trailer = json.loads(lines[-1])
    assert trailer["summary"] is True
    assert summary.records == len(records) == 40
    assert summary.min_gap == min(r["gap"] for r in records)
    assert summary.candidate_counterexamples == sum(r["candidate"] for r in records)
    assert trailer["min_gap"] == summary.min_gap
    assert trailer["argmin_index"] == summary.argmin_index
    assert "elapsed" not in trailer
    assert set(trailer["per_function"]) == {"sld"}


def test_summary_folds_functions_across_chunks(tmp_path, monkeypatch):
    """40 samples in chunks of 7 and 3 functions: the summary folded from the
    chunks' arrays matches one pass over the records."""
    monkeypatch.setattr(sweep, "CHUNK_SIZE", 7)
    config = _config(samples=40, n=2, dim=3, functions=("sld", "wy", "wyd:0.25"))
    out = tmp_path / "sweep.jsonl"
    summary = run_sweep(config, out)
    lines = out.read_text().splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    trailer = json.loads(lines[-1])
    assert summary.records == trailer["records"] == len(records) == 40 * 3
    for fid in config.functions:
        gaps = [r["gap"] for r in records if r["function"] == fid]
        stats = summary.per_function[fid]
        assert stats == trailer["per_function"][fid]
        assert stats["min_gap"] == min(gaps)
        assert stats["candidates"] == sum(r["candidate"] for r in records if r["function"] == fid)
        assert stats["mean_gap"] == pytest.approx(sum(gaps) / len(gaps), rel=1e-12)
        # exact: each chunk's gaps added left to right, then the chunk totals
        total = 0.0
        for lo in range(0, 40, 7):
            chunk_total = 0.0
            for g in gaps[lo:lo + 7]:
                chunk_total += g
            total += chunk_total
        assert stats["mean_gap"] == total / 40
    first = min(records, key=lambda r: r["gap"])  # min keeps the first minimum
    assert (summary.min_gap, summary.argmin_index, summary.argmin_function) == (
        first["gap"], first["index"], first["function"]
    )
    assert (trailer["argmin_index"], trailer["argmin_function"]) == (first["index"], first["function"])
    assert summary.candidate_counterexamples == sum(r["candidate"] for r in records)


@pytest.mark.parametrize(
    "base,tag",
    [("density", "complex-hermitian"), ("real-density", "real-symmetric"), ("density", "complex"),
     ("real-density", "real")],
)
def test_records_relabelled_with_another_tag_report_an_ensemble_mismatch(tmp_path, capsys, base, tag):
    """A sweep writes only base tags, so a line relabelled with a
    CLI alias was written by none: it replays the stream of its base tag,
    matches in every other field and reports its ensemble as a mismatch,
    which the command line exits 2 for.  A line relabelled with a retired
    tag, which no spec resolves any more, is refused on its ensemble before
    anything is drawn, and the command line exits 2 for that too."""
    retired = tag in ("complex-hermitian", "real-symmetric")
    if retired:
        with pytest.raises(ValueError, match=f"unknown ensemble '{tag}'"):
            _config(ensemble=tag)
    config = _config(samples=6, n=2, dim=3, functions=("sld", "wy"), ensemble=base if retired else tag)
    assert config.ensemble == base
    out = tmp_path / "sweep.jsonl"
    run_sweep(config, out)
    lines = out.read_text().splitlines()
    written = f'"ensemble": "{base}"'
    assert all(written in line for line in lines[:-1])
    lines[:-1] = [line.replace(written, f'"ensemble": "{tag}"') for line in lines[:-1]]
    out.write_text("\n".join(lines) + "\n")
    for line_number in (1, 4, len(lines) - 1):
        if retired:
            with pytest.raises(ValueError, match=f"^line {line_number}: unknown ensemble '{tag}'"):
                replay_record(str(out), line_number)
        else:
            result = replay_record(str(out), line_number)
            assert result["mismatches"] == {"ensemble": (tag, base)}
    assert cli.main(["replay", "--record", f"{out}:1"]) == 2
    captured = capsys.readouterr()
    if retired:
        assert f"error: line 1: unknown ensemble {tag!r}" in captured.err
    else:
        assert f"ensemble: {tag!r} != {base!r}" in captured.out


def test_replay_round_trip(tmp_path):
    config = _config(samples=12, n=3, dim=3, functions=("sld", "wyd:0.25"))
    out = tmp_path / "sweep.jsonl"
    run_sweep(config, out)
    lines = out.read_text().splitlines()
    for line_number in (1, 7, len(lines) - 1):
        result = replay_record(str(out), line_number)
        assert result["mismatches"] == {}


def test_a_wyd_beta_with_more_than_six_digits_sweeps_and_replays(tmp_path):
    """The config keeps the beta it was given, so the sweep runs that beta,
    not one rounded to six digits (0.5 here, outside the family), and its
    records name it and replay."""
    config = _config(samples=4, n=2, dim=3, functions=("wyd:0.4999999", "wyd:0.1234567"))
    assert config.functions == ("wyd:0.4999999", "wyd:0.1234567")
    out = tmp_path / "sweep.jsonl"
    run_sweep(config, out)
    lines = out.read_text().splitlines()
    assert [json.loads(line)["function"] for line in lines[:2]] == list(config.functions)
    for line_number in range(1, len(lines)):
        assert replay_record(str(out), line_number)["mismatches"] == {}


def test_replay_detects_tampering(tmp_path):
    config = _config(samples=5)
    out = tmp_path / "sweep.jsonl"
    run_sweep(config, out)
    lines = out.read_text().splitlines()
    record = json.loads(lines[2])
    record["gap"] = record["gap"] + 1.0
    lines[2] = json.dumps(record)
    out.write_text("\n".join(lines) + "\n")
    result = replay_record(str(out), 3)
    assert "gap" in result["mismatches"]


def _rewritten(line: bytes, how: str) -> bytes:
    """The record line written another way with the same values."""
    if how == "reordered":
        return json.dumps(dict(reversed(json.loads(line).items()))).encode() + b"\n"
    if how == "spaced":
        return line.replace(b", ", b" ,   ").replace(b": ", b"  :  ")
    if how == "crlf":
        return line[:-1] + b"\r\n"
    return line[:-1]  # "no newline": the file's last line


@pytest.mark.parametrize("how", ["reordered", "spaced", "crlf", "no newline"])
def test_replay_parses_a_line_whose_bytes_differ_but_whose_values_are_equal(tmp_path, how):
    """Replay compares the stored line's bytes with the printed line first;
    a line written another way falls back to the field-by-field compare,
    and equal values still reproduce."""
    out = tmp_path / "sweep.jsonl"
    run_sweep(_config(samples=5), out)
    # the first three records, the third written another way and ending the file
    lines = out.read_bytes().splitlines(keepends=True)[:3]
    printed = lines[2]
    lines[2] = _rewritten(printed, how)
    assert lines[2] != printed
    out.write_bytes(b"".join(lines))
    for line_number in (1, 3):
        result = replay_record(str(out), line_number)
        assert result["mismatches"] == {}
        assert result["recomputed"] == result["stored"]


def test_replay_names_the_field_of_one_changed_digit(tmp_path):
    """A stored line one digit off the printed one, its cov_det's leading
    digit, fails the byte compare and names that field alone."""
    out = tmp_path / "sweep.jsonl"
    run_sweep(_config(samples=5), out)
    lines = out.read_bytes().splitlines(keepends=True)
    start = lines[1].index(b'"cov_det": ') + len(b'"cov_det": ')
    start += lines[1][start:start + 1] == b"-"
    digit = b"1" if lines[1][start:start + 1] != b"1" else b"2"
    lines[1] = lines[1][:start] + digit + lines[1][start + 1:]
    out.write_bytes(b"".join(lines))
    result = replay_record(str(out), 2)
    assert set(result["mismatches"]) == {"cov_det"}
    stored, recomputed = result["mismatches"]["cov_det"]
    assert stored != recomputed and recomputed == result["recomputed"]["cov_det"]


def test_replay_rejects_summary_line(tmp_path):
    config = _config(samples=5)
    out = tmp_path / "sweep.jsonl"
    run_sweep(config, out)
    last = len(out.read_text().splitlines())
    with pytest.raises(ValueError, match="summary"):
        replay_record(str(out), last)


def test_replay_rejects_out_of_range_line(tmp_path):
    config = _config(samples=5)
    out = tmp_path / "sweep.jsonl"
    run_sweep(config, out)
    # 5 records and the summary line
    with pytest.raises(ValueError, match=r"^line 999 out of range 1\.\.6$"):
        replay_record(str(out), 999)


def test_replay_counts_a_last_line_without_newline(tmp_path):
    out = tmp_path / "sweep.jsonl"
    run_sweep(_config(samples=5), out)
    out.write_bytes(out.read_bytes().rstrip(b"\n"))
    with pytest.raises(ValueError, match=r"^line 999 out of range 1\.\.6$"):
        replay_record(str(out), 999)
    with pytest.raises(ValueError, match="summary"):
        replay_record(str(out), 6)
    assert replay_record(str(out), 5)["mismatches"] == {}


def test_replay_rejects_any_line_of_an_empty_file(tmp_path):
    out = tmp_path / "empty.jsonl"
    out.write_bytes(b"")
    for line_number in (999, 1, 0):
        with pytest.raises(ValueError, match=rf"^line {line_number} out of range 1\.\.0$"):
            replay_record(str(out), line_number)


def _islice_line(path, line_number):
    """Line ``line_number`` of a file read the plain way, as a reference."""
    with open(path, "rb") as fh:
        return next(itertools.islice(fh, line_number - 1, None))


@pytest.fixture
def index_builds(monkeypatch):
    """Start without a kept line index; count the passes that build one."""
    builds = []
    build = sweep._line_starts

    def counting(fh):
        builds.append(fh.name)
        return build(fh)

    monkeypatch.setattr(sweep, "_line_index", None)
    monkeypatch.setattr(sweep, "_line_starts", counting)
    return builds


def test_replay_reads_every_line_of_a_multi_chunk_file(tmp_path, index_builds):
    config = _config(samples=2 * sweep.CHUNK_SIZE + 11, functions=("sld", "wy"))
    out = tmp_path / "sweep.jsonl"
    run_sweep(config, out)
    for line_number in range(1, 2 * config.samples + 1):
        result = replay_record(str(out), line_number)
        assert result["stored"] == json.loads(_islice_line(out, line_number))
        assert result["mismatches"] == {}
    assert index_builds == [str(out)]


def test_replay_indexes_a_file_once(tmp_path, index_builds):
    out = tmp_path / "sweep.jsonl"
    run_sweep(_config(samples=40, functions=("sld", "wy")), out)
    rng = np.random.default_rng(5)
    for line_number in rng.integers(1, 81, size=50).tolist():
        replay_record(str(out), line_number)
    assert index_builds == [str(out)]


def test_replay_follows_a_re_swept_path(tmp_path):
    out = tmp_path / "sweep.jsonl"
    run_sweep(_config(seed=1, samples=20), out)
    assert replay_record(str(out), 7)["stored"]["seed"] == 1
    run_sweep(_config(seed=2, samples=20), out)
    for line_number in (1, 7, 20):
        result = replay_record(str(out), line_number)
        assert result["stored"] == json.loads(_islice_line(out, line_number))
        assert result["stored"]["seed"] == 2
        assert result["mismatches"] == {}


def test_replay_reports_a_same_size_tamper_after_a_replay(tmp_path):
    out = tmp_path / "sweep.jsonl"
    run_sweep(_config(samples=5, n=2, dim=3), out)
    assert replay_record(str(out), 3)["mismatches"] == {}
    data = out.read_bytes()
    line_start = sum(len(line) for line in data.splitlines(keepends=True)[:2])
    at = data.index(b'"gap": ', line_start) + len(b'"gap": ')
    at += data[at] == ord("-")
    digit = data[at] - ord("0")
    assert 0 <= digit <= 9
    with open(out, "r+b") as fh:
        fh.seek(at)
        fh.write(str((digit + 1) % 10).encode())
    assert len(out.read_bytes()) == len(data)
    assert "gap" in replay_record(str(out), 3)["mismatches"]


def test_replay_sees_an_appended_line(tmp_path):
    out = tmp_path / "sweep.jsonl"
    run_sweep(_config(samples=5), out)
    first = _islice_line(out, 1)
    with pytest.raises(ValueError, match=r"^line 7 out of range 1\.\.6$"):
        replay_record(str(out), 7)
    with open(out, "ab") as fh:
        fh.write(first)
    result = replay_record(str(out), 7)
    assert result["stored"] == json.loads(first)
    assert result["mismatches"] == {}
    with pytest.raises(ValueError, match=r"^line 8 out of range 1\.\.7$"):
        replay_record(str(out), 8)


def test_replay_from_threads_sharing_the_line_index(tmp_path):
    """Threads replaying lines of two files in turn keep replacing the one
    kept index; each still reads its own line."""
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for seed, path in enumerate(paths):
        run_sweep(_config(seed=seed, samples=12, functions=("sld", "wy")), path)
    expected = {
        (str(path), k): json.loads(_islice_line(path, k)) for path in paths for k in range(1, 25)
    }

    def replay_many(worker):
        rng = np.random.default_rng(worker)
        for _ in range(30):
            path, k = str(paths[int(rng.integers(2))]), int(rng.integers(1, 25))
            assert replay_record(path, k)["stored"] == expected[path, k]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(replay_many, worker) for worker in range(4)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)


def test_replay_reads_a_pipe_without_indexing_it(tmp_path, index_builds):
    """A pipe (say, a shell's process substitution) cannot seek: each replay
    reads it up to the line, and an out-of-range line counts every line."""
    out = tmp_path / "sweep.jsonl"
    run_sweep(_config(samples=5), out)
    fifo = tmp_path / "records.fifo"
    os.mkfifo(fifo)

    def replay_through_pipe(line_number):
        writer = threading.Thread(target=fifo.write_bytes, args=(out.read_bytes(),))
        writer.start()
        try:
            return replay_record(str(fifo), line_number)
        finally:
            writer.join(timeout=10)
            assert not writer.is_alive()

    result = replay_through_pipe(3)
    assert result["stored"] == json.loads(_islice_line(out, 3))
    assert result["mismatches"] == {}
    with pytest.raises(ValueError, match=r"^line 999 out of range 1\.\.6$"):
        replay_through_pipe(999)
    assert index_builds == []


def test_a_stale_line_index_is_rebuilt(tmp_path, index_builds):
    """A kept index whose key matches a same-size rewrite with moved line
    boundaries fails the whole-line check and is rebuilt once."""
    out = tmp_path / "sweep.jsonl"
    run_sweep(_config(samples=5), out)
    assert replay_record(str(out), 2)["mismatches"] == {}
    lines = out.read_bytes().splitlines(keepends=True)
    # line 1 one byte shorter, line 2 one byte longer: JSON spacing only
    lines[0] = lines[0].replace(b'"version": 4', b'"version":4', 1)
    lines[1] = lines[1].replace(b'"version": 4', b'"version":  4', 1)
    with open(out, "r+b") as fh:
        fh.write(b"".join(lines))
    _, starts = sweep._line_index
    sweep._line_index = (sweep._file_key(os.stat(out)), starts)
    for line_number in (1, 2, 3):
        result = replay_record(str(out), line_number)
        assert result["stored"] == json.loads(lines[line_number - 1])
        assert result["mismatches"] == {}
    assert index_builds == [str(out), str(out)]


@pytest.mark.parametrize("line_number", [1.0, True, "1", None])
def test_replay_rejects_a_non_integer_line_number(tmp_path, line_number):
    """True would replay line 1."""
    out = tmp_path / "sweep.jsonl"
    run_sweep(_config(samples=2), out)
    with pytest.raises(ValueError) as info:
        replay_record(str(out), line_number)
    assert str(info.value) == f"line_number must be an integer, got {line_number!r}"


def _float_sum_312(values, start=0.0):
    """CPython 3.12's float ``sum``: Neumaier's compensated loop, whose
    compensation ``c`` is added at the end when it is nonzero and finite."""
    total, c = start, 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


# each key with the interpreter's own float sum (ids key0..key3), then with
# 3.12's in its place (ids key0-sum-3.12, ...)
@pytest.mark.parametrize("key,float_sum", [
    pytest.param(key, float_sum, id=f"key{k}{suffix}")
    for float_sum, suffix in ((None, ""), (_float_sum_312, "-sum-3.12"))
    for k, key in enumerate(sorted(SWEEP_DIGESTS))
])
def test_sweep_digest_guard(tmp_path, monkeypatch, key, float_sum):
    """The file, summary line included, has the same bytes whichever
    algorithm the interpreter's float ``sum`` uses, at P = 1 and P = 2."""
    ensemble, dim, n, functions = key
    config = _config(
        ensemble=ensemble, dim=dim, n=n, samples=300, seed=7,
        functions=tuple(functions.split(",")),
    )
    parallelisms = (1,)
    if float_sum is not None:
        monkeypatch.setattr(sweep, "sum", float_sum, raising=False)
        parallelisms = (1, 2)
    for parallelism in parallelisms:
        out = tmp_path / f"sweep-{parallelism}.jsonl"
        run_sweep(dataclasses.replace(config, parallelism=parallelism), out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_DIGESTS[key]


@pytest.mark.parametrize(
    "ensemble,dim,n",
    [("complex", 3, 3), ("real", 4, 2), ("structured", 3, 3), ("real", 5, 8), ("complex", 8, 4)],
)
def test_record_bytes_independent_of_batching(tmp_path, monkeypatch, ensemble, dim, n):
    """Records must not depend on the kernel's batch size, where chunk
    boundaries fall, or how many workers evaluate the chunks."""
    config = _config(ensemble=ensemble, dim=dim, n=n, samples=40, functions=("sld", "wy", "wyd:0.25"))
    outputs = []
    # with KERNEL_FLOATS at 0, a chunk's calls take at most KERNEL_BATCH
    # samples each; chunk 13 with batch 3 starts calls in the middle of stream
    # blocks, and chunk 17 with batch 5 splits unevenly (4, 4, 4, 5 and 3, 3)
    monkeypatch.setattr(sweep, "KERNEL_FLOATS", 0)
    for chunk, batch, parallelism in (
        (256, 256, 1), (256, 7, 1), (256, 1, 1), (7, 256, 2), (13, 3, 4), (17, 5, 2)
    ):
        monkeypatch.setattr(sweep, "CHUNK_SIZE", chunk)
        monkeypatch.setattr(sweep, "KERNEL_BATCH", batch)
        out = tmp_path / f"{chunk}-{batch}-{parallelism}.jsonl"
        run_sweep(dataclasses.replace(config, parallelism=parallelism), out)
        outputs.append(out.read_text().splitlines()[:-1])
    assert all(lines == outputs[0] for lines in outputs[1:])


@pytest.mark.parametrize(
    "ensemble,dim,n,samples,calls",
    [
        ("complex", 3, 3, 256, [256]),
        ("complex", 4, 2, 256, [256]),
        ("complex", 4, 3, 256, [256]),
        ("real", 8, 2, 256, [128, 128]),
        ("real", 8, 8, 256, [64] * 4),
        ("complex", 3, 3, 300, [256, 44]),
    ],
)
def test_kernel_calls_are_sized_from_the_weighted_coordinates(
    tmp_path, monkeypatch, ensemble, dim, n, samples, calls
):
    """A chunk of one function makes the fewest near-equal kernel calls of at
    most max(KERNEL_BATCH, KERNEL_FLOATS // (3 n d^2)) samples each: the
    weighted coordinates of F = 1 function, the covariance and the screen."""
    sizes = []
    lines = sweep._lines

    def recording(rspec, start, size, *args, **kwargs):
        sizes.append(size)
        return lines(rspec, start, size, *args, **kwargs)

    monkeypatch.setattr(sweep, "_lines", recording)
    run_sweep(_config(ensemble=ensemble, dim=dim, n=n, samples=samples), tmp_path / "out.jsonl")
    assert sizes == calls


@pytest.mark.parametrize("ensemble,dim,n,functions,bounds", [
    ("complex", 3, 3, ("sld", "wy", "wyd:0.25"), [0, 256]),
    ("real", 8, 2, ("sld", "wy", "wyd:0.05", "wyd:0.1", "wyd:0.25", "wyd:0.4"), [0, 64, 128, 192, 256]),
    ("complex", 4, 2, ("wy", "sld"), [0, 256]),
])
def test_the_bench_configs_keep_their_call_sizes(ensemble, dim, n, functions, bounds):
    """A chunk of the complex d3 n3 bench config is one call of 256 samples,
    one of the wide real d8 n2 config four calls of 64, and one of the
    replay file's complex d4 n2 config one call of 256."""
    config = _config(ensemble=ensemble, dim=dim, n=n, samples=256, functions=functions)
    assert sweep._call_bounds(config, 0, 256) == bounds


@pytest.mark.parametrize(
    "ensemble,dim,n",
    [("complex", 3, 3), ("complex", 4, 2), ("real", 3, 3), ("structured", 4, 3), ("complex", 3, 4)],
)
def test_single_spec_routes_reproduce_sweep_records(tmp_path, ensemble, dim, n):
    """Records and the single-spec API run one kernel, so each record holds
    exactly the determinants, gap and flags that check_inequalities and
    volume_gap give for its draw."""
    config = _config(ensemble=ensemble, dim=dim, n=n, samples=75, functions=("sld", "wy", "wyd:0.25"))
    out = tmp_path / "sweep.jsonl"
    run_sweep(config, out)
    rspec = RandomSpec(config.seed, dim, config.ensemble)
    for line in out.read_text().splitlines()[:-1]:
        record = json.loads(line)
        spec = GramSpec(
            sample_state(rspec, record["index"]),
            sample_observables(rspec, record["index"], n),
            builtin(record["function"]),
        )
        verdict = check_inequalities(spec, partner=SLD)
        gap_report = volume_gap(spec)
        for report in (gap_report, verdict.report):
            for name in ("cov_det", "qfi_det", "gap", "robertson_det"):
                assert getattr(report, name) == record[name], name
        # volume_gap and check_inequalities read their Grams from one kernel
        assert gap_report.cov_gram.tobytes() == verdict.report.cov_gram.tobytes()
        assert gap_report.qfi_gram.tobytes() == verdict.report.qfi_gram.tobytes()
        for name in ("main_holds", "dependent", "equality_consistent"):
            assert getattr(verdict, name) == record[name], name
        assert verdict.candidate_counterexample == record["candidate"]
        assert observables_dependent(spec.state, spec.observables) == record["dependent"]
        if n % 2 == 0:
            assert robertson_bound(spec.state, spec.observables) == gap_report.robertson_det


@pytest.mark.parametrize("ensemble,n", [("complex", 3), ("real", 2), ("real", 3)])
def test_dim2_rank_deficient_samples_report_no_violations(tmp_path, ensemble, n):
    """With d = 2 the commutators span 2 real dimensions (1 for real
    ensembles), so these metric Grams are singular by theory and their
    volume order is roundoff."""
    config = _config(ensemble=ensemble, n=n, samples=512, seed=1, functions=("sld", "wy", "wyd:0.25"))
    assert run_sweep(config, tmp_path / "d2.jsonl").monotonicity_violations == 0
    rspec = RandomSpec(1, 2, config.ensemble)
    spec = GramSpec(sample_state(rspec, 0), sample_observables(rspec, 0, n), builtin("wy"))
    assert check_inequalities(spec, partner=SLD).monotonicity_holds is None
