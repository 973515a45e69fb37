"""Tests for the deterministic bulk sweep and its record replay machinery."""

import dataclasses
import hashlib
import json

import pytest

from qfivol import (
    SLD,
    GramSpec,
    RandomSpec,
    SweepConfig,
    builtin,
    check_inequalities,
    evaluate_sample,
    format_record,
    regular_builtins,
    replay_record,
    resolve_ensemble,
    run_sweep,
    sample_observables,
    sample_state,
    sweep,
    volume_gap,
)
from qfivol.volumes import order_pairs

# sha256 of 300-sample, seed-7 sweep files as the per-sample loop wrote them
# before the batched kernel replaced it.  The digests belong to one
# numpy/LAPACK build (numpy 2.4.6 with scipy-openblas 0.3.31 on x86-64);
# another build may round differently, and then this guard fails by design.
SWEEP_DIGESTS = {
    ("complex", 3, 3, "sld,wy,wyd:0.25"):
        "ade4703a2aaccf6460890e8940fe5c189cf9dad7dbd9b68b194be3d6108eda83",
    ("real", 8, 2, "sld,wy,wyd:0.05,wyd:0.1,wyd:0.25,wyd:0.4"):
        "5b9f8fa81329357a79afbdfaabd8aa6ff310c0eb444b689facfc7ae1481462de",
    ("structured", 4, 3, "sld,wy"):
        "3523a19d24d8dec7f0cf50e2e71983863cd9d7cee795dee9f06f0c5b13600282",
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
    assert resolve_ensemble("density+complex-hermitian") == "density"
    assert resolve_ensemble(" Real ") == "real-density"
    with pytest.raises(ValueError, match="ensemble"):
        resolve_ensemble("bogus")


def test_config_validation():
    with pytest.raises(ValueError, match="n must be"):
        _config(n=4)
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


def test_config_canonicalizes_tags():
    config = _config(functions=("SLD", "Wy"), ensemble="real")
    assert config.functions == ("sld", "wy")
    assert config.ensemble == "real-density"
    assert _config(ensemble="complex-hermitian").ensemble == "density"


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
    # 600 samples spans three chunks, so the parallel path reorders work
    config = _config(samples=600)
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    summary_one = run_sweep(config, serial)
    summary_two = run_sweep(dataclasses.replace(config, parallelism=2), parallel)
    assert serial.read_bytes() == parallel.read_bytes()
    assert dataclasses.replace(summary_one, elapsed=0.0) == dataclasses.replace(
        summary_two, elapsed=0.0
    )


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
    first = min(records, key=lambda r: r["gap"])  # min keeps the first minimum
    assert (summary.min_gap, summary.argmin_index, summary.argmin_function) == (
        first["gap"], first["index"], first["function"]
    )
    assert (trailer["argmin_index"], trailer["argmin_function"]) == (first["index"], first["function"])
    assert summary.candidate_counterexamples == sum(r["candidate"] for r in records)


@pytest.mark.parametrize(
    "base,retired", [("density", "complex-hermitian"), ("real-density", "real-symmetric")]
)
def test_records_with_retired_ensemble_tags_replay(tmp_path, base, retired):
    """The retired tags drew exactly the streams of their base tags; a record
    written under one, byte for byte as such a sweep wrote it, replays."""
    config = _config(samples=6, n=2, dim=3, functions=("sld", "wy"), ensemble=retired)
    assert config.ensemble == base
    out = tmp_path / "sweep.jsonl"
    run_sweep(config, out)
    lines = out.read_text().splitlines()
    tag = f'"ensemble": "{base}"'
    assert all(tag in line for line in lines[:-1])
    lines[:-1] = [line.replace(tag, f'"ensemble": "{retired}"') for line in lines[:-1]]
    out.write_text("\n".join(lines) + "\n")
    for line_number in (1, 4, len(lines) - 1):
        result = replay_record(str(out), line_number)
        assert result["stored"]["ensemble"] == retired
        assert result["mismatches"] == {}


def test_replay_round_trip(tmp_path):
    config = _config(samples=12, n=3, dim=3, functions=("sld", "wyd:0.25"))
    out = tmp_path / "sweep.jsonl"
    run_sweep(config, out)
    lines = out.read_text().splitlines()
    for line_number in (1, 7, len(lines) - 1):
        result = replay_record(str(out), line_number)
        assert result["mismatches"] == {}


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
    with pytest.raises(ValueError, match="line"):
        replay_record(str(out), 999)


@pytest.mark.parametrize("key", sorted(SWEEP_DIGESTS))
def test_sweep_digest_guard(tmp_path, key):
    ensemble, dim, n, functions = key
    config = _config(
        ensemble=ensemble, dim=dim, n=n, samples=300, seed=7,
        functions=tuple(functions.split(",")),
    )
    out = tmp_path / "sweep.jsonl"
    run_sweep(config, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_DIGESTS[key]


@pytest.mark.parametrize("ensemble,dim,n", [("complex", 3, 3), ("real", 4, 2), ("structured", 3, 3)])
def test_record_bytes_independent_of_batching(tmp_path, monkeypatch, ensemble, dim, n):
    """Records must not depend on the kernel's batch size, where chunk
    boundaries fall, or how many workers evaluate the chunks."""
    config = _config(ensemble=ensemble, dim=dim, n=n, samples=40, functions=("sld", "wy", "wyd:0.25"))
    outputs = []
    for chunk, batch, parallelism in ((256, 256, 1), (256, 7, 1), (256, 1, 1), (7, 256, 2)):
        monkeypatch.setattr(sweep, "CHUNK_SIZE", chunk)
        monkeypatch.setattr(sweep, "KERNEL_BATCH", batch)
        out = tmp_path / f"{chunk}-{batch}-{parallelism}.jsonl"
        run_sweep(dataclasses.replace(config, parallelism=parallelism), out)
        outputs.append(out.read_text().splitlines()[:-1])
    assert all(lines == outputs[0] for lines in outputs[1:])


@pytest.mark.parametrize(
    "ensemble,dim,n", [("complex", 3, 3), ("complex", 4, 2), ("real", 3, 3), ("structured", 4, 3)]
)
def test_single_spec_routes_reproduce_sweep_records(tmp_path, ensemble, dim, n):
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
        for report in (volume_gap(spec), verdict.report):
            assert (report.cov_det, report.qfi_det, report.gap) == (
                record["cov_det"], record["qfi_det"], record["gap"]
            )
        assert verdict.main_holds == record["main_holds"]
        assert verdict.dependent == record["dependent"]


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
