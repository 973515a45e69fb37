"""End-to-end tests for the command line interface."""

import hashlib
import json
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from qfivol import RandomSpec, sweep
from qfivol.sampling import sample_state
from qfivol.cli import main

# retired records, which replay refuses: unversioned lines drawn from an
# earlier stream (complex d3 n3, real d8 n2 and structured d4 n3 seed-7 sweep
# lines, and one whose ensemble tag was rewritten to complex-hermitian) and
# version-2 lines (seed-7 sweep lines of the three digest-guarded configs and
# one complex d4 n2 line); both carry volume_cov and volume_qfi after gap
RECORDS_V1 = Path(__file__).parent / "data" / "records_v1.jsonl"
RECORDS_V2 = Path(__file__).parent / "data" / "records_v2.jsonl"
# version-3 records, retired too: the lines of test_record_v4_lines_replay's
# sweeps as the earlier, subtracting kernel wrote them
RECORDS_V3 = Path(__file__).parent / "data" / "records_v3.jsonl"
# version-4 records, the format sweeps write: seed-7 lines of four sweeps,
# see test_record_v4_lines_replay
RECORDS_V4 = Path(__file__).parent / "data" / "records_v4.jsonl"


def test_list_functions(capsys):
    assert main(["list-functions"]) == 0
    out = capsys.readouterr().out
    for fid in ("sld", "wy", "rld", "wyd:0.25", "wyd:0.1"):
        assert fid in out
    assert "(undefined)" in out


def test_repro_entanglement(capsys):
    assert main(["repro", "entanglement"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "wyd:0.25" in out


def test_repro_hessian(capsys):
    assert main(["repro", "hessian"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "+8/3" in out and "-16/3" in out


def test_repro_pure_volume(capsys):
    assert main(["repro", "pure-volume", "--dim", "3", "--n", "2", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "seed=5" in out


# sha256 of the whole stdout of each reproduction, with no QFIVOL_SEED set.
# Like test_sweep.SWEEP_DIGESTS these belong to one numpy/LAPACK build
# (numpy 2.4.6 with scipy-openblas 0.3.31 on x86-64); another build may round
# the printed digits differently, and then this guard fails by design.
REPRO_DIGESTS = {
    "entanglement": "99b30b818465ce40563ffdb00162af3a38f693d3afdb3436e5eace3dcc9437db",
    "hessian": "3179975b9d8f2f79e67a32af41e2312ff852bc2abfaf9a81928fee9472be714e",
    "pure-volume": "51cc0df2463cf87bd81d10d698be3a34f5403ca0dc88498ef002eded0d641d45",
    "pure-volume --dim 4 --n 3 --seed 7 --draws 5":
        "14e69b07e4534e6faf6088184dd0b2c2df25f4a610d22123bcf430e8e3bf6f75",
}


@pytest.mark.parametrize("args", sorted(REPRO_DIGESTS))
def test_repro_output_bytes(capsys, monkeypatch, args):
    monkeypatch.delenv("QFIVOL_SEED", raising=False)
    assert main(["repro", *args.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == REPRO_DIGESTS[args]

@pytest.mark.parametrize("draws", ["0", "-2"])
def test_pure_volume_rejects_a_draw_count_below_one(capsys, draws):
    """With no draws there is nothing to compare, so no PASS line may print."""
    assert main(["repro", "pure-volume", "--draws", draws]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.splitlines() == [f"error: draws must be at least 1, got {draws}"]


def test_pure_volume_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("QFIVOL_SEED", "17")
    assert main(["repro", "pure-volume"]) == 0
    assert "seed=17" in capsys.readouterr().out


def test_an_empty_environment_seed_falls_back_to_the_default(capsys, monkeypatch):
    monkeypatch.setenv("QFIVOL_SEED", "")
    assert main(["repro", "pure-volume"]) == 0
    assert "seed=42" in capsys.readouterr().out


def test_bad_environment_seed_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("QFIVOL_SEED", "not-a-number")
    assert main(["repro", "pure-volume"]) == 2
    assert "error:" in capsys.readouterr().err


# int() reads each of these as an integer: 10, 3 (Arabic-Indic three), 7, 7 and 7
NOT_ASCII_INTEGERS = ["1_0", "\u0663", "+7", " 7", "7 ", "", "-"]


@pytest.mark.parametrize("text", NOT_ASCII_INTEGERS)
def test_integer_flags_take_an_optional_minus_and_ascii_digits_alone(tmp_path, capsys, text):
    out = tmp_path / "records.jsonl"
    for args in (["repro", "pure-volume", "--seed", text],
                 ["sweep", "--n", "1", "--dim", "2", "--samples", "3", "--seed", text, "--out", str(out)],
                 ["sweep", "--n", "1", "--dim", "2", "--samples", text, "--out", str(out)]):
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(f"invalid integer {text!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["QFIVOL_SEED", "QFIVOL_PARALLELISM"])
@pytest.mark.parametrize("text", [*NOT_ASCII_INTEGERS[:5], "\t7"])
def test_environment_integers_take_an_optional_minus_and_ascii_digits_alone(tmp_path, capsys, monkeypatch,
                                                                            name, text):
    monkeypatch.setenv(name, text)
    out = tmp_path / "records.jsonl"
    assert main(["sweep", "--n", "1", "--dim", "2", "--samples", "3", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: environment variable {name}: invalid integer {text!r}\n")
    assert not out.exists()


def test_negative_integers_reach_the_range_checks(tmp_path, capsys, monkeypatch):
    assert main(["repro", "pure-volume", "--seed", "-3"]) == 2
    assert capsys.readouterr().err == "error: seed must be in 0..18446744073709551615, got -3\n"
    out = tmp_path / "records.jsonl"
    monkeypatch.setenv("QFIVOL_PARALLELISM", "-2")
    assert main(["sweep", "--n", "1", "--dim", "2", "--samples", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: parallelism must be at least 1, got -2\n"
    monkeypatch.delenv("QFIVOL_PARALLELISM")
    assert main(["sweep", "--n", "1", "--dim", "2", "--samples", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["replay", "--record", f"{out}:-1"]) == 2
    assert capsys.readouterr().err == "error: line -1 out of range 1..10\n"


def test_sweep_and_replay(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    code = main(
        [
            "sweep",
            "--n", "2",
            "--dim", "3",
            "--samples", "10",
            "--functions", "sld,wy",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "20 records from 10 samples" in text
    assert "candidate counterexamples: 0" in text
    lines = out.read_text().splitlines()
    assert len(lines) == 21
    assert json.loads(lines[-1])["summary"] is True

    assert main(["replay", "--record", f"{out}:4"]) == 0
    assert "bit-for-bit" in capsys.readouterr().out


def test_sweep_strict_without_candidates(tmp_path):
    out = tmp_path / "records.jsonl"
    code = main(
        [
            "sweep",
            "--n", "1",
            "--dim", "2",
            "--samples", "5",
            "--functions", "sld",
            "--seed", "3",
            "--strict",
            "--out", str(out),
        ]
    )
    assert code == 0


@pytest.mark.parametrize("strict, code", [(True, 3), (False, 0)])
def test_sweep_strict_exits_three_on_a_candidate(tmp_path, capsys, monkeypatch, strict, code):
    """No shipped ensemble yields a candidate, so the sweep's summary is
    replaced by one that reports a single candidate."""
    summary = sweep.SweepSummary(
        samples=1, records=1, functions=("sld",), min_gap=-1.0, argmin_index=0,
        argmin_function="sld", candidate_counterexamples=1, monotonicity_violations=0,
        per_function={"sld": {"min_gap": -1.0, "mean_gap": -1.0, "candidates": 1}}, elapsed=0.0,
    )
    monkeypatch.setattr("qfivol.cli.run_sweep", lambda config, out: summary)
    args = ["sweep", "--n", "1", "--dim", "2", "--samples", "1", "--functions", "sld",
            "--out", str(tmp_path / "records.jsonl")]
    assert main(args + (["--strict"] if strict else [])) == code
    assert "candidate counterexamples: 1" in capsys.readouterr().out


def test_sweep_rejects_non_regular_function(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    code = main(
        [
            "sweep",
            "--n", "1",
            "--dim", "2",
            "--samples", "5",
            "--functions", "rld",
            "--out", str(out),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tag", ["complex-hermitian", "real-symmetric"])
def test_sweep_refuses_the_retired_ensemble_tags(tmp_path, capsys, tag):
    out = tmp_path / "records.jsonl"
    code = main(["sweep", "--n", "1", "--dim", "2", "--samples", "5", "--ensemble", tag,
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: unknown ensemble {tag!r}")
    assert not out.exists()


def test_replay_missing_file_exits_two(capsys, tmp_path):
    assert main(["replay", "--record", f"{tmp_path}/absent.jsonl:1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_replay_malformed_target_exits_two(capsys):
    assert main(["replay", "--record", "no-line-number"]) == 2
    assert "FILE:LINE" in capsys.readouterr().err
    assert main(["replay", "--record", "file:abc"]) == 2
    assert capsys.readouterr().err == "error: invalid integer 'abc'\n"
    # int() would read these as lines 10, 7, 7 and 3; only ASCII digits are a line number
    for text in ("1_0", " 7", "+7", "\u0663", "", "-", "--1"):
        assert main(["replay", "--record", f"file:{text}"]) == 2
        assert capsys.readouterr().err == f"error: invalid integer {text!r}\n"


def test_replay_detects_tampered_record(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    main(
        [
            "sweep",
            "--n", "1",
            "--dim", "2",
            "--samples", "4",
            "--functions", "sld",
            "--seed", "11",
            "--out", str(out),
        ]
    )
    capsys.readouterr()
    lines = out.read_text().splitlines()
    record = json.loads(lines[1])
    record["gap"] += 0.5
    lines[1] = json.dumps(record)
    out.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--record", f"{out}:2"]) == 2
    assert "MISMATCH" in capsys.readouterr().out


def test_sweep_rejects_more_than_eight_observables(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    code = main(["sweep", "--n", "9", "--dim", "5", "--samples", "5", "--out", str(out)])
    assert code == 2
    assert "n must be in 1..8" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_with_eight_observables_replays(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    code = main(["sweep", "--n", "8", "--dim", "5", "--ensemble", "real", "--samples", "3",
                 "--functions", "sld,wy", "--seed", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert all('"n": 8' in line for line in lines)
    for line_number in range(1, len(lines)):
        assert main(["replay", "--record", f"{out}:{line_number}"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "line,named", [('{"index": 0, "dim": 3}', "seed"), ("[1, 2]", "index")]
)
def test_replay_malformed_record_exits_two(tmp_path, capsys, line, named):
    out = tmp_path / "records.jsonl"
    out.write_text(line + "\n")
    assert main(["replay", "--record", f"{out}:1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1 is not a sweep record")
    assert named in err


def _edited_record(tmp_path, **fields):
    """Line 1 of a real one-sample sweep with ``fields`` replaced."""
    out = tmp_path / "records.jsonl"
    assert main(["sweep", "--n", "3", "--dim", "3", "--samples", "1", "--functions", "wy",
                 "--seed", "4", "--out", str(out)]) == 0
    record = json.loads(out.read_text().splitlines()[0])
    out.write_text(json.dumps(dict(record, **fields)) + "\n")
    return out


@pytest.mark.parametrize(
    "field,value",
    [("dim", "3"), ("seed", None), ("ensemble", 5), ("function", 3), ("index", True), ("n", 3.0)],
)
def test_replay_mistyped_field_exits_two(tmp_path, capsys, field, value):
    out = _edited_record(tmp_path, **{field: value})
    capsys.readouterr()
    assert main(["replay", "--record", f"{out}:1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 1: {field} must be")


@pytest.mark.parametrize(
    "fields,message",
    [({"n": 9}, "n must be in 1..8, got 9"),
     ({"ensemble": "pauli-like-structured", "n": 2}, "the structured ensemble requires n = 3"),
     ({"index": -1}, "index must be in 0..18446744073709551615, got -1"),
     ({"index": 2**64}, "index must be in 0..18446744073709551615, got 18446744073709551616")],
)
def test_replay_checks_the_record_before_drawing(tmp_path, capsys, fields, message, request):
    out = _edited_record(tmp_path, **fields)
    capsys.readouterr()
    # only after the sweep that wrote the record
    request.getfixturevalue("no_normals")
    assert main(["replay", "--record", f"{out}:1"]) == 2
    assert capsys.readouterr().err == f"error: line 1: {message}\n"


def _retired(line_number, found):
    return (f"error: line {line_number}: version must be 4, got {found} "
            "(records before version 4 are retired)\n")


@pytest.mark.parametrize("value", [3, 5, "2", True, None, 1, 2.0])
def test_replay_rejects_unknown_version_before_drawing(tmp_path, capsys, value, request):
    out = _edited_record(tmp_path, version=value)
    capsys.readouterr()
    request.getfixturevalue("no_normals")
    assert main(["replay", "--record", f"{out}:1"]) == 2
    assert capsys.readouterr() == ("", _retired(1, repr(value)))


def test_stream_v1_records_are_retired(capsys, no_normals):
    lines = RECORDS_V1.read_text().splitlines()
    assert len(lines) == 13 and not any('"version"' in line for line in lines)
    for line_number in range(1, len(lines) + 1):
        assert main(["replay", "--record", f"{RECORDS_V1}:{line_number}"]) == 2
        assert capsys.readouterr() == ("", _retired(line_number, "no version field"))


def test_record_v2_lines_are_retired(capsys, no_normals):
    lines = RECORDS_V2.read_text().splitlines()
    assert len(lines) == 13 and all(line.startswith('{"version": 2, ') for line in lines)
    for line_number in range(1, len(lines) + 1):
        assert main(["replay", "--record", f"{RECORDS_V2}:{line_number}"]) == 2
        assert capsys.readouterr() == ("", _retired(line_number, "2"))


def test_record_v3_lines_are_retired(capsys, no_normals):
    lines = RECORDS_V3.read_text().splitlines()
    assert len(lines) == 12 and all(line.startswith('{"version": 3, ') for line in lines)
    for line_number in range(1, len(lines) + 1):
        assert main(["replay", "--record", f"{RECORDS_V3}:{line_number}"]) == 2
        assert capsys.readouterr() == ("", _retired(line_number, "3"))


def test_record_v4_lines_replay(capsys):
    """The fixture holds these lines of four 300-sample sweeps, across
    kernel calls and chunks, with nonzero, zero and null robertson_det:

        qfivol sweep --ensemble complex --dim 3 --n 3 --samples 300 \\
            --functions sld,wy,wyd:0.25 --seed 7 --out d3.jsonl
        qfivol sweep --ensemble real --dim 8 --n 2 --samples 300 \\
            --functions sld,wy --seed 7 --out r8.jsonl
        qfivol sweep --ensemble structured --dim 4 --n 3 --samples 300 \\
            --functions sld,wy --seed 7 --out s4.jsonl
        qfivol sweep --ensemble complex --dim 4 --n 2 --samples 300 \\
            --functions wy,sld --seed 7 --out d4.jsonl
        { sed -n '1p;191p;195p;769p' d3.jsonl; sed -n '15p;258p;600p' r8.jsonl
          sed -n '1p;384p;600p' s4.jsonl; sed -n '201p;516p' d4.jsonl; } > records_v4.jsonl
    """
    lines = RECORDS_V4.read_text().splitlines()
    assert len(lines) == 12 and all(line.startswith('{"version": 4, ') for line in lines)
    for line_number in range(1, len(lines) + 1):
        assert main(["replay", "--record", f"{RECORDS_V4}:{line_number}"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_record_v4_line_relabelled_v3_exits_two(tmp_path, capsys, request):
    """A line the current kernel wrote, labelled with the retired version,
    is refused before anything is drawn, as a version-3 line is."""
    out = _edited_record(tmp_path, version=3)
    capsys.readouterr()
    request.getfixturevalue("no_normals")
    assert main(["replay", "--record", f"{out}:1"]) == 2
    assert capsys.readouterr() == ("", _retired(1, "3"))


@pytest.mark.parametrize("text,line_number", [("not json", 2), ("", 3)])
def test_replay_non_json_line_names_the_file_line(tmp_path, capsys, text, line_number):
    out = _edited_record(tmp_path)
    record = out.read_text()
    out.write_text(record + (text + "\n") * (line_number - 1) + record)
    capsys.readouterr()
    assert main(["replay", "--record", f"{out}:{line_number}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line_number} is not a JSON record: Expecting value")
    assert main(["replay", "--record", f"{out}:{line_number + 1}"]) == 0


@pytest.mark.parametrize(
    "exc", [RuntimeError("boom"), BrokenProcessPool("a process in the pool died")]
)
def test_unexpected_failure_exits_four(tmp_path, capsys, monkeypatch, exc):
    def failing_sweep(config, out_path):
        raise exc

    monkeypatch.setattr("qfivol.cli.run_sweep", failing_sweep)
    code = main(["sweep", "--n", "1", "--dim", "2", "--samples", "5", "--out", str(tmp_path / "r.jsonl")])
    assert code == 4
    assert capsys.readouterr().err == f"error: {type(exc).__name__}: {exc}\n"


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--n", "9"])
    assert excinfo.value.code == 2


def _fail_on_sample_3(monkeypatch, raising):
    """Make np.linalg.eigh fail on any stack holding the state of sample 3 of
    the seed-3 complex dim-2 sweep, in whichever process its chunk runs
    (forked workers inherit the patch): raise LinAlgError, or return
    eigenvectors that fail the decomposition checks."""
    target = sample_state(RandomSpec(3, 2, "complex"), 3).matrix
    real_eigh = np.linalg.eigh

    def eigh(m):
        hit = np.abs(m - target).max(axis=(-2, -1)) < 1e-9 if m.shape[-2:] == (2, 2) else False
        if raising and np.any(hit):
            raise np.linalg.LinAlgError("no convergence")
        w, v = real_eigh(m)
        if np.any(hit):
            v = v.copy()
            v[hit] *= 2.0
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", eigh)


# sweep.CHUNK_SIZE at --parallelism 2: chunks of 4 put sample 3 in chunk 0,
# which the parent evaluates; chunks of 2 put it in chunk 1, which the one
# worker evaluates
parallel_chunk_sizes = pytest.mark.parametrize(
    "chunk_size", [4, 2], ids=["parent-chunk", "worker-chunk"]
)


def _assert_decomposition_failure_exits_four(tmp_path, capsys, monkeypatch, parallelism, chunk_size):
    monkeypatch.setattr(sweep, "CHUNK_SIZE", chunk_size)
    _fail_on_sample_3(monkeypatch, raising=False)
    code = main(
        ["sweep", "--n", "1", "--dim", "2", "--samples", "5", "--seed", "3",
         "--parallelism", str(parallelism), "--out", str(tmp_path / "records.jsonl")]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: sample 3: decomposition checks failed")
    assert not (tmp_path / "records.jsonl").exists()
    assert not (tmp_path / "records.jsonl.tmp").exists()


def test_decomposition_failure_exits_four_naming_the_sample(tmp_path, capsys, monkeypatch):
    _assert_decomposition_failure_exits_four(tmp_path, capsys, monkeypatch, 1, sweep.CHUNK_SIZE)


@parallel_chunk_sizes
def test_parallel_decomposition_failure_exits_four_naming_the_sample(
    tmp_path, capsys, monkeypatch, chunk_size
):
    _assert_decomposition_failure_exits_four(tmp_path, capsys, monkeypatch, 2, chunk_size)


def _assert_failed_sweep_leaves_file_untouched(tmp_path, monkeypatch, parallelism, chunk_size):
    out = tmp_path / "records.jsonl"
    args = ["sweep", "--n", "1", "--dim", "2", "--seed", "3", "--out", str(out),
            "--parallelism", str(parallelism), "--samples"]
    assert main(args + ["5"]) == 0
    before = out.read_bytes()
    monkeypatch.setattr(sweep, "CHUNK_SIZE", chunk_size)
    _fail_on_sample_3(monkeypatch, raising=True)
    assert main(args + ["9"]) == 4
    assert out.read_bytes() == before
    assert not (tmp_path / "records.jsonl.tmp").exists()


def test_failed_sweep_leaves_an_existing_file_untouched(tmp_path, monkeypatch):
    _assert_failed_sweep_leaves_file_untouched(tmp_path, monkeypatch, 1, sweep.CHUNK_SIZE)


@parallel_chunk_sizes
def test_failed_parallel_sweep_leaves_an_existing_file_untouched(tmp_path, monkeypatch, chunk_size):
    _assert_failed_sweep_leaves_file_untouched(tmp_path, monkeypatch, 2, chunk_size)
