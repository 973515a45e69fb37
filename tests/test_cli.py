"""End-to-end tests for the command line interface."""

import json

import numpy as np
import pytest

from qfivol.cli import main


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


def test_pure_volume_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("QFIVOL_SEED", "17")
    assert main(["repro", "pure-volume"]) == 0
    assert "seed=17" in capsys.readouterr().out


def test_bad_environment_seed_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("QFIVOL_SEED", "not-a-number")
    assert main(["repro", "pure-volume"]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_replay_missing_file_exits_two(capsys, tmp_path):
    assert main(["replay", "--record", f"{tmp_path}/absent.jsonl:1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_replay_malformed_target_exits_two(capsys):
    assert main(["replay", "--record", "no-line-number"]) == 2
    assert "FILE:LINE" in capsys.readouterr().err
    assert main(["replay", "--record", "file:abc"]) == 2
    assert "invalid line number" in capsys.readouterr().err


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
     ({"ensemble": "pauli-like-structured", "n": 2}, "the structured ensemble requires n = 3")],
)
def test_replay_checks_the_record_before_drawing(tmp_path, capsys, monkeypatch, fields, message):
    out = _edited_record(tmp_path, **fields)
    capsys.readouterr()

    def no_draw(*args):
        raise AssertionError("replay drew a sample before checking its record")

    monkeypatch.setattr("qfivol.sweep.draw_samples", no_draw)
    assert main(["replay", "--record", f"{out}:1"]) == 2
    assert capsys.readouterr().err == f"error: line 1: {message}\n"


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--n", "9"])
    assert excinfo.value.code == 2


def test_decomposition_failure_exits_four_naming_the_sample(tmp_path, capsys, monkeypatch):
    real_eigh = np.linalg.eigh

    def eigh_breaking_sample_3(m):
        w, v = real_eigh(m)
        if m.ndim == 3 and len(m) > 3:
            v = v.copy()
            v[3] *= 2.0
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", eigh_breaking_sample_3)
    code = main(
        ["sweep", "--n", "1", "--dim", "2", "--samples", "5", "--seed", "3",
         "--out", str(tmp_path / "records.jsonl")]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: sample 3: decomposition checks failed")
    assert not (tmp_path / "records.jsonl").exists()
    assert not (tmp_path / "records.jsonl.tmp").exists()


def test_failed_sweep_leaves_an_existing_file_untouched(tmp_path, monkeypatch):
    out = tmp_path / "records.jsonl"
    args = ["sweep", "--n", "1", "--dim", "2", "--seed", "3", "--out", str(out), "--samples"]
    assert main(args + ["5"]) == 0
    before = out.read_bytes()

    def failing_eigh(m):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    assert main(args + ["9"]) == 4
    assert out.read_bytes() == before
    assert not (tmp_path / "records.jsonl.tmp").exists()
