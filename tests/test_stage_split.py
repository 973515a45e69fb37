"""The per-stage kernel timer in tools/: every stage of a tiny kernel call
is timed and called, nothing is left unaccounted below zero, and the module
functions it wraps are put back.  It times with the bench's tracer."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stage_split.py"
_spec = importlib.util.spec_from_file_location("stage_split", TOOL)
stage_split = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_split)


def _bindings():
    return {
        (module, name): getattr(importlib.import_module(f"qfivol.{module}"), name)
        for _, module, names in stage_split.STAGES for name in names
    }


def test_every_stage_of_a_tiny_call_is_timed_and_restored():
    before = _bindings()
    # even n, so the _commutator_gram stage runs too
    split = stage_split.stage_split("complex", 2, 2, ["sld", "wy"], batch=8)
    assert _bindings() == before
    stages = [stage for stage, _, _ in stage_split.STAGES]
    assert list(split) == [*stages, "rest", "whole"]
    assert all(split[stage][1] >= 1 for stage in stages)
    # the state and observable build from their normals are stages, not rest
    assert split["_state_matrices"][1] == split["_observables"][1] == 1
    # the rest too: each stage's best is at most its time in the best whole call
    assert all(us >= 0.0 for us, _, _ in split.values())


def test_a_replay_sized_call_times_the_density_checks_apart():
    """A batch of one, the call a replay makes, runs every stage too, and
    density_stack's symmetrizer and checked eigh are stages of their own."""
    split = stage_split.stage_split("complex", 4, 2, ["wy"], batch=1)
    assert {"density_stack", "as_hermitian", "_checked_eigh"} <= set(split)
    assert all(split[stage][1] == 1 for stage in ("density_stack", "as_hermitian", "_checked_eigh"))
    assert all(calls is None or calls >= 1 for _, calls, _ in split.values())
    assert all(us >= 0.0 for us, _, _ in split.values())


def test_a_renamed_stage_fails_and_leaves_nothing_wrapped(monkeypatch):
    before = _bindings()
    stages = (*stage_split.STAGES[:2], ("_coordinates", "volumes", ("_coordinates", "no_such_stage")))
    monkeypatch.setattr(stage_split, "STAGES", stages)
    with pytest.raises(AttributeError, match="no_such_stage"):
        stage_split.stage_split("complex", 2, 2, ["sld"], batch=4)
    monkeypatch.undo()
    assert _bindings() == before


def test_prints_one_row_per_stage(capsys):
    assert stage_split.main(["--dim", "2", "--n", "1", "--functions", "wy", "--batch", "4"]) == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[2:]]
    assert rows == [stage for stage, _, _ in stage_split.STAGES] + ["rest", "whole"]


def test_shares_are_per_repeat_ratios_that_uniform_load_leaves_alone():
    """Slowing some repeats uniformly, every stage and the whole call by the
    same factor, leaves every median share as it was; the best of each
    stage would now come from other repeats than the best whole call."""
    spent = [{"a": 10, "b": 30}, {"a": 12, "b": 27}, {"a": 9, "b": 33}, {"a": 11, "b": 29}, {"a": 10, "b": 31}]
    wholes = [50, 48, 51, 47, 52]
    shares = stage_split.median_shares(spent, wholes)
    assert shares == {"a": 0.2, "b": 0.6, "rest": 9 / 48, "whole": 1.0}
    # powers of two, so every ratio keeps its bits
    factors = [4, 1, 2, 8, 1]
    slowed = [{stage: f * t for stage, t in times.items()} for f, times in zip(factors, spent)]
    slowed_wholes = [f * w for f, w in zip(factors, wholes)]
    assert stage_split.median_shares(slowed, slowed_wholes) == shares
    # a's best over the best whole call moves from 9 / 47 to 10 / 48
    assert min(t["a"] for t in slowed) / min(slowed_wholes) != min(t["a"] for t in spent) / min(wholes)


def test_prints_each_stage_share_of_the_call(capsys, monkeypatch):
    """The share column is the median share, not a best time over the best
    whole call."""
    split = {"a": (1.0, 1, 0.25), "rest": (0.5, None, 0.125), "whole": (4.0, None, 1.0)}
    monkeypatch.setattr(stage_split, "stage_split", lambda *args: split)
    assert stage_split.main(["--functions", "wy"]) == 0
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[2:]}
    assert [rows[stage][2] for stage in split] == ["25.0%", "12.5%", "100.0%"]


@pytest.mark.parametrize("n, functions, floats", [(1, ["wy"], 3), (2, ["sld", "wy"], 6), (3, ["sld"] * 6, 13)])
def test_floats_per_sample_counts_what_a_record_prints(n, functions, floats):
    assert stage_split.floats_per_sample(n, functions) == floats


def test_prints_the_formatting_stage_per_float(capsys):
    """Only the _format_batch row has a µs/float cell: its µs/sample over the
    (1 + 2F + [n even]) floats a sample prints, here 1 + 4 + 1."""
    assert stage_split.main(["--dim", "2", "--n", "2", "--functions", "sld,wy", "--batch", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-1] == "us/float"
    rows = {line.split()[0]: line.split() for line in lines[2:]}
    us, per_float = float(rows["_format_batch"][1]), float(rows["_format_batch"][4])
    assert per_float == pytest.approx(us / 6, abs=1e-3)
    assert all(len(row) == 4 for stage, row in rows.items() if stage not in ("_format_batch", "rest", "whole"))


def test_a_stage_raising_under_the_tracer_propagates_and_leaves_nothing_wrapped(monkeypatch):
    """The warm-up call runs untraced; the first timed call raises inside a
    stage, and the tracer puts every binding back on the way out."""
    sweep = importlib.import_module("qfivol.sweep")
    original = sweep._format_batch

    def failing(*args):
        if stage_split.tracing.installed_wrappers():
            raise RuntimeError("stage failed under the tracer")
        return original(*args)

    monkeypatch.setattr(sweep, "_format_batch", failing)
    before = _bindings()
    with pytest.raises(RuntimeError, match="stage failed under the tracer"):
        stage_split.stage_split("complex", 2, 2, ["sld"], batch=4)
    assert _bindings() == before
    assert stage_split.tracing.installed_wrappers() == []


def test_times_with_the_bench_tracer_and_wraps_nothing_itself(monkeypatch):
    bench = TOOL.parent.parent / "bench"
    assert Path(stage_split.tracing.__file__).resolve() == bench / "tracing.py"
    entered = []

    class Counting(stage_split.tracing.Tracer):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

    monkeypatch.setattr(stage_split.tracing, "Tracer", Counting)
    stage_split.stage_split("complex", 2, 1, ["wy"], batch=4)
    assert len(entered) == stage_split.REPEATS
    # no timer class, and no rebinding or wrapping of its own
    nodes = list(ast.walk(ast.parse(TOOL.read_text())))
    assert not [node for node in nodes if isinstance(node, ast.ClassDef)]
    assert "setattr" not in {node.id for node in nodes if isinstance(node, ast.Name)}
    assert "functools" not in {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
