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
    # even n, so the Robertson stage runs too
    split = stage_split.stage_split("complex", 2, 2, ["sld", "wy"], batch=8)
    assert _bindings() == before
    stages = [stage for stage, _, _ in stage_split.STAGES]
    assert list(split) == [*stages, "rest", "whole"]
    assert all(split[stage][1] >= 1 for stage in stages)
    # the rest too: each stage's best is at most its time in the best whole call
    assert all(us >= 0.0 for us, _ in split.values())


def test_a_renamed_stage_fails_and_leaves_nothing_wrapped(monkeypatch):
    before = _bindings()
    stages = (*stage_split.STAGES[:2], ("frames", "record_v3", ("frame_stack", "no_such_stage")))
    monkeypatch.setattr(stage_split, "STAGES", stages)
    with pytest.raises(AttributeError, match="no_such_stage"):
        stage_split.stage_split("complex", 2, 2, ["sld"], batch=4)
    monkeypatch.undo()
    assert _bindings() == before


def test_prints_one_row_per_stage(capsys):
    assert stage_split.main(["--dim", "2", "--n", "1", "--functions", "wy", "--batch", "4"]) == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[2:]]
    assert rows == [stage for stage, _, _ in stage_split.STAGES] + ["rest", "whole"]


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
