"""Workload parameters and metric definitions of the qfivol benchmark.

Plain data only.  ``README.md`` gives the reason behind each workload and
metric.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One workload: a sweep config and how its time is spent.

    Every workload also replays seeded random lines of a record file and
    checks fresh two-observable draws of its own ensemble and dim (``wy``
    against partner ``sld``).  With ``timed_sweeps`` the record file is the
    output of the timed sweeps; without, it is built once per process in
    set-up.
    """

    ensemble: str
    dim: int
    n: int
    functions: tuple
    samples: int
    parallelism: int
    timed_sweeps: bool
    # fixed work of one traced (and one untraced) pass: a serial sweep of
    # trace_samples samples, then trace_pairs replay/check pairs
    trace_samples: int
    trace_pairs: int


WORKLOADS = {
    "sweep-complex-d3n3": Workload(
        ensemble="complex",
        dim=3,
        n=3,
        functions=("sld", "wy", "wyd:0.25"),
        samples=512,
        parallelism=1,
        timed_sweeps=True,
        trace_samples=256,
        trace_pairs=16,
    ),
    "sweep-real-d8n2-wide": Workload(
        ensemble="real",
        dim=8,
        n=2,
        functions=("sld", "wy", "wyd:0.05", "wyd:0.1", "wyd:0.25", "wyd:0.4"),
        samples=512,
        parallelism=2,
        timed_sweeps=True,
        trace_samples=256,
        trace_pairs=8,
    ),
    "replay-check": Workload(
        ensemble="complex",
        dim=4,
        n=2,
        functions=("wy", "sld"),
        samples=4096,
        parallelism=1,
        timed_sweeps=False,
        trace_samples=64,
        trace_pairs=32,
    ),
}

# End-to-end metrics, measured with tracing off: name -> unit.  Times are in
# refs, multiples of the reference kernel's wall time measured between ops
# (see harness.Reference); the wall-clock figures are printed beside them.
END_TO_END = {
    "setup_s": "s",
    "samples_per_ref": "1/ref",
    "replay_ref.p50": "ref",
    "replay_ref.p90": "ref",
    "check_ref.p50": "ref",
    "check_ref.p90": "ref",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics of the traced pass: (name, traced function, quantity,
# scope).  The scope names the ops whose spans count and whose size divides
# the total: "sweep" per sweep sample, "check" per check call, "replay" per
# replay call.
LAYER_METRICS = (
    ("sampling.sample_state.self_us", "sampling.sample_state", "self_us", "sweep"),
    ("sampling.sample_observables.self_us", "sampling.sample_observables", "self_us", "sweep"),
    ("matrices.spectral_decompose.self_us", "matrices.spectral_decompose", "self_us", "sweep"),
    ("matrices.as_hermitian.self_us", "matrices.as_hermitian", "self_us", "sweep"),
    ("matrices.as_hermitian.calls", "matrices.as_hermitian", "calls", "sweep"),
    ("matrices.to_eigenframe.self_us", "matrices.to_eigenframe", "self_us", "sweep"),
    ("matrices.det_small.self_us", "matrices.det_small", "self_us", "sweep"),
    ("sweep.evaluate_sample.self_us", "sweep.evaluate_sample", "self_us", "sweep"),
    ("monotone.mean_table.self_us", "monotone.mean_table", "self_us", "sweep"),
    ("monotone.mean_table.calls", "monotone.mean_table", "calls", "sweep"),
    ("monotone.mean_table.check_self_us", "monotone.mean_table", "self_us", "check"),
    ("monotone.mean_table.check_calls", "monotone.mean_table", "calls", "check"),
    ("sweep.format_record.self_us", "sweep.format_record", "self_us", "sweep"),
    ("sweep.run_sweep.self_us", "sweep.run_sweep", "self_us", "sweep"),
    ("volumes.observables_dependent.self_us", "volumes.observables_dependent", "self_us", "sweep"),
    # odd n never calls it in a sweep, so it reads 0 on sweep-complex-d3n3
    ("volumes.robertson_bound.self_us", "volumes.robertson_bound", "self_us", "sweep"),
    ("volumes.check_inequalities.self_us", "volumes.check_inequalities", "self_us", "check"),
    ("volumes.volume_gap.self_us", "volumes.volume_gap", "self_us", "check"),
    ("metrics.metric_context.self_us", "metrics.metric_context", "self_us", "check"),
    ("sweep.replay_record.self_ms", "sweep.replay_record", "self_ms", "replay"),
)

QUANTITY_UNITS = {"self_us": "us", "self_ms": "ms", "calls": "count"}

# per-layer metrics that do not come from span self times: name -> unit
EXTRA_LAYER_METRICS = {
    "sweep.replay_record.bytes_read": "bytes",
    "trace.overhead_ratio": "ratio",
}


def layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {name: QUANTITY_UNITS[quantity] for name, _, quantity, _ in LAYER_METRICS}
    units.update(EXTRA_LAYER_METRICS)
    return units
