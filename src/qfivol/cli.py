"""Command line interface: reproductions, catalog, sweeps, and replay.

Exit codes: 0 success, 2 a frozen-value assertion or replay comparison
failed or an input was unusable (argparse also uses 2 for usage errors), 3 a
sweep run with --strict recorded at least one candidate counterexample, 4 a
runtime failure such as an eigendecomposition that failed its checks (the
message names the sample) or a sweep worker that died.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import repro
from .matrices import DecompositionError
from .monotone import builtin
from .sweep import SweepConfig, replay_record, run_sweep

ENV_SEED = "QFIVOL_SEED"
ENV_PARALLELISM = "QFIVOL_PARALLELISM"
DEFAULT_SEED = 42
DEFAULT_PARALLELISM = 1

EXIT_OK = 0
EXIT_VALUE_MISMATCH = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_RUNTIME_ERROR = 4

CATALOG_IDS = ("sld", "wy", "rld", "wyd:0.25", "wyd:0.1")


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment variable {name} must be an integer, got {raw!r}")


def _resolve_seed(value) -> int:
    return value if value is not None else _env_int(ENV_SEED, DEFAULT_SEED)


def _resolve_parallelism(value) -> int:
    return value if value is not None else _env_int(ENV_PARALLELISM, DEFAULT_PARALLELISM)


def cmd_list_functions(_args) -> int:
    header = f"{'id':<10} {'regular':<8} {'f(0)':<8} {'formula':<42} tilde"
    print(header)
    print("-" * len(header))
    for fid in CATALOG_IDS:
        f = builtin(fid)
        tilde_desc = f.tilde_closed_form.formula if f.regular else "(undefined)"
        print(
            f"{f.fid:<10} {('yes' if f.regular else 'no'):<8} "
            f"{f.value_at_zero:<8g} {f.formula:<42} {tilde_desc}"
        )
    print()
    print("wyd:BETA accepts any beta in (0, 0.5); rld admits no tilde transform.")
    return EXIT_OK


def cmd_repro_entanglement(_args) -> int:
    rows = repro.entanglement_rows()
    print("four-level example: covariance vs f-correlation")
    print(f"{'function':<10} {'cov(mix)':>12} {'corr(mix)':>12} {'cov(ent)':>12} {'corr(ent)':>12}")
    for row in rows:
        print(
            f"{row['function']:<10} {row['cov_mixture']:>12.8f} "
            f"{row['corr_mixture']:>12.8f} {row['cov_entangled']:>12.8f} "
            f"{row['corr_entangled']:>12.8f}"
        )
    worst = repro.entanglement_errors(rows)
    ok = worst <= repro.EXACT_VALUE_TOL
    print(f"expected (1, 0, 1, 1) per row; worst deviation {worst:.3e} "
          f"-> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VALUE_MISMATCH


def cmd_repro_hessian(_args) -> int:
    result = repro.hessian_example()
    rho_quad = result["distribution_quadratic"]
    vertex_quad = result["vertex_quadratic"]
    print("hessian of the generalized variance at p = (1/3, 1/3, 1/3)")
    print(f"quadratic form along p:        {rho_quad:+.15f} (expected +8/3)")
    print(f"quadratic form along vertex:   {vertex_quad:+.15f} (expected -16/3)")
    print(f"indefinite: {result['indefinite']}")
    worst = max(
        abs(rho_quad - repro.EXPECTED_DISTRIBUTION_QUADRATIC),
        abs(vertex_quad - repro.EXPECTED_VERTEX_QUADRATIC),
    )
    ok = worst <= repro.EXACT_VALUE_TOL and result["indefinite"]
    print(f"worst deviation {worst:.3e} -> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VALUE_MISMATCH


def cmd_repro_pure_volume(args) -> int:
    seed = _resolve_seed(args.seed)
    rows = repro.pure_volume_rows(args.dim, args.n, seed, draws=args.draws)
    print(f"pure-state volumes: dim={args.dim} n={args.n} seed={seed}")
    print(f"{'draw':<5} {'function':<10} {'vol(cov)':>14} {'vol(qfi)':>14} {'|diff|':>10}")
    worst = 0.0
    for row in rows:
        worst = max(worst, row["volume_gap"])
        print(
            f"{row['draw']:<5} {row['function']:<10} {row['volume_cov']:>14.10f} "
            f"{row['volume_qfi']:>14.10f} {row['volume_gap']:>10.2e}"
        )
    ok = worst <= repro.PURE_GAP_TOL
    print(f"volumes agree within {repro.PURE_GAP_TOL:.0e}: worst {worst:.3e} "
          f"-> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VALUE_MISMATCH


def cmd_sweep(args) -> int:
    config = SweepConfig(
        n=args.n,
        dim=args.dim,
        samples=args.samples,
        functions=tuple(s for s in args.functions.split(",") if s),
        ensemble=args.ensemble,
        seed=_resolve_seed(args.seed),
        parallelism=_resolve_parallelism(args.parallelism),
    )
    summary = run_sweep(config, args.out)
    print(f"sweep: {summary.records} records from {summary.samples} samples -> {args.out}")
    print(f"min gap {summary.min_gap:.6e} at index {summary.argmin_index} "
          f"({summary.argmin_function})")
    print(f"candidate counterexamples: {summary.candidate_counterexamples}")
    print(f"monotonicity violations:   {summary.monotonicity_violations}")
    for fid, stats in summary.per_function.items():
        print(f"  {fid:<10} min {stats['min_gap']:+.6e}  mean {stats['mean_gap']:+.6e}  "
              f"candidates {stats['candidates']}")
    print(f"elapsed: {summary.elapsed:.2f}s")
    if args.strict and summary.candidate_counterexamples > 0:
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def cmd_replay(args) -> int:
    target = args.record
    if ":" not in target:
        raise ValueError("--record expects FILE:LINE")
    path, _, line_text = target.rpartition(":")
    try:
        line_number = int(line_text)
    except ValueError:
        raise ValueError(f"invalid line number {line_text!r}")
    result = replay_record(path, line_number)
    stored = result["stored"]
    print(f"replaying index {stored['index']} function {stored['function']} "
          f"({stored['ensemble']}, dim {stored['dim']}, n {stored['n']})")
    if result["mismatches"]:
        print("MISMATCH: stored vs recomputed")
        for key, (old, new) in result["mismatches"].items():
            print(f"  {key}: {old!r} != {new!r}")
        return EXIT_VALUE_MISMATCH
    print("record reproduced bit-for-bit")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfivol",
        description="metric volumes from operator monotone functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    repro_parser = sub.add_parser("repro", help="run a built-in reproduction")
    repro_sub = repro_parser.add_subparsers(dest="example", required=True)
    ent = repro_sub.add_parser(
        "entanglement", help="four-level covariance vs f-correlation example"
    )
    ent.set_defaults(handler=cmd_repro_entanglement)
    hes = repro_sub.add_parser(
        "hessian", help="indefinite Hessian of the generalized variance"
    )
    hes.set_defaults(handler=cmd_repro_hessian)
    pure = repro_sub.add_parser(
        "pure-volume", help="pure states: covariance and metric volumes agree"
    )
    pure.add_argument("--dim", type=int, default=3)
    pure.add_argument("--n", type=int, default=2)
    pure.add_argument("--seed", type=int, default=None,
                      help=f"default from ${ENV_SEED} or {DEFAULT_SEED}")
    pure.add_argument("--draws", type=int, default=3)
    pure.set_defaults(handler=cmd_repro_pure_volume)

    sweep_parser = sub.add_parser("sweep", help="random sweep writing replayable records")
    sweep_parser.add_argument("--n", type=int, required=True, help="1..8 (3 for structured)")
    sweep_parser.add_argument("--dim", type=int, required=True)
    sweep_parser.add_argument("--samples", type=int, required=True)
    sweep_parser.add_argument("--functions", default="sld,wy,wyd:0.25",
                              help="comma-separated regular functions")
    sweep_parser.add_argument("--ensemble", default="complex",
                              help="complex | real | structured, or a base tag (density, "
                                   "real-density, pauli-like-structured)")
    sweep_parser.add_argument("--seed", type=int, default=None,
                              help=f"default from ${ENV_SEED} or {DEFAULT_SEED}")
    sweep_parser.add_argument("--parallelism", type=int, default=None,
                              help="processes that evaluate chunks, this one included; "
                                   f"default from ${ENV_PARALLELISM} or {DEFAULT_PARALLELISM}")
    sweep_parser.add_argument("--out", required=True, help="record file path")
    sweep_parser.add_argument("--strict", action="store_true",
                              help="exit 3 when candidate counterexamples are found")
    sweep_parser.set_defaults(handler=cmd_sweep)

    list_parser = sub.add_parser("list-functions", help="catalog of builtin functions")
    list_parser.set_defaults(handler=cmd_list_functions)

    replay_parser = sub.add_parser("replay", help="recompute one sweep record")
    replay_parser.add_argument("--record", required=True, metavar="FILE:LINE")
    replay_parser.set_defaults(handler=cmd_replay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALUE_MISMATCH
    except DecompositionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    except Exception as exc:
        # any other failure, such as a sweep worker that died
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
