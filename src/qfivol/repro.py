"""Built-in worked examples with frozen expected values.

Three reproductions back the command line:

* a four-level pair of states (a rank-2 classical mixture and the maximally
  entangled pure state obtained by adding its off-diagonal coherences) where
  the covariance of two fixed observables cannot tell the states apart but
  the f-correlation drops to zero exactly on the mixture,
* the Hessian of the generalized variance at the flat three-point
  distribution, which is indefinite (positive along the distribution itself,
  negative along a vertex direction),
* the pure-state volume identity: for rank-1 states the covariance and
  metric volumes coincide for every regular function.
"""

from __future__ import annotations

import math

import numpy as np

from .matrices import DensityMatrix
from .metrics import covariance, f_correlation, metric_context
from .monotone import builtin
from .sampling import RandomSpec, sample_observables, sample_pure_state
from .volumes import (
    GramSpec,
    hessian_generalized_variance,
    quadratic_form,
    volume_gap,
)

MIXTURE_STATE = np.diag([0.5, 0.0, 0.0, 0.5])
ENTANGLED_STATE = 0.5 * np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    ]
)
OBSERVABLE_A = np.diag([1.0, 1.0, -1.0, -1.0])
OBSERVABLE_B = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [0.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, -1.0],
    ]
)

EXAMPLE_FUNCTIONS = ("sld", "wy", "wyd:0.25")

EXPECTED_COVARIANCE = 1.0
EXPECTED_MIXTURE_CORRELATION = 0.0
EXPECTED_ENTANGLED_CORRELATION = 1.0

HESSIAN_DISTRIBUTION = np.array([1.0, 1.0, 1.0]) / 3.0
HESSIAN_X = np.array([1.0, 0.0, -1.0])
HESSIAN_Y = np.array([1.0, -2.0, 1.0])
EXPECTED_DISTRIBUTION_QUADRATIC = 8.0 / 3.0
EXPECTED_VERTEX_QUADRATIC = -16.0 / 3.0

PURE_GAP_TOL = 1e-8


def entanglement_rows(function_ids=EXAMPLE_FUNCTIONS) -> list[dict]:
    """Covariance and f-correlation of (A, B) on both states, per function."""
    mixture = DensityMatrix(MIXTURE_STATE)
    entangled = DensityMatrix(ENTANGLED_STATE)
    rows = []
    for fid in function_ids:
        f = builtin(fid)
        rows.append(
            {
                "function": f.fid,
                "cov_mixture": covariance(mixture, OBSERVABLE_A, OBSERVABLE_B),
                "corr_mixture": f_correlation(
                    metric_context(mixture, f), OBSERVABLE_A, OBSERVABLE_B
                ),
                "cov_entangled": covariance(entangled, OBSERVABLE_A, OBSERVABLE_B),
                "corr_entangled": f_correlation(
                    metric_context(entangled, f), OBSERVABLE_A, OBSERVABLE_B
                ),
            }
        )
    return rows


def entanglement_errors(rows) -> float:
    """Largest deviation of the example rows from their expected values."""
    worst = 0.0
    for row in rows:
        worst = max(
            worst,
            abs(row["cov_mixture"] - EXPECTED_COVARIANCE),
            abs(row["corr_mixture"] - EXPECTED_MIXTURE_CORRELATION),
            abs(row["cov_entangled"] - EXPECTED_COVARIANCE),
            abs(row["corr_entangled"] - EXPECTED_ENTANGLED_CORRELATION),
        )
    return worst


def hessian_example() -> dict:
    hess = hessian_generalized_variance(HESSIAN_DISTRIBUTION, HESSIAN_X, HESSIAN_Y)
    along_distribution = quadratic_form(hess, HESSIAN_DISTRIBUTION)
    vertex = np.array([0.0, 1.0, 0.0])
    along_vertex = quadratic_form(hess, vertex)
    return {
        "hessian": hess,
        "distribution_quadratic": along_distribution,
        "vertex_quadratic": along_vertex,
        "indefinite": along_distribution > 0.0 > along_vertex,
    }


def pure_volume_rows(dim, n, seed, draws=3, function_ids=EXAMPLE_FUNCTIONS) -> list[dict]:
    """Volume pairs for random pure states and random complex observables."""
    spec = RandomSpec(seed=seed, dim=dim, ensemble="density")
    rows = []
    for draw in range(draws):
        state = sample_pure_state(seed, dim, draw)
        observables = sample_observables(spec, draw, n)
        for fid in function_ids:
            report = volume_gap(GramSpec(state, observables, builtin(fid)))
            vol_cov = math.sqrt(max(0.0, report.cov_det))
            vol_qfi = math.sqrt(max(0.0, report.qfi_det))
            rows.append(
                {
                    "draw": draw,
                    "function": fid,
                    "volume_cov": vol_cov,
                    "volume_qfi": vol_qfi,
                    "volume_gap": abs(vol_cov - vol_qfi),
                    "det_gap": report.gap,
                }
            )
    return rows
