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

from .matrices import DensityMatrix, as_integer, observable_stack
from .monotone import builtin
from .sampling import RandomSpec, sample_observables, sample_pure_state
from .volumes import evaluate_one

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

# verdict tolerances: the closed-form examples (entanglement, hessian) and
# the pure-state volume agreement
EXACT_VALUE_TOL = 1e-12
PURE_GAP_TOL = 1e-8


def entanglement_rows() -> list[dict]:
    """Covariance and f-correlation of (A, B) on both states, per function,
    from one kernel call per state."""
    functions = tuple(builtin(fid) for fid in EXAMPLE_FUNCTIONS)
    states = DensityMatrix(MIXTURE_STATE), DensityMatrix(ENTANGLED_STATE)
    obs = observable_stack(states[0], (OBSERVABLE_A, OBSERVABLE_B))
    mixture, entangled = (evaluate_one(state, obs, functions) for state in states)
    return [
        {
            "function": f.fid,
            "cov_mixture": float(mixture.cov_gram[0, 0, 1]),
            "corr_mixture": float(mixture.qfi_gram[k, 0, 0, 1]),
            "cov_entangled": float(entangled.cov_gram[0, 0, 1]),
            "corr_entangled": float(entangled.qfi_gram[k, 0, 0, 1]),
        }
        for k, f in enumerate(functions)
    ]


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


def hessian_generalized_variance(probabilities, x, y) -> np.ndarray:
    """Hessian of p -> Var_p(X) Var_p(Y) - Cov_p(X, Y)^2, unconstrained.

    Partial derivatives are taken in the ambient coordinates p_i without a
    simplex constraint; moments are linear in p, so second partials of the
    objective collect into the closed form below.  The result is symmetric
    and generally indefinite.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if p.ndim != 1 or xv.shape != p.shape or yv.shape != p.shape:
        raise ValueError("probabilities, x, y must be 1-d arrays of equal length")
    if np.any(p < 0.0):
        raise ValueError("probabilities must be nonnegative")
    if abs(float(p.sum()) - 1.0) > 1e-12:
        raise ValueError("probabilities must sum to 1 within 1e-12")
    ex = float(p @ xv)
    ey = float(p @ yv)
    var_x = float(p @ xv**2) - ex**2
    var_y = float(p @ yv**2) - ey**2
    cov = float(p @ (xv * yv)) - ex * ey
    u = xv**2 - 2.0 * ex * xv
    v = yv**2 - 2.0 * ey * yv
    w = xv * yv - ey * xv - ex * yv
    return (
        -2.0 * var_y * np.outer(xv, xv)
        - 2.0 * var_x * np.outer(yv, yv)
        + np.outer(u, v)
        + np.outer(v, u)
        - 2.0 * np.outer(w, w)
        + 2.0 * cov * (np.outer(xv, yv) + np.outer(yv, xv))
    )


def hessian_example() -> dict:
    hess = hessian_generalized_variance(HESSIAN_DISTRIBUTION, HESSIAN_X, HESSIAN_Y)
    along_distribution = float(HESSIAN_DISTRIBUTION @ hess @ HESSIAN_DISTRIBUTION)
    vertex = np.array([0.0, 1.0, 0.0])
    along_vertex = float(vertex @ hess @ vertex)
    return {
        "hessian": hess,
        "distribution_quadratic": along_distribution,
        "vertex_quadratic": along_vertex,
        "indefinite": along_distribution > 0.0 > along_vertex,
    }


def pure_volume_rows(dim, n, seed, draws=3) -> list[dict]:
    """Volume pairs for random pure states and random complex observables,
    from one kernel call per draw; the drawn observables are exactly
    self-adjoint already, so they go to the kernel as drawn."""
    draws = as_integer("draws", draws, 1)
    spec = RandomSpec(seed=seed, dim=dim, ensemble="density")
    functions = tuple(builtin(fid) for fid in EXAMPLE_FUNCTIONS)
    rows = []
    for draw in range(draws):
        state = sample_pure_state(seed, dim, draw)
        out = evaluate_one(state, np.stack(sample_observables(spec, draw, n)), functions)
        vol_cov = math.sqrt(max(0.0, float(out.cov_det[0])))
        for k, fid in enumerate(EXAMPLE_FUNCTIONS):
            vol_qfi = float(out.volume_qfi[k, 0])
            rows.append(
                {
                    "draw": draw,
                    "function": fid,
                    "volume_cov": vol_cov,
                    "volume_qfi": vol_qfi,
                    "volume_gap": abs(vol_cov - vol_qfi),
                    "det_gap": float(out.gap[k, 0]),
                }
            )
    return rows
