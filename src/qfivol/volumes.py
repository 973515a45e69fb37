"""The public single-spec API: Gram determinant volumes, the
covariance-metric gap, and its verdicts.

For observables A_1..A_N and a regular function f, two Gram matrices are
compared: the covariance Gram {Cov(A_h, A_j)} and the metric-bound Gram
{Cov(A_h, A_j) - sum m_tilde(lam_u, lam_v) Re{a_uv b_vu}}, whose determinant
equals that of the scaled commutator inner products.  The gap between the
two determinants is nonnegative for every N, so the covariance ellipsoid
volume dominates the metric one: proved by A. Andai, J. Math. Phys. 49,
012106 (2008), and by P. Gibilisco, F. Hiai and D. Petz, IEEE Trans. Inf.
Theory 55, 439 (2009).

Every entry point (sweeps, replay, volume_gap, check_inequalities,
robertson_bound, observables_dependent, and the covariance and correlation
of qfivol.metrics) computes its Grams, determinants and verdicts through one
kernel, record_v3.evaluate_batch, over a stack of samples; no other module
forms a Gram matrix.  This module calls it on a batch of one.  The
independent H * K decomposition of the gap lives with the other test oracles
in qfivol.oracles, which the kernel never imports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import DensityMatrix, observable_stack
from .monotone import MonotoneFunction, require_regular, tilde_order
from .monotone import mean_table  # noqa: F401  bench/tests traces it through this namespace
from .record_v3 import BatchReport, evaluate_batch


@dataclass(frozen=True)
class GramSpec:
    """A state, its observables, and a regular monotone function.

    ``observables`` may be any sequence of matrices; it is stored as one
    validated, exactly self-adjoint (n, d, d) array.
    """

    state: DensityMatrix
    observables: np.ndarray
    function: MonotoneFunction

    def __post_init__(self):
        object.__setattr__(self, "observables", observable_stack(self.state, self.observables))
        require_regular(self.function, "GramSpec function")


@dataclass(frozen=True)
class VolumeReport:
    """Both Gram matrices, their determinants, and the gap between them."""

    cov_gram: np.ndarray
    qfi_gram: np.ndarray
    cov_det: float
    qfi_det: float
    gap: float
    robertson_det: float | None


def evaluate_one(state: DensityMatrix, observables, functions) -> BatchReport:
    """Batch-of-one kernel call on a validated (n, d, d) observable stack."""
    return evaluate_batch(state.matrix[None], state.eigenvalues[None], state.eigenvectors[None],
                          observables[None], functions)


def _volume_report(out: BatchReport) -> VolumeReport:
    rob = None if out.robertson_det is None else float(out.robertson_det[0])
    dets = (float(out.cov_det[0]), float(out.qfi_det[0, 0]), float(out.gap[0, 0]))
    return VolumeReport(out.cov_gram[0], out.qfi_gram[0, 0], *dets, rob)


def volume_gap(spec: GramSpec) -> VolumeReport:
    """Fill both Grams, both determinants, and the gap.

    The Robertson determinant is included for even observable counts.  The
    gap's independent route, the H*K decomposition, is the test oracle
    oracles.gap_from_decomposition.
    """
    return _volume_report(evaluate_one(spec.state, spec.observables, (spec.function,)))


def robertson_bound(state: DensityMatrix, observables) -> float:
    """Determinant of the averaged commutator matrix; exactly 0 for odd N.

    The matrix entries are -(i/2) Tr(rho [A_h, A_j]), real and antisymmetric,
    so the determinant vanishes identically for odd N and gives the classical
    lower bound for even N.  This is the kernel's own value on a batch of one.
    """
    obs = observable_stack(state, observables)
    det = evaluate_one(state, obs, ()).robertson_det
    return 0.0 if det is None else float(det[0])


def observables_dependent(state: DensityMatrix, observables) -> bool:
    """Real-linear dependence of the centered observables.

    Thresholds the smallest singular value of their real coordinates (see
    matrices.real_coordinates) at record_v3.DEPENDENCE_SV_TOL; self-adjoint matrices
    form a real vector space, so dependence is over real coefficients.  This
    is the kernel's own verdict on a batch of one: a Gram-determinant screen
    decides most inputs and the SVD the rest, with the SVD's own flag.
    """
    obs = observable_stack(state, observables)
    return bool(evaluate_one(state, obs, ()).dependent[0])


def order_pairs(functions) -> tuple:
    """Resolvable ordered pairs (i, j) meaning volume_i >= volume_j must hold."""
    pairs = []
    for i in range(len(functions)):
        for j in range(i + 1, len(functions)):
            order = tilde_order(functions[i], functions[j])
            if order.first_le_second:
                pairs.append((i, j))
            if order.second_le_first:
                pairs.append((j, i))
    return tuple(pairs)


@dataclass(frozen=True)
class InequalityVerdict:
    """Outcome flags for one configuration; every outcome is data.

    candidate_counterexample mirrors (not main_holds): a negative gap beyond
    tolerance is recorded for later replay rather than raised.  The
    inequality is proved for every N (see the module docstring), so a
    candidate points at a numerical defect, not at a counterexample.
    """

    report: VolumeReport
    scale: float
    main_holds: bool
    dependent: bool
    equality_consistent: bool
    monotonicity_holds: bool | None
    candidate_counterexample: bool


def check_inequalities(spec: GramSpec, partner: MonotoneFunction | None = None) -> InequalityVerdict:
    """Evaluate the volume inequality and its side conditions for one spec.

    main_holds:     gap >= -1e-10 * scale with scale = max(1, |cov_det|).
    dependent:      centered observables numerically dependent.
    equality_consistent: dependence implies |gap| <= 1e-8 * scale (the
                    proved direction of the equality characterization).
    monotonicity_holds: with a partner g, the qfi volumes respect every
                    grid-resolvable tilde ordering; None when incomparable,
                    and None when N exceeds commutator_rank, where both
                    metric Grams are singular by theory.
    The function and its partner share one kernel call; a partner that is
    not regular is refused before it.
    """
    functions = (spec.function,)
    if partner is not None:
        functions += (require_regular(partner, "monotonicity partner"),)
    out = evaluate_one(spec.state, spec.observables, functions)
    pairs = order_pairs(functions)
    mono = None
    if pairs and not out.rank_deficient:
        mono = bool(out.violations(pairs)[0] == 0)
    main = bool(out.main_holds[0, 0])
    return InequalityVerdict(
        report=_volume_report(out),
        scale=float(out.scale[0]),
        main_holds=main,
        dependent=bool(out.dependent[0]),
        equality_consistent=bool(out.equality_consistent[0, 0]),
        monotonicity_holds=mono,
        candidate_counterexample=not main,
    )
