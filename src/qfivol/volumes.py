"""The public single-spec API: Gram determinant volumes, the
covariance-metric gap, and its verdicts.

For observables A_1..A_N and a regular function f, two Gram matrices are
compared: the covariance Gram {Cov(A_h, A_j)} and the metric Gram {(f(0)/2)
<i[rho,A_h], i[rho,A_j]>_f} = {Cov(A_h, A_j) - sum m_tilde(lam_u, lam_v)
Re{a_uv b_vu}}.  The gap between the two determinants is nonnegative for
every N, so the covariance ellipsoid volume dominates the metric one: proved
by A. Andai, J. Math. Phys. 49, 012106 (2008), and by P. Gibilisco, F. Hiai
and D. Petz, IEEE Trans. Inf. Theory 55, 439 (2009).

Two kernels form these Grams, and no other module forms one.
record_v3.evaluate_batch writes and replays the version-3 records, bit for
bit, and forms the metric Gram by that subtraction.  coordinate_batch here,
the live kernel, serves every single-spec call (volume_gap,
check_inequalities, robertson_bound, observables_dependent, the covariance
and correlation of qfivol.metrics, and the repro rows) on a batch of one:
in the real coordinates Y of the centered eigenframes each Gram is
Y diag(w) Y^T with weights w >= 0, with no subtraction to lose digits where
the metric Gram is far smaller than the covariance, as near the maximally
mixed state.  Y is one gather from the uncentered eigenframes U^dagger A U,
whose d diagonal entries alone are then centered, by the mean the
eigenframe itself gives; the dependence flag is record_v3's Gram screen on
Y, with an SVD only for a sample the screen cannot clear.  The independent
H * K decomposition of the gap lives with the other test oracles in
qfivol.oracles, which neither kernel imports."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .matrices import DensityMatrix, det_small, eigenframes, observable_stack, pair_indices
from .monotone import MonotoneFunction, require_regular, tilde_order
from .monotone import mean_table  # noqa: F401  bench/tests traces it through this namespace
from .record_v3 import (
    EQUALITY_RTOL,
    MAIN_INEQUALITY_SLACK,
    BatchReport,
    _dependent,
    _volume,
    commutator_rank,
)


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


def coordinate_grams(eigenvalues, eigenvectors, observables, functions):
    """The coordinates Y of a stack's centered eigenframes, shaped (B, n,
    d^2), and its (1 + F, B, n, n) Grams from one stacked product: the
    covariance Gram Y diag(c) Y^T, then per function the metric Gram
    Y diag(q_f) Y^T.

    Y holds each diagonal entry, then Re and Im of each entry above it, so
    no coordinate is rounded and the pair weights carry the factor 2 of
    a_uv conj(b_uv) + a_vu conj(b_vu).  It is one gather from the
    uncentered eigenframes U^dagger A U (_coordinates), and only its d
    diagonal entries are then centered, by the mean the eigenframe itself
    gives on the clamped spectrum the weights read.  Inputs are as
    record_v3.evaluate_batch takes them, less the state, which no product
    here reads; each Gram has the same bits whatever the batch and the
    functions beside it.
    """
    y = _coordinates(eigenvalues, eigenvectors, observables)
    return y, (y * _weights(eigenvalues, functions)) @ y.swapaxes(-1, -2)


@functools.lru_cache
def _gather(dim: int) -> np.ndarray:
    """Where Y's coordinates sit in a (d, d) complex frame read as 2 d^2
    floats: the real part of each diagonal entry, then Re, then Im, of each
    entry above it (pair_indices order)."""
    rows, cols = pair_indices(dim, 1)
    upper = 2 * (rows * dim + cols)
    return np.concatenate([2 * (dim + 1) * np.arange(dim), upper, upper + 1])


def _coordinates(eigenvalues, eigenvectors, observables) -> np.ndarray:
    """(B, n, d^2) coordinates Y of the centered eigenframes: one take from
    the uncentered frames, promoted once to complex128 (real, float32 and
    complex64 inputs alike) and read as floats; then each diagonal block
    minus its mean sum_u lam_u a_uu / sum_u lam_u.  A pair entry of a frame
    does not move when A moves by a multiple k I, so only the diagonal needs
    the mean; dividing by the clamped trace, which falls short of 1 by any
    eigenvalue clamped to 0, keeps the diagonal's shift exactly k, so a
    dependent set stays dependent after any such move."""
    frames = eigenframes(eigenvectors, observables).astype(np.complex128, copy=False)
    dim = frames.shape[-1]
    y = frames.view(np.float64).reshape(*frames.shape[:-2], -1).take(_gather(dim), axis=-1)
    y[..., :dim] -= (y[..., :dim] @ eigenvalues[:, :, None]) / eigenvalues.sum(-1)[:, None, None]
    return y


def _rank(rho, observables) -> int:
    """commutator_rank of a stack's state and observables: real when the
    state and every observable are."""
    return commutator_rank(rho.shape[-1], not (np.iscomplexobj(rho) or np.iscomplexobj(observables)))


def _dependence(y, dim: int, rank: int) -> np.ndarray:
    """record_v3's dependence flags, by its own _dependent on its
    coordinates: Y with each pair coordinate scaled, in place, by sqrt(2),
    the Frobenius isometry its threshold reads.  A Gram screen comes first,
    an SVD runs only on the samples it leaves, and n at or above the span
    (rank + d) is dependent with neither."""
    y[..., dim:] *= math.sqrt(2.0)
    return _dependent(y, rank + dim)


def _weights(eigenvalues, functions) -> np.ndarray:
    """(1 + F, B, 1, d^2) weights of the coordinates, whose d diagonal entries
    come first, then the pairs u < v twice (Re, then Im).  The covariance's
    c is lam on the diagonal and lam_u + lam_v on a pair; a function's q_f is
    0 on the diagonal and f(0) (lam_u - lam_v)^2 / (lam_u f(lam_v / lam_u))
    on a pair, 0 where lam_u = 0, and exactly c = lam_u where lam_v = 0 alone
    if f's evaluator returns exactly ``value_at_zero`` at 0, as every
    builtin's does.  The spectrum is descending, so each ratio lies in [0, 1]
    and f is read through its unit_evaluate; every weight is >= 0 and none is
    a difference of two."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    dim = lam.shape[-1]
    rows, cols = pair_indices(dim, 1)
    hi, lo = lam.take(rows, axis=-1), lam.take(cols, axis=-1)
    weights = np.zeros((1 + len(functions), len(lam), 1, dim * dim))
    weights[0, :, 0, :dim] = lam
    pairs = weights[:, :, 0, dim:dim + len(rows)]
    np.add(hi, lo, out=pairs[0])
    if functions:
        # lam_v = lam_u = 0 where lam_u = 0, so dividing by 1 there gives q = 0
        safe = np.where(hi > 0.0, hi, 1.0)
        ratio, gap = lo / safe, hi - lo
        square = gap * (gap / safe)
        for k, f in enumerate(functions, 1):
            unit = np.asarray(f.unit_evaluate(ratio), dtype=np.float64)
            np.multiply(square, f.value_at_zero / unit, out=pairs[k])
    weights[:, :, 0, dim + len(rows):] = pairs
    return weights


def _commutator_gram(y, eigenvalues) -> np.ndarray:
    """Robertson matrices -(i/2) Tr(rho [A_h, A_j]) from the coordinates Y
    and the spectrum: the sum over pairs u < v of (lam_u - lam_v) Im(a_uv
    conj(b_uv)), which is Y_im D Y_re^T - Y_re D Y_im^T with D = diag(lam_u -
    lam_v); exactly antisymmetric, and exactly 0 where Y_im is."""
    dim = eigenvalues.shape[-1]
    rows, cols = pair_indices(dim, 1)
    gaps = eigenvalues.take(rows, axis=-1) - eigenvalues.take(cols, axis=-1)
    re, im = y[..., dim:dim + len(rows)], y[..., dim + len(rows):]
    half = (im * gaps[:, None]) @ re.swapaxes(-1, -2)
    return half - half.swapaxes(-1, -2)


def coordinate_batch(rho, eigenvalues, eigenvectors, observables, functions) -> BatchReport:
    """The live kernel: the report of record_v3.evaluate_batch, with its
    inputs, thresholds and verdicts, from the coordinates of coordinate_grams.

    No Gram is a difference: each metric Gram takes its own weights q_f, and
    the Robertson matrix reads the clamped spectrum, as the Grams do.  One
    det_small call covers the covariance, metric and (for even n) Robertson
    matrices.  The dependence flag is record_v3's on the same coordinates
    (see _dependence): its Gram screen clears most samples, and any SVD runs
    only on those it leaves, so each flag is the SVD's.
    """
    n, dim = observables.shape[1], eigenvalues.shape[-1]
    rank = _rank(rho, observables)
    y, grams = coordinate_grams(eigenvalues, eigenvectors, observables, functions)
    if n % 2 == 0:
        grams = np.concatenate([grams, _commutator_gram(y, eigenvalues)[None]])
    dets = det_small(grams)
    cov_det, qfi_det = dets[0], dets[1:1 + len(functions)]
    dependent = _dependence(y, dim, rank)
    gap = cov_det - qfi_det
    scale = np.where(np.abs(cov_det) > 1.0, np.abs(cov_det), 1.0)
    return BatchReport(
        cov_gram=grams[0],
        qfi_gram=grams[1:1 + len(functions)],
        cov_det=cov_det,
        qfi_det=qfi_det,
        gap=gap,
        scale=scale,
        volume_qfi=_volume(qfi_det),
        robertson_det=dets[-1] if n % 2 == 0 else None,
        dependent=dependent,
        main_holds=gap >= -MAIN_INEQUALITY_SLACK * scale,
        equality_consistent=~dependent | (np.abs(gap) <= EQUALITY_RTOL * scale),
        rank_deficient=n > rank,
    )


def evaluate_one(state: DensityMatrix, observables, functions) -> BatchReport:
    """Batch-of-one live-kernel call on a validated (n, d, d) observable stack."""
    return coordinate_batch(state.matrix[None], state.eigenvalues[None], state.eigenvectors[None],
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
    lower bound for even N.  This is the live kernel's matrix, read from the
    coordinates and the clamped spectrum as the Grams are, with no Gram and
    no dependence test.
    """
    obs = observable_stack(state, observables)
    if len(obs) % 2:
        return 0.0
    lam = state.eigenvalues[None]
    return float(det_small(_commutator_gram(_coordinates(lam, state.eigenvectors[None], obs[None]), lam))[0])


def observables_dependent(state: DensityMatrix, observables) -> bool:
    """Real-linear dependence of the observables, each less its mean.

    The live kernel's verdict on its coordinates (see _coordinates and
    _dependence), with no Gram of its own: record_v3's screen, then the
    smallest singular value against record_v3.DEPENDENCE_SV_TOL only where
    the screen cannot clear the sample, or dependent with neither where n
    reaches the observables' span.  Self-adjoint matrices form a real vector
    space, so dependence is over real coefficients.
    """
    obs = observable_stack(state, observables)[None]
    y = _coordinates(state.eigenvalues[None], state.eigenvectors[None], obs)
    return bool(_dependence(y, state.dim, _rank(state.matrix, obs))[0])


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
