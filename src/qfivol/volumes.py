"""The one evaluation kernel and the public single-spec API: Gram
determinant volumes, the covariance-metric gap, and its verdicts.

For observables A_1..A_N and a regular function f, two Gram matrices are
compared: the covariance Gram {Cov(A_h, A_j)} and the metric Gram {(f(0)/2)
<i[rho,A_h], i[rho,A_j]>_f} = {Cov(A_h, A_j) - sum m_tilde(lam_u, lam_v)
Re{a_uv b_vu}}.  The gap between the two determinants is nonnegative for
every N, so the covariance ellipsoid volume dominates the metric one: proved
by A. Andai, J. Math. Phys. 49, 012106 (2008), and by P. Gibilisco, F. Hiai
and D. Petz, IEEE Trans. Inf. Theory 55, 439 (2009).

One kernel forms these Grams, and no other module forms one:
coordinate_batch here serves every sweep record (qfivol.sweep prints its
report), every replay, and every single-spec call (volume_gap,
check_inequalities, robertson_bound, observables_dependent, the covariance
and correlation of qfivol.metrics, and the repro rows), the last on a batch
of one, so a record and the single-spec API agree bit for bit on the same
draw.  In the real coordinates Y of the centered eigenframes each Gram is
Y diag(w) Y^T with weights w >= 0, with no subtraction to lose digits where
the metric Gram is far smaller than the covariance, as near the maximally
mixed state.  Y is one gather from the uncentered eigenframes U^dagger A U,
whose d diagonal entries alone are then centered, by the mean the
eigenframe itself gives.  The dependence screen's Gram is one more weight
row of the same product, so a check makes one weighted product and one
det_small call, and its flag is _dependent's from that Gram's determinant
and trace, with an SVD only for a sample the screen cannot clear.  The
verdicts use this module's absolute thresholds.  The independent H * K
decomposition of the gap lives with the other test oracles in
qfivol.oracles, which the kernel does not import."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .matrices import DensityMatrix, det_small, eigenframes, observable_stack, pair_indices
from .monotone import MonotoneFunction, require_regular, tilde_order
from .monotone import mean_table  # noqa: F401  bench/tests traces it through this namespace

MAIN_INEQUALITY_SLACK = 1e-10
EQUALITY_RTOL = 1e-8
DEPENDENCE_SV_TOL = 1e-8
# safety factor on DEPENDENCE_SV_TOL before the Gram screen clears a sample
_SCREEN_MARGIN = 1e3
MONOTONICITY_SLACK = 1e-10
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


@dataclass(slots=True)
class BatchReport:
    """Kernel output for B samples and F functions.

    Arrays indexed by function lead with F, then B.  ``rank_deficient`` says
    that n exceeds commutator_rank, so every metric Gram in the batch is
    singular by theory and its volume order carries no information.  Not
    frozen: its arrays are writable anyway, and a frozen __init__ sets each
    of the twelve fields through object.__setattr__, which a batch-of-one
    call would pay on every check and replay.
    """

    cov_gram: np.ndarray
    qfi_gram: np.ndarray
    cov_det: np.ndarray
    qfi_det: np.ndarray
    gap: np.ndarray
    scale: np.ndarray
    volume_qfi: np.ndarray
    robertson_det: np.ndarray | None
    dependent: np.ndarray
    main_holds: np.ndarray
    equality_consistent: np.ndarray
    rank_deficient: bool

    def violations(self, pairs) -> np.ndarray:
        """Per sample, how many (i, j) in ``pairs`` break volume_i >= volume_j."""
        count = np.zeros(self.cov_det.shape, dtype=int)
        if not self.rank_deficient:
            for i, j in pairs:
                count += _breaks(self.volume_qfi[i], self.volume_qfi[j])
        return count


def _breaks(first, second):
    """The monotonicity rule: volume ``first`` falls short of volume
    ``second`` by more than MONOTONICITY_SLACK (Python floats or arrays)."""
    return first < second - MONOTONICITY_SLACK


def commutator_rank(dim: int, real: bool) -> int:
    """Most linearly independent commutators i[rho, A] there can be: in rho's
    eigenbasis their diagonal is zero, leaving d^2 - d real dimensions, or
    d(d-1)/2 when rho and every A are real symmetric."""
    return dim * (dim - 1) // 2 if real else dim * dim - dim


def _volume(det):
    # sqrt(max(0, det)) with Python's max semantics: -0.0 and NaN give 0.0
    return np.sqrt(np.where(det > 0.0, det, 0.0))


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


def coordinate_grams(eigenvalues, eigenvectors, observables, functions, screen=False, robertson=False):
    """The coordinates Y of a stack's centered eigenframes, shaped (B, n,
    d^2), and its Grams from one stacked product: the covariance Gram
    Y diag(c) Y^T, then per function the metric Gram Y diag(q_f) Y^T, then,
    with ``screen``, the dependence screen's Gram Y diag(w) Y^T (see
    _weights); with ``robertson`` and n even, the Robertson matrix follows
    them, so that one det_small call reads the whole (rows, B, n, n) stack.

    Y holds each diagonal entry, then Re and Im of each entry above it, so
    no coordinate is rounded and the pair weights carry the factor 2 of
    a_uv conj(b_uv) + a_vu conj(b_vu).  It is one gather from the
    uncentered eigenframes U^dagger A U (_coordinates), and only its d
    diagonal entries are then centered, by the mean the eigenframe itself
    gives on the clamped spectrum the weights read.  Inputs are as
    coordinate_batch takes them, less the state, which no product here
    reads; each Gram has the same bits whatever the batch and the
    rows beside it.
    """
    y = _coordinates(eigenvalues, eigenvectors, observables)
    pairs = _pairs(eigenvalues)
    weights = _weights(pairs, functions, screen)
    n, rows = y.shape[-2], len(weights)
    grams = np.empty((rows + (robertson and n % 2 == 0), *y.shape[:-1], n))
    np.matmul(y * weights, y.swapaxes(-1, -2), out=grams[:rows])
    if len(grams) > rows:
        _commutator_gram(y, pairs[-1], out=grams[rows])
    return y, grams


@functools.lru_cache
def _gather(dim: int) -> np.ndarray:
    """Where Y's coordinates sit in a (d, d) complex frame read as 2 d^2
    floats: the real part of each diagonal entry, then Re, then Im, of each
    entry above it (pair_indices order)."""
    rows, cols = pair_indices(dim, 1)
    upper = 2 * (rows * dim + cols)
    return np.concatenate([2 * (dim + 1) * np.arange(dim), upper, upper + 1])


@functools.lru_cache
def _layout(dim: int) -> tuple:
    """How a row of d diagonal then d(d-1)/2 pair values weighs Y's d^2
    coordinates: the index that takes each pair's value twice, for its Re
    and its Im coordinate; the screen's row of values, 1 on the diagonal
    and 2 on each pair; and the factor sqrt(w) that takes Y to the
    Frobenius-isometric coordinates X, the SVD's input, per coordinate."""
    pairs = dim * (dim - 1) // 2
    index = np.concatenate([np.arange(dim + pairs), np.arange(dim, dim + pairs)])
    unit = np.repeat([1.0, 2.0], [dim, pairs])
    return index, unit, np.sqrt(unit.take(index))


def _coordinates(eigenvalues, eigenvectors, observables) -> np.ndarray:
    """(B, n, d^2) coordinates Y of the centered eigenframes: one take from
    the uncentered frames, promoted once to complex128 (real, float32 and
    complex64 inputs alike) and read as floats; then each diagonal block
    minus its mean sum_u lam_u a_uu / sum_u lam_u.  A pair entry of a frame
    does not move when A moves by a multiple k I, so only the diagonal needs
    the mean; dividing by the clamped trace, which falls short of 1 by any
    eigenvalue clamped to 0, keeps the diagonal's shift exactly k, so a
    dependent set stays dependent after any such move.  The trace is
    np.add.reduce, ndarray.sum's bits without its Python wrapper."""
    frames = eigenframes(eigenvectors, observables).astype(np.complex128, copy=False)
    dim = frames.shape[-1]
    y = frames.view(np.float64).reshape(*frames.shape[:-2], -1).take(_gather(dim), axis=-1)
    diagonal = y[..., :dim]
    diagonal -= (diagonal @ eigenvalues[:, :, None]) / np.add.reduce(eigenvalues, -1)[:, None, None]
    return y


def _rank(rho, observables) -> int:
    """commutator_rank of a stack's state and observables: real when the
    state and every observable are (both are arrays)."""
    return commutator_rank(rho.shape[-1], rho.dtype.kind != "c" and observables.dtype.kind != "c")


def _pairs(eigenvalues) -> tuple:
    """A (B, d) spectrum stack promoted to float64 (float32 and integer
    spectra too), then lam_u, lam_v and lam_u - lam_v over its pairs u < v
    (pair_indices order): formed once per kernel call, for the weights and
    the Robertson matrix alike."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    rows, cols = pair_indices(lam.shape[-1], 1)
    hi, lo = lam.take(rows, axis=-1), lam.take(cols, axis=-1)
    return lam, hi, lo, hi - lo


def _weights(pairs, functions, screen=False) -> np.ndarray:
    """(1 + F (+ 1 with ``screen``), B, 1, d^2) weights of the coordinates,
    whose d diagonal entries come first, then the pairs u < v twice (Re, then
    Im), built as one array of diagonal and pair values that _layout's index
    spreads.  The covariance's c is lam on the diagonal and lam_u + lam_v on
    a pair; a function's q_f is 0 on the diagonal and f(0) (lam_u - lam_v)^2
    / (lam_u f(lam_v / lam_u)) on a pair, 0 where lam_u = 0, and exactly c =
    lam_u where lam_v = 0 alone if f's evaluator returns exactly
    ``value_at_zero`` at 0, as every builtin's does.  The spectrum is
    descending, so each ratio lies in [0, 1] and f is read through its
    unit_evaluate; every weight is >= 0 and none is a difference of two.
    The screen's w is 1 on the diagonal and 2 on a pair, so Y diag(w) Y^T is
    X X^T for the Frobenius-isometric coordinates X = Y diag(sqrt(w)).
    ``pairs`` is _pairs of the spectrum stack lam."""
    lam, hi, lo, gap = pairs
    dim = lam.shape[-1]
    index, unit, _ = _layout(dim)
    values = np.zeros((1 + len(functions) + screen, len(lam), 1, len(unit)))
    values[0, :, 0, :dim] = lam
    np.add(hi, lo, out=values[0, :, 0, dim:])
    if functions:
        # lam_v = lam_u = 0 where lam_u = 0, so dividing by _TINY there gives
        # q = 0, as dividing by 1 would; a nonzero lam_u is >= EIGENVALUE_FLOOR
        safe = np.maximum(hi, _TINY)
        ratio = lo / safe
        square = gap * (gap / safe)
        for k, f in enumerate(functions, 1):
            evaluated = np.asarray(f.unit_evaluate(ratio), dtype=np.float64)
            np.multiply(square, f.value_at_zero / evaluated, out=values[k, :, 0, dim:])
    if screen:
        values[-1] = unit
    return values.take(index, axis=-1)


def _commutator_gram(y, gaps, out=None) -> np.ndarray:
    """Robertson matrices -(i/2) Tr(rho [A_h, A_j]) from the coordinates Y
    and the float64 pair gaps lam_u - lam_v of the spectrum (_pairs): the sum
    over pairs u < v of (lam_u - lam_v) Im(a_uv conj(b_uv)), which is Y_im D
    Y_re^T - Y_re D Y_im^T with D = diag(lam_u - lam_v); exactly
    antisymmetric, and exactly 0 where Y_im is.  Written to ``out`` where
    given."""
    pairs = gaps.shape[-1]
    start = y.shape[-1] - 2 * pairs
    re, im = y[..., start:start + pairs], y[..., start + pairs:]
    half = (im * gaps[:, None]) @ re.swapaxes(-1, -2)
    return np.subtract(half, half.swapaxes(-1, -2), out=out)


def coordinate_batch(rho, eigenvalues, eigenvectors, observables, functions) -> BatchReport:
    """The kernel: Grams, determinants and verdicts for a stack of samples.

    ``rho`` and ``eigenvectors`` are (B, d, d) stacks and ``eigenvalues`` a
    (B, d) stack of validated states (see matrices.density_stack);
    ``observables`` is a (B, n, d, d) stack of exactly self-adjoint
    matrices; ``functions`` are regular.  Every per-sample result is
    bit-identical whatever the batch it came in.

    No Gram is a difference: each metric Gram takes its own weights q_f, and
    the Robertson matrix reads the clamped spectrum, as the Grams do.  One
    weighted product forms the covariance, metric and screen Grams, and one
    det_small call covers them and (for even n) the Robertson matrix.  The
    dependence flag is _dependent's from the screen's determinant and trace:
    the screen clears most samples, and any SVD runs only on those it
    leaves, so each flag is the SVD's.  The gap is scaled by max(1,
    |cov_det|) for the verdicts at this module's thresholds.
    """
    n, dim, rows = observables.shape[1], eigenvalues.shape[-1], 1 + len(functions)
    rank = _rank(rho, observables)
    y, grams = coordinate_grams(eigenvalues, eigenvectors, observables, functions, screen=True, robertson=True)
    dets = det_small(grams)
    trace = np.add.reduce(grams[rows].diagonal(0, -2, -1), -1)
    dependent = _dependent(y, rank + dim, (dets[rows], trace), _layout(dim)[2])
    cov_det, qfi_det = dets[0], dets[1:rows]
    gap = cov_det - qfi_det
    # fmax skips NaN: a NaN cov_det is scaled by 1
    scale = np.fmax(np.abs(cov_det), 1.0)
    return BatchReport(
        cov_gram=grams[0],
        qfi_gram=grams[1:rows],
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


def _dependent(x, span: int, screen=None, scale=None) -> np.ndarray:
    """Per sample, whether the smallest singular value of its (n, m) real
    coordinates X, as the stacked SVD computes it, is below DEPENDENCE_SV_TOL.

    X is ``x``, or x times ``scale`` (one factor per coordinate) where that is
    given.  The real coordinates are a Frobenius isometry of the centered
    observables, which lie in a ``span`` of d^2 dimensions, or d(d+1)/2 when
    the state and every observable are real symmetric, and centering leaves
    them rank <= span - 1.  So n >= span is dependent with no SVD (there the
    SVD's own value, about eps * sigma_max, would pass the threshold, and the
    SVD alone say "independent", once sigma_max exceeds ~1e8).  Otherwise a
    screen on the Gram G = X X^T clears the samples whose SVD verdict is
    certainly "independent" and the SVD decides the rest, which gives each
    sample its SVD flag whatever the batch.  ``screen`` is the (det G, trace
    G) pair of a caller that formed G already; without it G is x x^T, formed
    here.  coordinate_batch forms G as Y diag(w) Y^T, one weight row of its
    own product, with Y its unscaled coordinates, w = 1 on the diagonal
    coordinates and 2 on the pair ones, and scale = sqrt(w); only the
    samples the screen leaves are scaled, for the SVD.  The screen's bound
    (below) holds for that G as for x x^T: w is an exact power of two, so
    each y w y' is one rounding as x x' is, each entry of G is again a
    length-m dot product, and X = Y diag(sqrt(w)) is exact in the argument
    though no float holds it; the SVD's input fl(Y scale) differs from X by
    one rounding per entry, at most eps sqrt(T) in 2-norm, which adds 1 to
    p below and stays inside c.
    """
    n = x.shape[1]
    if n >= span:
        return np.ones(len(x), dtype=bool)
    if screen is None:
        g = x @ x.swapaxes(-1, -2)
        screen = det_small(g), np.add.reduce(g.diagonal(0, -2, -1), -1)
    det, trace = screen
    # With G = X X^T (eigenvalues sigma^2, trace T), sigma_min^2 >=
    # det G / T^(n-1), since each other sigma^2 <= T.  The stacked SVD returns
    # the singular values of X + dX with |dX| <= p eps sigma_max <= p eps sqrt(T),
    # p a modest function of m <= 64 and n <= 8 (backward stability), so
    # sigma_min >= TOL + c eps sqrt(T) with c = 64 >= p makes it say
    # "independent"; squared, that asks at most 2 TOL^2 + 2 c^2 eps^2 T.  The
    # screen's own rounding adds to sigma^2, not to sigma: forming G
    # (length-m dot products) moves it by at most m eps T in 2-norm, det_small
    # by at most n^2 (n+1) 2^(n-2) eps T more (LU with partial pivoting:
    # growth <= 2^(n-1), entries <= T; the cofactors for n <= 3 do far
    # better), and a matrix moved by delta has its determinant moved by at most
    # (T + delta)^n - T^n ~ n delta T^(n-1) (Ipsen and Rehman, SIAM J. Matrix
    # Anal. Appl. 30, 762 (2008)), so the computed det G / T^(n-1) exceeds the
    # exact one by at most n delta.  Rounding T and the products compared is a
    # relative error under (n - 1)(m + n + 2) eps.  At n = 8, m = 64 all of it
    # is below 3e5 eps T, inside K eps T with K = 2^19, which holds
    # 2 c^2 eps^2 T many times over.  The margin of 1e3 on TOL leaves room for
    # a p far above c wherever 2 (margin TOL)^2 dominates the edge.  An
    # overflowed determinant clears nothing, nor does a zero trace (0 > 0).
    edge = 2 * (_SCREEN_MARGIN * DEPENDENCE_SV_TOL) ** 2 + 2**19 * _EPS * trace
    rest = ~((det > edge * trace ** (n - 1)) & np.isfinite(det))
    if rest.any():
        rows = x[rest] if scale is None else x[rest] * scale
        rest[rest] = np.linalg.svd(rows, compute_uv=False)[:, -1] < DEPENDENCE_SV_TOL
    return rest


def evaluate_one(state: DensityMatrix, observables, functions) -> BatchReport:
    """Batch-of-one kernel call on a validated (n, d, d) observable stack."""
    return coordinate_batch(state.matrix[None], state.eigenvalues[None], state.eigenvectors[None],
                            observables[None], functions)


def volume_gap(spec: GramSpec) -> VolumeReport:
    """Fill both Grams, both determinants, and the gap.

    The Robertson determinant is included for even observable counts.  This
    is the kernel's product and determinant call alone, with no
    dependence test.  The gap's independent route, the H*K decomposition, is
    the test oracle oracles.gap_from_decomposition.
    """
    state = spec.state
    _, grams = coordinate_grams(state.eigenvalues[None], state.eigenvectors[None], spec.observables[None],
                                (spec.function,), robertson=True)
    cov_det, qfi_det, *robertson = det_small(grams)[:, 0].tolist()
    return VolumeReport(grams[0, 0], grams[1, 0], cov_det, qfi_det, cov_det - qfi_det,
                        robertson[0] if robertson else None)


def robertson_bound(state: DensityMatrix, observables) -> float:
    """Determinant of the averaged commutator matrix; exactly 0 for odd N.

    The matrix entries are -(i/2) Tr(rho [A_h, A_j]), real and antisymmetric,
    so the determinant vanishes identically for odd N and gives the classical
    lower bound for even N.  This is the kernel's matrix, read from the
    coordinates and the clamped spectrum as the Grams are, with no Gram and
    no dependence test.
    """
    obs = observable_stack(state, observables)
    if len(obs) % 2:
        return 0.0
    lam = state.eigenvalues[None]
    y = _coordinates(lam, state.eigenvectors[None], obs[None])
    return float(det_small(_commutator_gram(y, _pairs(lam)[-1]))[0])


def observables_dependent(state: DensityMatrix, observables) -> bool:
    """Real-linear dependence of the observables, each less its mean.

    The kernel's verdict on its coordinates (see _coordinates), with no
    covariance or metric Gram: _dependent on Y scaled to the
    Frobenius-isometric coordinates, whose screen forms their Gram, then the
    smallest singular value against DEPENDENCE_SV_TOL only where the screen
    cannot clear the sample, or dependent with neither where n reaches the
    observables' span.  Self-adjoint matrices form a real vector space, so
    dependence is over real coefficients.
    """
    obs = observable_stack(state, observables)[None]
    y = _coordinates(state.eigenvalues[None], state.eigenvectors[None], obs)
    return bool(_dependent(y * _layout(state.dim)[2], _rank(state.matrix, obs) + state.dim)[0])


@functools.lru_cache
def order_pairs(functions: tuple) -> tuple:
    """Resolvable ordered pairs (i, j) meaning volume_i >= volume_j must hold,
    cached per tuple of functions as tilde_order is per pair."""
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
        # BatchReport.violations(pairs) == 0 for the one sample, on floats
        volume = out.volume_qfi[:, 0].tolist()
        mono = not any(_breaks(volume[i], volume[j]) for i, j in pairs)
    # item(0) is the one sample's (first function's) entry as a Python scalar
    main = out.main_holds.item(0)
    rob = None if out.robertson_det is None else out.robertson_det.item(0)
    dets = (out.cov_det.item(0), out.qfi_det.item(0), out.gap.item(0))
    return InequalityVerdict(
        report=VolumeReport(out.cov_gram[0], out.qfi_gram[0, 0], *dets, rob),
        scale=out.scale.item(0),
        main_holds=main,
        dependent=out.dependent.item(0),
        equality_consistent=out.equality_consistent.item(0),
        monotonicity_holds=mono,
        candidate_counterexample=not main,
    )
