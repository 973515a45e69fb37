"""Invariances and exact zeros the math guarantees, checked on seeded sweep
batches through volumes.coordinate_batch, the one kernel that sweeps,
replay and the single-spec API run.  Its cases keep the ``live-`` ids they
had while a second kernel wrote records.

Reversing the observable order, shifting each A_h by c_h I and conjugating
the state and every observable by one unitary leave both Gram determinants
and every verdict unchanged; A -> sA scales both determinants by s^(2n).
Real ensembles give a Robertson determinant of exactly 0.0, and the
structured ensemble a metric determinant of exactly 0.0 (see each test).
For a qubit pair the metric determinant is Robertson's times a ratio that
depends on the spectrum only and is at most 1, below the eigenvalue floor
too.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfivol import DensityMatrix, GramSpec, RandomSpec, robertson_bound, volume_gap
from qfivol.matrices import as_hermitian, density_stack
from qfivol.monotone import builtin
from qfivol.sampling import draw_samples
from qfivol.volumes import coordinate_batch

FUNCTIONS = tuple(map(builtin, ("sld", "wy", "wyd:0.25")))
FLAGS = ("main_holds", "dependent", "equality_consistent")
CONFIGS = [("density", 3, 3), ("real-density", 4, 2), ("density", 4, 2)]


def on_the_kernel(names, cases):
    """Parametrize ``names`` over each case, with its ``live-`` id."""
    params = []
    for case in cases:
        case = case if isinstance(case, tuple) else (case,)
        params.append(pytest.param(*case, id="live-" + "-".join(map(str, case))))
    return pytest.mark.parametrize(names, params)


def _batch(ensemble, dim, n):
    """256 samples of a seeded sweep draw: state matrices and observables."""
    (rho, _, _), obs = draw_samples(RandomSpec(5, dim, ensemble), range(256), n)
    return rho, obs


def _evaluate(rho, obs):
    return coordinate_batch(*density_stack(rho), obs, FUNCTIONS)


def _unitaries(rng, count, dim, real):
    """``count`` Haar-random unitaries (orthogonal matrices when ``real``)."""
    z = rng.standard_normal((count, dim, dim))
    if not real:
        z = z + 1j * rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def _moves(rho, obs, real):
    """(name, state matrices, observables) of each invariance move."""
    n, dim = obs.shape[1], obs.shape[-1]
    shifts = np.array([0.7, -1.3, 2.1])[:n, None, None] * np.eye(dim)
    u = _unitaries(np.random.default_rng(5), len(rho), dim, real)
    uh = u.conj().swapaxes(-1, -2)
    conjugated = as_hermitian(u[:, None] @ obs @ uh[:, None])
    return [
        ("reversed", rho, obs[:, ::-1]),
        ("shifted", rho, obs + shifts),
        ("conjugated", u @ rho @ uh, conjugated),
    ]


@on_the_kernel("ensemble, dim, n", CONFIGS)
def test_reorder_shift_and_conjugation_leave_every_verdict(ensemble, dim, n):
    rho, obs = _batch(ensemble, dim, n)
    base = _evaluate(rho, obs)
    bound = 1e-10 * np.abs(base.cov_det)
    for name, moved_rho, moved_obs in _moves(rho, obs, ensemble == "real-density"):
        moved = _evaluate(moved_rho, moved_obs)
        for flag in FLAGS:
            assert np.array_equal(getattr(moved, flag), getattr(base, flag)), (name, flag)
        for field in ("cov_det", "qfi_det", "gap"):
            shift = np.abs(getattr(moved, field) - getattr(base, field))
            assert np.all(shift <= bound), (name, field, (shift / bound).max())


@pytest.mark.parametrize("scale", [1e-3, 1e3])
@on_the_kernel("ensemble, dim, n", CONFIGS)
def test_scaling_the_observables_scales_both_determinants(ensemble, dim, n, scale):
    """det(s^2 G) = s^(2n) det G for the covariance and every metric Gram.
    Scales far enough to flip ``dependent`` (1e-9) wait for scale-free
    verdicts."""
    rho, obs = _batch(ensemble, dim, n)
    base, moved = _evaluate(rho, obs), _evaluate(rho, scale * obs)
    for flag in FLAGS:
        assert np.array_equal(getattr(moved, flag), getattr(base, flag)), flag
    factor = scale ** (2 * n)
    assert_allclose(moved.cov_det, factor * base.cov_det, rtol=1e-12, atol=0)
    assert_allclose(moved.qfi_det, factor * base.qfi_det, rtol=1e-12, atol=0)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: the kernel thresholds the smallest singular value at the "
    "absolute DEPENDENCE_SV_TOL = 1e-8, so A -> 1e-9 A flags every sample of seed 5 as dependent",
)
@on_the_kernel("ensemble, dim, n", CONFIGS)
def test_scaling_the_observables_by_1e_9_leaves_every_flag(ensemble, dim, n):
    """Flags are scale-free quantities of the state and the observables'
    span, so A -> 1e-9 A must leave each one as it is."""
    rho, obs = _batch(ensemble, dim, n)
    base, moved = _evaluate(rho, obs), _evaluate(rho, 1e-9 * obs)
    for flag in FLAGS:
        assert np.array_equal(getattr(moved, flag), getattr(base, flag)), flag


@on_the_kernel("dim, n", [(2, 2), (4, 2), (5, 4), (8, 2), (3, 8)])
def test_real_ensembles_give_an_exactly_zero_robertson_determinant(dim, n):
    """For real symmetric rho, A and B, Tr(rho [A, B]) is real while the
    Robertson entries are its imaginary part, so every entry and the
    determinant are exactly 0.0 at every even n.  The kernel reads the
    entries from the imaginary real coordinates, exact zeros here."""
    (rho, lam, vectors), obs = draw_samples(RandomSpec(7, dim, "real-density"), range(256), n)
    out = coordinate_batch(rho, lam, vectors, obs, FUNCTIONS[:1])
    assert np.all(out.robertson_det == 0.0)


@on_the_kernel("dim", range(2, 9))
def test_structured_ensemble_gives_an_exactly_zero_metric_determinant(dim):
    """The structured triple's C is real diagonal, like the state, so
    i[rho, C] = 0 and the metric Gram is singular: qfi_det is exactly 0.0
    and the gap is cov_det on every sample.  Structured sweeps therefore
    check only det Cov >= 0, never the bound itself."""
    (rho, lam, vectors), obs = draw_samples(RandomSpec(7, dim, "structured"), range(512), 3)
    out = coordinate_batch(rho, lam, vectors, obs, FUNCTIONS)
    assert np.all(out.qfi_det == 0.0)
    assert np.array_equal(out.gap, np.broadcast_to(out.cov_det, out.gap.shape))


QUBIT_FUNCTIONS = tuple(map(builtin, ("sld", "wy", "wyd:0.25", "wyd:0.05")))


def _qubits(p):
    """Complex qubit states U diag(1 - p, p) U^dagger, one per entry of
    ``p``, each with a random observable pair (seed 3)."""
    rng = np.random.default_rng(3)
    u = _unitaries(rng, len(p), 2, real=False)
    spectra = np.zeros((len(p), 2, 2))
    spectra[:, 0, 0], spectra[:, 1, 1] = 1 - p, p
    a = rng.standard_normal((len(p), 2, 2, 2)) + 1j * rng.standard_normal((len(p), 2, 2, 2))
    return density_stack(u @ spectra @ u.conj().swapaxes(-1, -2)), a + a.conj().swapaxes(-1, -2)


def _near_pure_qubits():
    """1024 qubit states with p log-spaced from 1e-11 (ten times the
    eigenvalue floor, so no eigenvalue is clamped) to 1e-2 and exactly 0."""
    return _qubits(np.tile(np.append(np.geomspace(1e-11, 1e-2, 255), 0.0), 4))


@pytest.mark.parametrize("seed", [5, 7, 11, None], ids=["seed5", "seed7", "seed11", "near-pure"])
def test_a_qubit_pairs_metric_determinant_is_at_most_robertsons(seed):
    """In rho's eigenbasis only x_h = (a_h)_12 of a centered qubit pair is
    left, so det Q_f = 4 q_12^2 Im(x_1 conj(x_2))^2 with q_12 =
    f(0)(l1 - l2)^2 / (2 m_f(l1, l2)), and det R = (l1 - l2)^2 Im(x_1
    conj(x_2))^2.  Hence det Q_f = (f(0)(1 - t)/f(t))^2 det R with t = l2/l1,
    and as f increases, f(0)(1 - t) <= f(0) <= f(t): Robertson's bound is at
    least as sharp for every qubit pair and every regular f, equal iff the
    state is pure or det R = 0."""
    if seed is None:
        states, obs = _near_pure_qubits()
    else:
        states, obs = draw_samples(RandomSpec(seed, 2, "density"), range(4096), 2)
    out = coordinate_batch(*states, obs, QUBIT_FUNCTIONS)
    lam = states[1]
    t = lam[:, 1] / lam[:, 0]
    tol = 1e-13 * out.cov_gram[:, 0, 0] * out.cov_gram[:, 1, 1]
    for f, qfi_det in zip(QUBIT_FUNCTIONS, out.qfi_det):
        ratio = (f.value_at_zero * (1 - t) / f(t)) ** 2
        assert np.all(ratio <= 1.0), f.fid
        assert np.all(np.abs(qfi_det - ratio * out.robertson_det) <= tol), f.fid
        assert np.all(qfi_det <= out.robertson_det + tol), f.fid


def test_the_single_spec_api_keeps_a_clamped_qubits_metric_determinant_at_most_robertsons():
    """Below the eigenvalue floor (1e-12) density_stack clamps p to 0, so the
    Grams are a pure state's on the same eigenvectors; volume_gap and
    robertson_bound read Robertson's matrix from the same clamped spectrum,
    so for every f det Q_f <= det R + 1e-13 C11 C22, one spec at a time.  A
    kernel whose Robertson matrix read the unclamped rho broke this bound on
    61 of these 256 states, by up to 2.0e-12 C11 C22."""
    (rho, _, _), obs = _qubits(np.tile(np.geomspace(1e-16, 9.9e-13, 64), 4))
    for matrix, pair in zip(rho, obs):
        state = DensityMatrix(matrix)
        robertson = robertson_bound(state, pair)
        for f in QUBIT_FUNCTIONS:
            report = volume_gap(GramSpec(state, pair, f))
            assert report.robertson_det == robertson, f.fid
            tol = 1e-13 * report.cov_gram[0, 0] * report.cov_gram[1, 1]
            assert report.qfi_det <= robertson + tol, f.fid
