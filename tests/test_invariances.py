"""Invariances and exact zeros the math guarantees, checked on seeded sweep
batches through both evaluation kernels: record_v3.evaluate_batch, which
prints version-3 records, and volumes.coordinate_batch, the live kernel of
the single-spec API.  A version-3 case keeps its plain id and the live
kernel's twin is prefixed ``live-``.

Reversing the observable order, shifting each A_h by c_h I and conjugating
the state and every observable by one unitary leave both Gram determinants
and every verdict unchanged; A -> sA scales both determinants by s^(2n).
Real ensembles give a Robertson determinant of exactly 0.0, and the
structured ensemble a metric determinant of exactly 0.0 (see each test).
For a qubit pair the metric determinant is Robertson's times a ratio that
depends on the spectrum only and is at most 1; below the eigenvalue floor the
version-3 kernel breaks that bound (a strict xfail) and the single-spec API
keeps it.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfivol import DensityMatrix, GramSpec, RandomSpec, robertson_bound, volume_gap
from qfivol.matrices import as_hermitian, density_stack
from qfivol.monotone import builtin
from qfivol.record_v3 import evaluate_batch
from qfivol.sampling import draw_samples
from qfivol.volumes import coordinate_batch

FUNCTIONS = tuple(map(builtin, ("sld", "wy", "wyd:0.25")))
FLAGS = ("main_holds", "dependent", "equality_consistent")
CONFIGS = [("density", 3, 3), ("real-density", 4, 2), ("density", 4, 2)]


def on_both_kernels(names, cases):
    """Parametrize ``kernel`` and ``names`` over each case for the version-3
    kernel (the case's plain id) and for the live kernel (``live-`` id)."""
    params = []
    for case in cases:
        case = case if isinstance(case, tuple) else (case,)
        case_id = "-".join(map(str, case))
        params.append(pytest.param(evaluate_batch, *case, id=case_id))
        params.append(pytest.param(coordinate_batch, *case, id=f"live-{case_id}"))
    return pytest.mark.parametrize(f"kernel, {names}", params)


def _batch(ensemble, dim, n):
    """256 samples of a seeded sweep draw: state matrices and observables."""
    (rho, _, _), obs = draw_samples(RandomSpec(5, dim, ensemble), range(256), n)
    return rho, obs


def _evaluate(kernel, rho, obs):
    return kernel(*density_stack(rho), obs, FUNCTIONS)


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


@on_both_kernels("ensemble, dim, n", CONFIGS)
def test_reorder_shift_and_conjugation_leave_every_verdict(kernel, ensemble, dim, n):
    rho, obs = _batch(ensemble, dim, n)
    base = _evaluate(kernel, rho, obs)
    bound = 1e-10 * np.abs(base.cov_det)
    for name, moved_rho, moved_obs in _moves(rho, obs, ensemble == "real-density"):
        moved = _evaluate(kernel, moved_rho, moved_obs)
        for flag in FLAGS:
            assert np.array_equal(getattr(moved, flag), getattr(base, flag)), (name, flag)
        for field in ("cov_det", "qfi_det", "gap"):
            shift = np.abs(getattr(moved, field) - getattr(base, field))
            assert np.all(shift <= bound), (name, field, (shift / bound).max())


@pytest.mark.parametrize("scale", [1e-3, 1e3])
@on_both_kernels("ensemble, dim, n", CONFIGS)
def test_scaling_the_observables_scales_both_determinants(kernel, ensemble, dim, n, scale):
    """det(s^2 G) = s^(2n) det G for the covariance and every metric Gram.
    Scales far enough to flip ``dependent`` (1e-9) wait for scale-free
    verdicts."""
    rho, obs = _batch(ensemble, dim, n)
    base, moved = _evaluate(kernel, rho, obs), _evaluate(kernel, rho, scale * obs)
    for flag in FLAGS:
        assert np.array_equal(getattr(moved, flag), getattr(base, flag)), flag
    factor = scale ** (2 * n)
    assert_allclose(moved.cov_det, factor * base.cov_det, rtol=1e-12, atol=0)
    assert_allclose(moved.qfi_det, factor * base.qfi_det, rtol=1e-12, atol=0)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: both kernels threshold the smallest singular value at the "
    "absolute DEPENDENCE_SV_TOL = 1e-8, so A -> 1e-9 A flags every sample of seed 5 as dependent",
)
@on_both_kernels("ensemble, dim, n", CONFIGS)
def test_scaling_the_observables_by_1e_9_leaves_every_flag(kernel, ensemble, dim, n):
    """Flags are scale-free quantities of the state and the observables'
    span, so A -> 1e-9 A must leave each one as it is."""
    rho, obs = _batch(ensemble, dim, n)
    base, moved = _evaluate(kernel, rho, obs), _evaluate(kernel, rho, 1e-9 * obs)
    for flag in FLAGS:
        assert np.array_equal(getattr(moved, flag), getattr(base, flag)), flag


@on_both_kernels("dim, n", [(2, 2), (4, 2), (5, 4), (8, 2), (3, 8)])
def test_real_ensembles_give_an_exactly_zero_robertson_determinant(kernel, dim, n):
    """For real symmetric rho, A and B, Tr(rho [A, B]) is real while the
    Robertson entries are its imaginary part, so every entry and the
    determinant are exactly 0.0 at every even n.  The live kernel reads the
    entries from the imaginary real coordinates, exact zeros here."""
    (rho, lam, vectors), obs = draw_samples(RandomSpec(7, dim, "real-density"), range(256), n)
    out = kernel(rho, lam, vectors, obs, FUNCTIONS[:1])
    assert np.all(out.robertson_det == 0.0)


@on_both_kernels("dim", range(2, 9))
def test_structured_ensemble_gives_an_exactly_zero_metric_determinant(kernel, dim):
    """The structured triple's C is real diagonal, like the state, so
    i[rho, C] = 0 and the metric Gram is singular: qfi_det is exactly 0.0
    and the gap is cov_det on every sample.  Structured sweeps therefore
    check only det Cov >= 0, never the bound itself."""
    (rho, lam, vectors), obs = draw_samples(RandomSpec(7, dim, "structured"), range(512), 3)
    out = kernel(rho, lam, vectors, obs, FUNCTIONS)
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
    out = evaluate_batch(*states, obs, QUBIT_FUNCTIONS)
    lam = states[1]
    t = lam[:, 1] / lam[:, 0]
    tol = 1e-13 * out.cov_gram[:, 0, 0] * out.cov_gram[:, 1, 1]
    for f, qfi_det in zip(QUBIT_FUNCTIONS, out.qfi_det):
        ratio = (f.value_at_zero * (1 - t) / f(t)) ** 2
        assert np.all(ratio <= 1.0), f.fid
        assert np.all(np.abs(qfi_det - ratio * out.robertson_det) <= tol), f.fid
        assert np.all(qfi_det <= out.robertson_det + tol), f.fid


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP items 1 and 9: density_stack clamps eigenvalues below EIGENVALUE_FLOOR "
    "to 0 for the Grams while _robertson reads the unclamped rho; item 9 reads Robertson "
    "from the clamped frames, and then 61 of these 256 states stop breaking the bound",
)
def test_a_clamped_qubits_metric_determinant_is_at_most_robertsons():
    """Below the eigenvalue floor (1e-12) density_stack clamps p to 0, so the
    Grams are a pure state's on the same eigenvectors, det Q_f = Im(x_1
    conj(x_2))^2 for every f, while _robertson reads the unclamped rho, det R
    = (1 - 2p)^2 Im(x_1 conj(x_2))^2.  The excess, about 4p det R, passes
    1e-13 C11 C22 on 61 of these 256 states, by up to 2.0e-12 C11 C22."""
    states, obs = _qubits(np.tile(np.geomspace(1e-16, 9.9e-13, 64), 4))
    out = evaluate_batch(*states, obs, QUBIT_FUNCTIONS)
    tol = 1e-13 * out.cov_gram[:, 0, 0] * out.cov_gram[:, 1, 1]
    for f, qfi_det in zip(QUBIT_FUNCTIONS, out.qfi_det):
        assert np.all(qfi_det <= out.robertson_det + tol), f.fid


def test_the_single_spec_api_keeps_a_clamped_qubits_metric_determinant_at_most_robertsons():
    """The states of the strict xfail above, one spec at a time: volume_gap
    and robertson_bound read Robertson's matrix from the clamped spectrum the
    Grams use, so for every f det Q_f <= det R + 1e-13 C11 C22."""
    (rho, _, _), obs = _qubits(np.tile(np.geomspace(1e-16, 9.9e-13, 64), 4))
    for matrix, pair in zip(rho, obs):
        state = DensityMatrix(matrix)
        robertson = robertson_bound(state, pair)
        for f in QUBIT_FUNCTIONS:
            report = volume_gap(GramSpec(state, pair, f))
            assert report.robertson_det == robertson, f.fid
            tol = 1e-13 * report.cov_gram[0, 0] * report.cov_gram[1, 1]
            assert report.qfi_det <= robertson + tol, f.fid
