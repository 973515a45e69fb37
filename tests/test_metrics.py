"""Tests for covariance, the metric inner product, and the f-correlation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfivol import (
    DensityMatrix,
    GramSpec,
    MetricUndefinedError,
    MonotoneFunction,
    RLD,
    SLD,
    TildeUndefinedError,
    WY,
    builtin,
    covariance,
    f_correlation,
    icommutator,
    metric_context,
    RandomSpec,
    regular_builtins,
    volume_gap,
)
from qfivol.sampling import sample_observables, sample_pure_state
from qfivol import matrices, repro, volumes
from qfivol.oracles import identity_residual, qfi_inner

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])

FOUR_LEVEL_MIXTURE = np.diag([0.5, 0.0, 0.0, 0.5])
FOUR_LEVEL_PURE = 0.5 * np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    ]
)
FOUR_LEVEL_A = np.diag([1.0, 1.0, -1.0, -1.0])
FOUR_LEVEL_B = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [0.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, -1.0],
    ]
)


def _random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def _random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def test_covariance_qubit_value():
    state = DensityMatrix(np.eye(2) / 2.0)
    assert_allclose(covariance(state, SIGMA_X, SIGMA_X), 1.0, rtol=0, atol=0)


def test_covariance_identity_is_zero():
    rng = np.random.default_rng(1)
    state = _random_density(rng, 3)
    assert abs(covariance(state, np.eye(3), _random_hermitian(rng, 3))) < 1e-14


def test_covariance_is_symmetric_and_bilinear():
    rng = np.random.default_rng(2)
    state = _random_density(rng, 4)
    a, b, c = (_random_hermitian(rng, 4) for _ in range(3))
    assert_allclose(covariance(state, a, b), covariance(state, b, a), rtol=1e-12)
    combined = covariance(state, a, 2.0 * b + 0.5 * c)
    parts = 2.0 * covariance(state, a, b) + 0.5 * covariance(state, a, c)
    assert_allclose(combined, parts, rtol=1e-10)


def test_covariance_variance_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(50):
        state = _random_density(rng, 3)
        a = _random_hermitian(rng, 3)
        assert covariance(state, a, a) >= -1e-12


def test_four_level_example_values():
    """Covariance cannot distinguish the mixture from the pure state, but the
    f-correlation drops to zero exactly on the mixture."""
    mixture = DensityMatrix(FOUR_LEVEL_MIXTURE)
    entangled = DensityMatrix(FOUR_LEVEL_PURE)
    for f in (SLD, WY, regular_builtins()[2]):
        ctx_mix = metric_context(mixture, f)
        ctx_ent = metric_context(entangled, f)
        assert abs(covariance(mixture, FOUR_LEVEL_A, FOUR_LEVEL_B) - 1.0) <= 1e-12
        assert abs(covariance(entangled, FOUR_LEVEL_A, FOUR_LEVEL_B) - 1.0) <= 1e-12
        assert abs(f_correlation(ctx_mix, FOUR_LEVEL_A, FOUR_LEVEL_B)) <= 1e-12
        assert abs(f_correlation(ctx_ent, FOUR_LEVEL_A, FOUR_LEVEL_B) - 1.0) <= 1e-12


def test_f_correlation_evaluates_f_once_and_builds_no_table(monkeypatch):
    """metric_context and covariance evaluate no function; the correlation, a
    read of the kernel's metric Gram, evaluates f once, on the ratios of
    the spectrum's pairs, and builds no mean or tilde table."""

    def no_table(*args):
        raise AssertionError("a table was built")

    for name in ("monotone.mean_table", "sweep.mean_table", "volumes.mean_table", "monotone.tilde"):
        monkeypatch.setattr(f"qfivol.{name}", no_table)
    calls = []
    counted = MonotoneFunction("counted", lambda y: calls.append(np.shape(y)) or WY.evaluate(y), 0.25,
                               WY.formula)
    calls.clear()
    state = DensityMatrix(np.diag([0.6, 0.3, 0.1]))
    ctx = metric_context(state, counted)
    covariance(state, np.eye(3), np.ones((3, 3)))
    assert calls == []
    value = f_correlation(ctx, np.eye(3), np.ones((3, 3)))
    assert calls == [(1, 3)]
    assert value == f_correlation(metric_context(state, WY), np.eye(3), np.ones((3, 3)))


def test_covariance_and_f_correlation_build_only_their_grams(monkeypatch):
    """Neither runs an SVD, a determinant or a Robertson matrix: both read
    the kernel's weighted Gram product alone, while volume_gap, which
    reads determinants, trips the same spies."""

    def forbidden(*args, **kwargs):
        raise AssertionError("spied call")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    for module in (matrices, volumes):
        monkeypatch.setattr(module, "det_small", forbidden)
    monkeypatch.setattr(volumes, "_commutator_gram", forbidden)
    state = DensityMatrix(np.diag([0.6, 0.3, 0.1]))
    a, b = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 2.0], [0.0, 2.0, 0.5]]), np.ones((3, 3))
    assert covariance(state, a, b) != 0.0
    assert f_correlation(metric_context(state, WY), a, b) != 0.0
    with pytest.raises(AssertionError, match="spied"):
        volume_gap(GramSpec(state, (a, b), WY))


def test_qfi_inner_zero_vector():
    state = DensityMatrix(np.diag([0.6, 0.4]))
    ctx = metric_context(state, SLD)
    assert qfi_inner(ctx, np.zeros((2, 2)), np.zeros((2, 2))) == 0.0


def test_qfi_inner_commuting_normalization():
    """For [rho, A] = 0 every monotone metric reduces to Tr(rho^-1 A^2)."""
    state = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
    a = np.diag([1.0, -2.0, 0.5])
    expected = float(np.trace(np.diag(1.0 / np.diag(state.matrix)) @ a @ a))
    for f in (*regular_builtins(), RLD):
        ctx = metric_context(state, f)
        assert_allclose(qfi_inner(ctx, a, a), expected, rtol=1e-12)


def test_qfi_inner_positive_definite_on_nonzero():
    rng = np.random.default_rng(7)
    state = _random_density(rng, 3)
    ctx = metric_context(state, WY)
    for _ in range(20):
        x = _random_hermitian(rng, 3)
        assert qfi_inner(ctx, x, x) > 0.0


def test_qfi_inner_requires_faithful():
    state = sample_pure_state(3, 3, 0)
    ctx = metric_context(state, SLD)
    x = np.diag([1.0, -1.0, 0.0])
    with pytest.raises(MetricUndefinedError):
        qfi_inner(ctx, x, x)


def test_qfi_inner_scaled_commutator_closed_form():
    # diag(3/4, 1/4) with sigma_x: (f(0)/2) <i[rho,X], i[rho,X]> = (2p-1)^2
    state = DensityMatrix(np.diag([0.75, 0.25]))
    ctx = metric_context(state, SLD)
    x = icommutator(state, SIGMA_X)
    value = 0.5 * SLD.value_at_zero * qfi_inner(ctx, x, x)
    assert_allclose(value, 0.25, rtol=1e-13)


def test_f_correlation_qubit_value():
    state = DensityMatrix(np.diag([0.75, 0.25]))
    ctx = metric_context(state, WY)
    expected = 1.0 - np.sqrt(3.0) / 2.0
    assert_allclose(f_correlation(ctx, SIGMA_X, SIGMA_X), expected, rtol=1e-13)


def test_f_correlation_requires_regular():
    state = DensityMatrix(np.diag([0.75, 0.25]))
    ctx = metric_context(state, RLD)
    with pytest.raises(TildeUndefinedError):
        f_correlation(ctx, SIGMA_X, SIGMA_X)


def test_f_correlation_nonnegative_on_diagonal():
    """Corr_f(A, A) is a skew-information-type quantity, hence nonnegative."""
    rng = np.random.default_rng(11)
    for k in range(200):
        dim = 2 + k % 4
        if k % 2:
            state = _random_density(rng, dim)
        else:
            state = sample_pure_state(11, dim, k)
        ctx = metric_context(state, regular_builtins()[k % 4])
        a = _random_hermitian(rng, dim)
        assert f_correlation(ctx, a, a) >= -1e-12


def test_f_correlation_commuting_is_zero():
    state = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
    a = np.diag([1.0, -2.0, 0.5])
    for f in regular_builtins():
        ctx = metric_context(state, f)
        assert abs(f_correlation(ctx, a, a)) <= 1e-12


def test_f_correlation_equals_covariance_on_pure_states():
    rng = np.random.default_rng(13)
    for k in range(20):
        dim = 2 + k % 4
        state = sample_pure_state(13, dim, k)
        a = _random_hermitian(rng, dim)
        b = _random_hermitian(rng, dim)
        cov = covariance(state, a, b)
        for f in regular_builtins():
            corr = f_correlation(metric_context(state, f), a, b)
            assert abs(corr - cov) <= 1e-12 * max(1.0, abs(cov))


def test_identity_residual_commuting_case():
    state = DensityMatrix(np.diag([0.6, 0.4]))
    ctx = metric_context(state, SLD)
    a = np.diag([1.0, -1.0])
    assert identity_residual(ctx, a, a) < 1e-15


def test_identity_residual_random_faithful():
    """The commutator route and the tilde route agree to 1e-9 relative."""
    rng = np.random.default_rng(17)
    for k in range(100):
        dim = 2 + k % 5
        state = _random_density(rng, dim)
        a = _random_hermitian(rng, dim)
        b = _random_hermitian(rng, dim)
        f = regular_builtins()[k % 4]
        ctx = metric_context(state, f)
        scale = max(1.0, abs(f_correlation(ctx, a, b)))
        assert identity_residual(ctx, a, b) <= 1e-9 * scale


def test_near_pure_limit_probe():
    """As the state approaches a projector the tilde term dies off.

    The decay rate is function dependent: linear in eps for the arithmetic
    generator, square root for the geometric one, so only the former reaches
    1e-6 at eps = 1e-10.
    """
    def gap(f, eps):
        state = DensityMatrix((1.0 - eps) * np.diag([1.0, 0.0]) + eps * np.eye(2) / 2.0)
        ctx = metric_context(state, f)
        cov = covariance(state, SIGMA_X, SIGMA_X)
        return abs(f_correlation(ctx, SIGMA_X, SIGMA_X) - cov)

    for f in (SLD, WY):
        gaps = [gap(f, eps) for eps in (1e-2, 1e-4, 1e-6)]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0
    assert gap(SLD, 1e-10) <= 1e-6


def test_bilinearity_of_inner_and_correlation():
    rng = np.random.default_rng(19)
    state = _random_density(rng, 3)
    ctx = metric_context(state, WY)
    a, b, c = (_random_hermitian(rng, 3) for _ in range(3))
    combined = f_correlation(ctx, a, 1.5 * b - 2.0 * c)
    parts = 1.5 * f_correlation(ctx, a, b) - 2.0 * f_correlation(ctx, a, c)
    assert_allclose(combined, parts, rtol=1e-10, atol=1e-12)
    xa, xb, xc = (icommutator(state, m) for m in (a, b, c))
    combined = qfi_inner(ctx, xa, 1.5 * xb - 2.0 * xc)
    parts = 1.5 * qfi_inner(ctx, xa, xb) - 2.0 * qfi_inner(ctx, xa, xc)
    assert_allclose(combined, parts, rtol=1e-10, atol=1e-12)


def test_repro_rows_are_the_single_function_reads_bit_for_bit():
    """repro makes one kernel call per state (entanglement) and per draw
    (pure volumes); each row still has the bits of the one-function calls."""
    mixture, entangled = DensityMatrix(FOUR_LEVEL_MIXTURE), DensityMatrix(FOUR_LEVEL_PURE)
    rows = repro.entanglement_rows()
    assert [row["function"] for row in rows] == list(repro.EXAMPLE_FUNCTIONS)
    for row in rows:
        f = builtin(row["function"])
        assert row == {
            "function": f.fid,
            "cov_mixture": covariance(mixture, FOUR_LEVEL_A, FOUR_LEVEL_B),
            "corr_mixture": f_correlation(metric_context(mixture, f), FOUR_LEVEL_A, FOUR_LEVEL_B),
            "cov_entangled": covariance(entangled, FOUR_LEVEL_A, FOUR_LEVEL_B),
            "corr_entangled": f_correlation(
                metric_context(entangled, f), FOUR_LEVEL_A, FOUR_LEVEL_B
            ),
        }
    for dim, n, seed in ((2, 1, 0), (3, 2, 42), (4, 3, 7)):
        rows = repro.pure_volume_rows(dim, n, seed, draws=2)
        assert len(rows) == 2 * len(repro.EXAMPLE_FUNCTIONS)
        spec = RandomSpec(seed, dim, "density")
        for row in rows:
            state = sample_pure_state(seed, dim, row["draw"])
            observables = sample_observables(spec, row["draw"], n)
            report = volume_gap(GramSpec(state, observables, builtin(row["function"])))
            vol_cov = math.sqrt(max(0.0, report.cov_det))
            vol_qfi = math.sqrt(max(0.0, report.qfi_det))
            assert row == {
                "draw": row["draw"], "function": row["function"], "volume_cov": vol_cov,
                "volume_qfi": vol_qfi, "volume_gap": abs(vol_cov - vol_qfi), "det_gap": report.gap,
            }
