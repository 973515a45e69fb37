"""Tests for Gram volumes, the determinant gap, and its explicit decomposition."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfivol import (
    DensityMatrix,
    GramSpec,
    MetricUndefinedError,
    RLD,
    SLD,
    TildeUndefinedError,
    WY,
    as_hermitian,
    check_inequalities,
    mean_table,
    observables_dependent,
    regular_builtins,
    robertson_bound,
    sample_observables,
    sample_pure_state,
    sample_state,
    scalar_mean,
    tilde,
    to_eigenframe,
    volume_gap,
    wyd,
    RandomSpec,
)
from qfivol import volumes
from qfivol.oracles import gap_from_decomposition, h_weight, k_coefficient, k_grid
from qfivol.repro import hessian_generalized_variance

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def _random_hermitian(rng, dim, real=False):
    m = rng.standard_normal((dim, dim))
    if not real:
        m = m + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def _random_density(rng, dim, real=False):
    g = rng.standard_normal((dim, dim))
    if not real:
        g = g + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def test_gram_spec_validation():
    state = DensityMatrix(np.diag([0.6, 0.4]))
    with pytest.raises(ValueError, match="observables"):
        GramSpec(state, (), SLD)
    with pytest.raises(ValueError, match="shape"):
        GramSpec(state, (np.eye(3),), SLD)
    with pytest.raises(TildeUndefinedError):
        GramSpec(state, (SIGMA_X,), RLD)


def test_single_observable_gap_frozen_value():
    # diag(3/4, 1/4) with sigma_x and the geometric tilde mean: gap = sqrt(3)/2
    state = DensityMatrix(np.diag([0.75, 0.25]))
    report = volume_gap(GramSpec(state, (SIGMA_X,), WY), with_decomposition=True)
    assert_allclose(report.cov_det, 1.0, rtol=0, atol=0)
    assert_allclose(report.gap, np.sqrt(3.0) / 2.0, rtol=1e-14)
    assert_allclose(report.qfi_det, 1.0 - np.sqrt(3.0) / 2.0, rtol=1e-13)
    assert report.robertson_det is None
    assert_allclose(report.decomposition_gap, report.gap, rtol=1e-14)


def test_single_observable_gap_is_tilde_weighted_frame_mass():
    rng = np.random.default_rng(1)
    for k in range(20):
        state = _random_density(rng, 3)
        a = _random_hermitian(rng, 3)
        f = regular_builtins()[k % 4]
        report = volume_gap(GramSpec(state, (a,), f))
        frame = to_eigenframe(state, a)
        table = mean_table(tilde(f), state.eigenvalues)
        expected = float(np.sum(table * np.abs(frame) ** 2))
        assert_allclose(report.gap, expected, rtol=1e-12)
        assert report.gap >= 0.0


def test_volume_vanishes_for_dependent_observables():
    rng = np.random.default_rng(2)
    state = _random_density(rng, 3)
    a = _random_hermitian(rng, 3)
    b = _random_hermitian(rng, 3)
    c = a + b
    report = volume_gap(GramSpec(state, (a, b, c), SLD))
    assert math.sqrt(max(0.0, report.cov_det)) <= 1e-6
    assert math.sqrt(max(0.0, report.qfi_det)) <= 1e-6
    assert observables_dependent(state, (a, b, c))
    assert not observables_dependent(state, (a, b))


def test_pure_state_volumes_coincide():
    rng = np.random.default_rng(3)
    for k in range(20):
        dim = 2 + k % 5
        state = sample_pure_state(3, dim, k)
        n = 1 + k % 3
        observables = tuple(_random_hermitian(rng, dim) for _ in range(n))
        for f in regular_builtins():
            spec = GramSpec(state, observables, f)
            report = volume_gap(spec)
            vol_cov = math.sqrt(max(0.0, report.cov_det))
            vol_qfi = math.sqrt(max(0.0, report.qfi_det))
            assert abs(vol_cov - vol_qfi) <= 1e-8


def test_h_weight_collapses_at_equal_pairs():
    # with each pair equal the means and arithmetic averages coincide,
    # so the weight reduces to the plain product of the pair values
    for f in regular_builtins():
        assert h_weight(f, (0.3, 0.3, 0.5, 0.5, 0.2, 0.2)) == 0.3 * 0.5 * 0.2
        assert h_weight(f, (0.3, 0.3, 0.7, 0.7)) == 0.3 * 0.7
        # one equal pair: the weight reduces to that value times the other
        # pair's arithmetic average
        assert_allclose(h_weight(f, (0.3, 0.3, 0.7, 0.1)), 0.3 * 0.4, rtol=1e-14)


def test_h_weight_strict_positivity():
    """The six-argument weight stays strictly positive even at extreme ratios."""
    rng = np.random.default_rng(5)
    for f in regular_builtins():
        for _ in range(1000):
            args = 10.0 ** rng.uniform(-8.0, 0.0, size=6)
            assert h_weight(f, args) > 0.0
        for _ in range(250):
            args = 10.0 ** rng.uniform(-6.0, 0.0, size=4)
            assert h_weight(f, args) > 0.0


def test_h_weight_matches_defining_forms():
    rng = np.random.default_rng(7)
    for f in regular_builtins():
        ft = tilde(f)
        f0 = f.value_at_zero
        for _ in range(100):
            x, y, h, k, w, z = rng.uniform(0.05, 1.0, size=6)
            m1, m2, m3 = (
                scalar_mean(ft, x, y),
                scalar_mean(ft, h, k),
                scalar_mean(ft, w, z),
            )
            expected2 = 0.5 * (x + y) * m3 + 0.5 * (w + z) * m1 - m1 * m3
            assert_allclose(h_weight(f, (x, y, w, z)), expected2, rtol=1e-12)
            prod = 1.0
            for u, v in ((x, y), (h, k), (w, z)):
                prod *= f0 * (u - v) ** 2 / scalar_mean(f, u, v)
            expected3 = ((x + y) * (h + k) * (w + z) - prod) / 8.0
            assert_allclose(h_weight(f, (x, y, h, k, w, z)), expected3, rtol=1e-11)


def test_h_weight_monotone_in_tilde_order():
    """A pointwise larger tilde transform gives a pointwise larger weight."""
    rng = np.random.default_rng(9)
    chain = regular_builtins()
    for _ in range(1000):
        args6 = 10.0 ** rng.uniform(-4.0, 0.0, size=6)
        args4 = args6[:4]
        for f, g in zip(chain, chain[1:]):
            assert h_weight(f, args6) <= h_weight(g, args6) + 1e-12
            assert h_weight(f, args4) <= h_weight(g, args4) + 1e-12


def test_h_weight_validation():
    with pytest.raises(ValueError, match="positive"):
        h_weight(SLD, (1.0, -1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="4 or 6"):
        h_weight(SLD, (1.0, 2.0, 3.0))
    with pytest.raises(TildeUndefinedError):
        h_weight(RLD, (1.0, 2.0, 3.0, 4.0))


def test_k_coefficient_zero_partner():
    rng = np.random.default_rng(11)
    a = _random_hermitian(rng, 3)
    b = np.zeros((3, 3))
    for p in ((0, 1, 1, 2), (0, 0, 2, 1)):
        assert k_coefficient((a, b), p) == 0.0


def test_k_coefficient_matches_grid():
    rng = np.random.default_rng(13)
    frames2 = [_random_hermitian(rng, 3) for _ in range(2)]
    grid2 = k_grid(frames2)
    frames3 = [_random_hermitian(rng, 2) for _ in range(3)]
    grid3 = k_grid(frames3)
    for _ in range(50):
        i, j, k, l = rng.integers(0, 3, size=4)
        assert_allclose(
            k_coefficient(frames2, (i, j, k, l)),
            grid2[3 * i + j, 3 * k + l],
            rtol=1e-12,
            atol=1e-14,
        )
        i, j, k, l, m, o = rng.integers(0, 2, size=6)
        assert_allclose(
            k_coefficient(frames3, (i, j, k, l, m, o)),
            grid3[2 * i + j, 2 * k + l, 2 * m + o],
            rtol=1e-12,
            atol=1e-14,
        )


def test_k_order_two_nonnegative():
    """The two-frame coefficient is nonnegative for arbitrary complex frames."""
    rng = np.random.default_rng(17)
    for _ in range(100):
        frames = [_random_hermitian(rng, 3) for _ in range(2)]
        assert np.min(k_grid(frames)) >= -1e-12


def test_k_order_three_real_equals_squared_determinant():
    """For real symmetric frames the coefficient is a squared 3x3 determinant."""
    rng = np.random.default_rng(19)
    for _ in range(1000):
        frames = [_random_hermitian(rng, 3, real=True) for _ in range(3)]
        pairs = [tuple(rng.integers(0, 3, size=2)) for _ in range(3)]
        flat = tuple(int(i) for p in pairs for i in p)
        mat = np.array([[f[p] for p in pairs] for f in frames])
        det = np.linalg.det(mat)
        assert abs(k_coefficient(frames, flat) - det**2) <= 1e-10


def test_k_order_three_structured_nonnegative():
    """Structured triples (arbitrary, zero-diagonal, diagonal) give K >= 0."""
    for index in range(10):
        spec = RandomSpec(23, 3 + index % 2, "pauli-like-structured")
        state = sample_state(spec, index)
        observables = sample_observables(spec, index, 3)
        frames = [to_eigenframe(state, o) for o in observables]
        assert np.min(k_grid(frames)) >= -1e-12


def test_k_order_three_structured_diagonal_pairs_vanish():
    # with one frame zero-diagonal, all-diagonal index pairs kill every term
    spec = RandomSpec(29, 3, "pauli-like-structured")
    state = sample_state(spec, 0)
    frames = [to_eigenframe(state, o) for o in sample_observables(spec, 0, 3)]
    assert k_coefficient(frames, (0, 0, 1, 1, 2, 2)) == 0.0


def test_k_frame_count_validation():
    rng = np.random.default_rng(31)
    one = [_random_hermitian(rng, 2)]
    with pytest.raises(ValueError):
        k_grid(one)
    with pytest.raises(ValueError, match="two indices"):
        k_coefficient(one * 2, (0, 1, 0))


def test_decomposition_matches_gap():
    """The term-by-term H*K sums reproduce the determinant gap."""
    rng = np.random.default_rng(37)
    for n in (1, 2, 3):
        for k in range(30):
            dim = 2 + k % 4
            state = _random_density(rng, dim)
            observables = tuple(_random_hermitian(rng, dim) for _ in range(n))
            f = regular_builtins()[k % 4]
            report = volume_gap(GramSpec(state, observables, f), with_decomposition=True)
            scale = max(1.0, abs(report.cov_det))
            assert abs(report.decomposition_gap - report.gap) <= 1e-8 * scale


def test_decomposition_restrictions():
    rng = np.random.default_rng(41)
    state = _random_density(rng, 2)
    obs = tuple(_random_hermitian(rng, 2) for _ in range(4))
    with pytest.raises(ValueError, match="1, 2, or 3"):
        gap_from_decomposition(GramSpec(state, obs, SLD))
    pure = sample_pure_state(41, 2, 0)
    with pytest.raises(MetricUndefinedError):
        gap_from_decomposition(GramSpec(pure, obs[:2], SLD))
    big = _random_density(rng, 7)
    big_obs = (_random_hermitian(rng, 7),)
    with pytest.raises(ValueError, match="dim"):
        gap_from_decomposition(GramSpec(big, big_obs, SLD))


def test_robertson_odd_count_is_exactly_zero():
    rng = np.random.default_rng(43)
    state = _random_density(rng, 3)
    obs = tuple(_random_hermitian(rng, 3) for _ in range(3))
    assert robertson_bound(state, obs) == 0.0


def test_robertson_validates_every_count():
    """Odd counts are checked before the exact-zero shortcut, and a mismatched
    even count is named rather than failing inside the stacked trace."""
    state = DensityMatrix(np.diag([0.6, 0.4]))
    with pytest.raises(ValueError, match=r"shape \(3, 3\) does not match dim 2"):
        robertson_bound(state, (np.eye(3),))
    with pytest.raises(ValueError, match="self-adjoint"):
        robertson_bound(state, (np.array([[0.0, 1.0], [0.0, 0.0]]),))
    with pytest.raises(ValueError, match=r"shape \(3, 3\) does not match dim 2"):
        robertson_bound(state, (np.eye(3), np.eye(3)))


def test_robertson_qubit_value():
    p = 0.8
    state = DensityMatrix(np.diag([p, 1.0 - p]))
    assert_allclose(robertson_bound(state, (SIGMA_X, SIGMA_Y)), (2 * p - 1) ** 2, rtol=1e-13)


def test_robertson_commuting_family_is_zero():
    state = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
    obs = (np.diag([1.0, 2.0, 3.0]), np.diag([-1.0, 0.5, 2.0]))
    assert abs(robertson_bound(state, obs)) <= 1e-14


def test_robertson_and_gap_lower_bounds_pair_count():
    """For two observables the covariance determinant dominates both the
    metric determinant and the commutator bound."""
    rng = np.random.default_rng(47)
    for k in range(500):
        dim = 2 + k % 4
        state = _random_density(rng, dim)
        obs = tuple(_random_hermitian(rng, dim) for _ in range(2))
        report = volume_gap(GramSpec(state, obs, regular_builtins()[k % 4]))
        scale = max(1.0, abs(report.cov_det))
        assert report.cov_det >= report.qfi_det - 1e-10 * scale
        assert report.cov_det >= report.robertson_det - 1e-10 * scale


def test_covariance_gram_is_positive_semidefinite():
    rng = np.random.default_rng(53)
    for k in range(500):
        dim = 2 + k % 4
        n = 1 + k % 4
        state = _random_density(rng, dim)
        obs = tuple(_random_hermitian(rng, dim) for _ in range(n))
        report = volume_gap(GramSpec(state, obs, SLD))
        eigenvalues = np.linalg.eigvalsh(report.cov_gram)
        assert eigenvalues[0] >= -1e-10


def test_check_inequalities_real_triple():
    rng = np.random.default_rng(59)
    state = _random_density(rng, 3, real=True)
    obs = tuple(_random_hermitian(rng, 3, real=True) for _ in range(3))
    verdict = check_inequalities(GramSpec(state, obs, SLD))
    assert verdict.main_holds
    assert not verdict.candidate_counterexample
    assert verdict.monotonicity_holds is None


def test_check_inequalities_dependent_equality():
    rng = np.random.default_rng(61)
    state = _random_density(rng, 3)
    a = _random_hermitian(rng, 3)
    b = _random_hermitian(rng, 3)
    verdict = check_inequalities(GramSpec(state, (a, b, a + b), WY))
    assert verdict.dependent
    assert verdict.equality_consistent
    assert abs(verdict.report.gap) <= 1e-8 * verdict.scale


def test_volume_gap_skips_the_dependence_svd(monkeypatch):
    """volume_gap reports no dependence verdict, so its kernel call runs no
    SVD; check_inequalities still does."""
    rng = np.random.default_rng(62)
    state = _random_density(rng, 3)
    spec = GramSpec(state, (_random_hermitian(rng, 3), _random_hermitian(rng, 3)), WY)
    expected = volume_gap(spec)

    def no_svd(centered):
        raise AssertionError("dependence SVD ran")

    monkeypatch.setattr(volumes, "_dependent", no_svd)
    report = volume_gap(spec)
    assert report.qfi_gram.tobytes() == expected.qfi_gram.tobytes()
    assert (report.gap, report.robertson_det) == (expected.gap, expected.robertson_det)
    with pytest.raises(AssertionError, match="dependence SVD ran"):
        check_inequalities(spec)


def test_single_spec_calls_validate_observables_once(monkeypatch):
    """GramSpec validates its observables; the kernel calls on a spec do not
    validate them again, and the observable-taking helpers validate once."""
    rng = np.random.default_rng(63)
    state = _random_density(rng, 3)
    obs = (_random_hermitian(rng, 3), _random_hermitian(rng, 3))
    calls = []

    def counted(matrix):
        calls.append(1)
        return as_hermitian(matrix)

    monkeypatch.setattr(volumes, "as_hermitian", counted)
    spec = GramSpec(state, obs, WY)
    assert len(calls) == 1
    check_inequalities(spec, partner=SLD)
    volume_gap(spec)
    assert len(calls) == 1
    robertson_bound(state, obs)
    observables_dependent(state, obs)
    assert len(calls) == 3


def test_check_inequalities_two_level_real_triples_degenerate():
    """Three centered real symmetric 2x2 observables are always dependent,
    so the gap must sit at the equality point."""
    rng = np.random.default_rng(67)
    for _ in range(20):
        state = _random_density(rng, 2, real=True)
        obs = tuple(_random_hermitian(rng, 2, real=True) for _ in range(3))
        verdict = check_inequalities(GramSpec(state, obs, SLD))
        assert verdict.dependent
        assert verdict.equality_consistent


def test_check_inequalities_monotone_partner():
    rng = np.random.default_rng(71)
    for k in range(50):
        state = _random_density(rng, 3, real=True)
        obs = tuple(_random_hermitian(rng, 3, real=True) for _ in range(3))
        verdict = check_inequalities(GramSpec(state, obs, SLD), partner=WY)
        assert verdict.monotonicity_holds is True


def test_volume_chain_on_real_triples():
    """Stronger tilde transforms shrink the metric volume monotonically.

    Dimension 2 is excluded: three centered real symmetric 2x2 observables
    are always linearly dependent, so both volumes sit at rounding noise and
    an absolute comparison is meaningless there.
    """
    rng = np.random.default_rng(73)
    chain = regular_builtins()
    for k in range(50):
        dim = 3 + k % 3
        state = _random_density(rng, dim, real=True)
        obs = tuple(_random_hermitian(rng, dim, real=True) for _ in range(3))
        vols = [math.sqrt(max(0.0, volume_gap(GramSpec(state, obs, f)).qfi_det)) for f in chain]
        for first, second in zip(vols, vols[1:]):
            assert first >= second - 1e-10


def test_hessian_frozen_values():
    p = np.array([1.0, 1.0, 1.0]) / 3.0
    x = np.array([1.0, 0.0, -1.0])
    y = np.array([1.0, -2.0, 1.0])
    hess = hessian_generalized_variance(p, x, y)
    vertex = np.array([0.0, 1.0, 0.0])
    assert_allclose(p @ hess @ p, 8.0 / 3.0, rtol=1e-14)
    assert_allclose(vertex @ hess @ vertex, -16.0 / 3.0, rtol=1e-14)
    assert np.array_equal(hess, hess.T)


def test_hessian_zero_x_vanishes():
    p = np.array([0.5, 0.3, 0.2])
    hess = hessian_generalized_variance(p, np.zeros(3), np.array([1.0, -1.0, 2.0]))
    assert np.max(np.abs(hess)) == 0.0


def test_hessian_matches_finite_differences():
    """Central second differences of the generalized variance itself."""
    p = np.array([0.5, 0.3, 0.2])
    x = np.array([1.0, -0.3, 2.0])
    y = np.array([0.4, 1.1, -2.2])

    def objective(q):
        ex, ey = q @ x, q @ y
        var_x = q @ x**2 - ex**2
        var_y = q @ y**2 - ey**2
        cov = q @ (x * y) - ex * ey
        return var_x * var_y - cov**2

    hess = hessian_generalized_variance(p, x, y)
    eps = 1e-3
    eye = np.eye(3)
    for i in range(3):
        for j in range(3):
            stencil = (
                objective(p + eps * (eye[i] + eye[j]))
                - objective(p + eps * (eye[i] - eye[j]))
                - objective(p - eps * (eye[i] - eye[j]))
                + objective(p - eps * (eye[i] + eye[j]))
            ) / (4.0 * eps**2)
            assert abs(stencil - hess[i, j]) <= 1e-7


def test_hessian_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        hessian_generalized_variance([0.5, 0.6], [1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="nonnegative"):
        hessian_generalized_variance([1.5, -0.5], [1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="equal length"):
        hessian_generalized_variance([0.5, 0.5], [1.0, 2.0, 3.0], [1.0, 2.0])


def test_wyd_low_beta_enters_chain():
    # the chain used throughout orders the family by decreasing beta
    assert wyd(0.1).value_at_zero < wyd(0.25).value_at_zero
