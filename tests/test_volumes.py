"""Tests for Gram volumes, the determinant gap, and its explicit decomposition."""

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
    check_inequalities,
    mean_table,
    observables_dependent,
    regular_builtins,
    robertson_bound,
    scalar_mean,
    tilde,
    to_eigenframe,
    volume_gap,
    wyd,
    RandomSpec,
)
from qfivol import matrices, metrics, monotone, oracles, sweep, volumes
from qfivol.matrices import EIGENVALUE_FLOOR, as_hermitian
from qfivol.monotone import tilde_order
from qfivol.oracles import gap_from_decomposition, h_weight, k_coefficient
from qfivol.repro import hessian_generalized_variance
from qfivol.sampling import draw_samples, sample_observables, sample_pure_state, sample_state
from qfivol.volumes import order_pairs

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
    spec = GramSpec(DensityMatrix(np.diag([0.75, 0.25])), (SIGMA_X,), WY)
    report = volume_gap(spec)
    assert_allclose(report.cov_det, 1.0, rtol=0, atol=0)
    assert_allclose(report.gap, np.sqrt(3.0) / 2.0, rtol=1e-14)
    assert_allclose(report.qfi_det, 1.0 - np.sqrt(3.0) / 2.0, rtol=1e-13)
    assert report.robertson_det is None
    assert_allclose(gap_from_decomposition(spec), report.gap, rtol=1e-14)


def test_single_observable_gap_is_tilde_weighted_frame_mass():
    rng = np.random.default_rng(1)
    for k in range(20):
        state = _random_density(rng, 3)
        a = _random_hermitian(rng, 3)
        f = regular_builtins()[k % 4]
        report = volume_gap(GramSpec(state, (a,), f))
        frame = to_eigenframe(state, a)
        table = mean_table((tilde(f),), state.eigenvalues)[0]
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


ORDERS = range(1, 9)


def test_h_weight_collapses_at_equal_pairs():
    # with each pair equal the means and arithmetic averages coincide,
    # so the weight reduces to the plain product of the pair values
    values = (0.3, 0.5, 0.2, 0.7, 0.9, 0.4, 0.6, 0.8)
    for f in regular_builtins():
        for order in ORDERS:
            args = [x for x in values[:order] for _ in range(2)]
            assert h_weight(f, args) == math.prod(values[:order])
            # one equal pair: the weight reduces to that value times the
            # other pairs' arithmetic averages
            args = (0.3, 0.3) + (0.7, 0.1) * (order - 1)
            assert_allclose(h_weight(f, args), 0.3 * 0.4 ** (order - 1), rtol=1e-14)


def test_h_weight_strict_positivity():
    """The weight stays strictly positive at every order even at extreme ratios."""
    rng = np.random.default_rng(5)
    for f in regular_builtins():
        for order in ORDERS:
            for _ in range(150):
                args = 10.0 ** rng.uniform(-8.0, 0.0, size=2 * order)
                assert h_weight(f, args) > 0.0


def test_h_weight_matches_defining_forms():
    rng = np.random.default_rng(7)
    for f in regular_builtins():
        ft = tilde(f)
        f0 = f.value_at_zero
        for k in range(100):
            x, y, w, z = rng.uniform(0.05, 1.0, size=4)
            m1, m3 = scalar_mean(ft, x, y), scalar_mean(ft, w, z)
            expected2 = 0.5 * (x + y) * m3 + 0.5 * (w + z) * m1 - m1 * m3
            assert_allclose(h_weight(f, (x, y, w, z)), expected2, rtol=1e-12)
            args = rng.uniform(0.05, 1.0, size=2 * ORDERS[k % len(ORDERS)])
            pairs = list(zip(args[0::2], args[1::2]))
            averages = math.prod(0.5 * (u + v) for u, v in pairs)
            gaps = math.prod(f0 * (u - v) ** 2 / (2.0 * scalar_mean(f, u, v)) for u, v in pairs)
            assert_allclose(h_weight(f, args), averages - gaps, rtol=1e-11)


def test_h_weight_monotone_in_tilde_order():
    """A pointwise larger tilde transform gives a pointwise larger weight."""
    rng = np.random.default_rng(9)
    chain = regular_builtins()
    for k in range(1000):
        args = 10.0 ** rng.uniform(-4.0, 0.0, size=2 * ORDERS[k % len(ORDERS)])
        for f, g in zip(chain, chain[1:]):
            assert h_weight(f, args) <= h_weight(g, args) + 1e-12


def test_h_weight_validation():
    with pytest.raises(ValueError, match="positive"):
        h_weight(SLD, (1.0, -1.0, 2.0, 3.0))
    for count in (0, 3, 7, 18):
        with pytest.raises(ValueError, match="even count of 2..16"):
            h_weight(SLD, np.linspace(0.1, 0.9, count))
    with pytest.raises(TildeUndefinedError):
        h_weight(RLD, (1.0, 2.0, 3.0, 4.0))


def test_k_coefficient_zero_partner():
    rng = np.random.default_rng(11)
    a = _random_hermitian(rng, 3)
    b = np.zeros((3, 3))
    for p in ((0, 1, 1, 2), (0, 0, 2, 1)):
        assert k_coefficient((a, b), p) == 0.0


def test_k_order_two_nonnegative():
    """The coefficient is nonnegative for arbitrary complex frames: at order
    two on every index tuple, where it has a closed form, and at orders 4..8
    on sampled ones."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        a, b = (_random_hermitian(rng, 3) for _ in range(2))
        for i, j, k, l in np.ndindex(3, 3, 3, 3):
            value = k_coefficient((a, b), (i, j, k, l))
            closed = (
                abs(a[i, j]) ** 2 * abs(b[k, l]) ** 2
                + abs(a[k, l]) ** 2 * abs(b[i, j]) ** 2
                - 2.0 * np.real(a[i, j] * b[j, i]) * np.real(a[k, l] * b[l, k])
            )
            assert value >= 0.0
            assert abs(value - closed) <= 1e-12 * max(1.0, abs(closed))
    for order in range(4, 9):
        frames = [_random_hermitian(rng, 4) for _ in range(order)]
        for _ in range(20):
            assert k_coefficient(frames, tuple(rng.integers(0, 4, size=2 * order))) >= 0.0


def test_k_order_three_real_equals_squared_determinant():
    """For real symmetric frames the coefficient is a squared N x N determinant."""
    rng = np.random.default_rng(19)
    for k in range(1000):
        order = ORDERS[k % len(ORDERS)]
        frames = [_random_hermitian(rng, 3, real=True) for _ in range(order)]
        pairs = [tuple(rng.integers(0, 3, size=2)) for _ in range(order)]
        flat = tuple(int(i) for p in pairs for i in p)
        mat = np.array([[f[p] for p in pairs] for f in frames])
        det = np.linalg.det(mat)
        assert abs(k_coefficient(frames, flat) - det**2) <= 1e-10 * max(1.0, det**2)


def test_k_order_three_structured_nonnegative():
    """Structured triples (arbitrary, zero-diagonal, diagonal) give K >= 0."""
    rng = np.random.default_rng(23)
    for index in range(10):
        dim = 3 + index % 2
        spec = RandomSpec(23, dim, "pauli-like-structured")
        state = sample_state(spec, index)
        observables = sample_observables(spec, index, 3)
        frames = [to_eigenframe(state, o) for o in observables]
        for _ in range(100):
            assert k_coefficient(frames, tuple(rng.integers(0, dim, size=6))) >= 0.0


def test_k_order_three_structured_diagonal_pairs_vanish():
    # with one frame zero-diagonal, all-diagonal index pairs kill every term
    spec = RandomSpec(29, 3, "pauli-like-structured")
    state = sample_state(spec, 0)
    frames = [to_eigenframe(state, o) for o in sample_observables(spec, 0, 3)]
    assert k_coefficient(frames, (0, 0, 1, 1, 2, 2)) == 0.0


def test_k_frame_count_validation():
    rng = np.random.default_rng(31)
    one = [_random_hermitian(rng, 2)]
    with pytest.raises(ValueError, match="two indices"):
        k_coefficient(one * 2, (0, 1, 0))


def test_k_coefficient_validates_indices_and_frames():
    """Indices must be integers inside the frame, and the frames square
    matrices of one shape; nothing wraps, truncates or is padded."""
    rng = np.random.default_rng(33)
    a, b = (_random_hermitian(rng, 3) for _ in range(2))
    for indices in ((-1, 0, 0, 1), (1.7, 0, 0, 1), (0, 1, 3, 0), (0, 1, 1, 2.0), (True, 0, 0, 1)):
        with pytest.raises(ValueError, match="entry index must be"):
            k_coefficient((a, b), indices)
    for frames in ((a, b[:2, :2]), (a[:2], b[:2]), (a[0], b[0]), ()):
        with pytest.raises(ValueError, match="square frames of one shape"):
            k_coefficient(frames, (0, 1, 1, 0)[: 2 * len(frames)])
    assert k_coefficient((a, b), (np.int64(2), 0, 0, 1)) == k_coefficient((a, b), (2, 0, 0, 1))


def _assert_decomposes(spec):
    """The oracle reproduces the kernel's gap within 1e-12 max(1, |cov_det|),
    as a sum of nonnegative terms."""
    report = volume_gap(spec)
    decomposed = gap_from_decomposition(spec)
    assert decomposed >= 0.0
    scale = max(1.0, abs(report.cov_det))
    assert abs(decomposed - report.gap) <= 1e-12 * scale


def test_decomposition_matches_gap():
    """The term-by-term H*K sums reproduce the determinant gap for 1..8
    observables on complex and real states."""
    rng = np.random.default_rng(37)
    for n in (1, 2, 3):
        for k in range(30):
            dim = 2 + k % 4
            state = _random_density(rng, dim)
            observables = tuple(_random_hermitian(rng, dim) for _ in range(n))
            _assert_decomposes(GramSpec(state, observables, regular_builtins()[k % 4]))
    for n in ORDERS:
        for k in range(4):
            dim, real = 3 + k % 2, k >= 2
            state = _random_density(rng, dim, real)
            observables = tuple(_random_hermitian(rng, dim, real) for _ in range(n))
            _assert_decomposes(GramSpec(state, observables, regular_builtins()[k % 4]))


def test_decomposition_restrictions():
    """The only limit is the C(dim^2, N) term budget; pure states decompose."""
    rng = np.random.default_rng(41)
    big = _random_density(rng, 8)
    big_obs = tuple(_random_hermitian(rng, 8) for _ in range(5))
    assert math.comb(64, 5) > oracles.DECOMPOSITION_MAX_TERMS
    with pytest.raises(ValueError, match="terms"):
        gap_from_decomposition(GramSpec(big, big_obs, SLD))
    pure = sample_pure_state(41, 2, 0)
    _assert_decomposes(GramSpec(pure, tuple(_random_hermitian(rng, 2) for _ in range(2)), SLD))


def test_decomposition_of_pure_and_rank_deficient_states():
    """Non-faithful states decompose too: the gap is a nonnegative sum that
    matches the kernel's, which is 0 on pure states."""
    rng = np.random.default_rng(43)
    for k in range(12):
        dim, n = 2 + k % 3, 1 + k % 4
        if k % 2:
            state = sample_pure_state(43, dim, k)
        else:
            g = rng.standard_normal((dim, dim - 1)) + 1j * rng.standard_normal((dim, dim - 1))
            m = g @ g.conj().T
            state = DensityMatrix(m / np.trace(m).real)
        assert not state.faithful
        observables = tuple(_random_hermitian(rng, dim) for _ in range(n))
        for f in regular_builtins():
            _assert_decomposes(GramSpec(state, observables, f))


def _random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / abs(np.diag(r)))


@pytest.mark.parametrize("dim, rank, n", [(4, 2, 3), (5, 2, 4), (6, 3, 5), (3, 1, 2)])
def test_equality_set_of_rank_deficient_states(dim, rank, n):
    """C - Q = sum tilde_f(lam_u, lam_v) Re{a_uv b_vu}, and tilde_f vanishes
    unless both eigenvalues are positive, so the gap is 0 exactly when every
    centered observable vanishes on the support of rho.  With rho = U
    diag(lam, 0) U^dagger and A_h = U B_h U^dagger + 0.3 I, where B_h's
    support block is eps * S_h and its other blocks are random, the gap is 0
    at eps = 0 and grows as eps^2 off it; at rank 1 centering removes the
    support block, so it is 0 for every eps.  n <= 2 r (d - r) keeps det C
    > 0."""
    rng = np.random.default_rng(0)
    u = _random_unitary(rng, dim)
    lam = rng.uniform(0.2, 1.0, rank)
    lam /= lam.sum()
    state = DensityMatrix(u @ np.diag(np.concatenate([lam, np.zeros(dim - rank)])) @ u.conj().T)
    assert not state.faithful
    blocks = [_random_hermitian(rng, dim) for _ in range(n)]

    def observables(eps):
        obs = []
        for b in blocks:
            b = b.copy()
            b[:rank, :rank] *= eps
            obs.append(u @ b @ u.conj().T + 0.3 * np.eye(dim))
        return obs

    for f in (SLD, WY, wyd(0.25)):
        relative = []
        for eps in (0.0, 1e-2, 1e-3, 1e-4):
            spec = GramSpec(state, observables(eps), f)
            report = volume_gap(spec)
            assert report.cov_det > 0.0
            oracle = gap_from_decomposition(spec)
            assert abs(report.gap - oracle) <= 1e-14 * report.cov_det, (f.fid, eps)
            if eps == 0.0 or rank == 1:
                assert report.gap == 0.0, (f.fid, eps)
                assert 0.0 <= oracle <= 1e-26 * report.cov_det, (f.fid, eps)
            relative.append(report.gap / report.cov_det)
        if rank > 1:
            assert all(r > 0.0 for r in relative[1:]), f.fid
            ratios = [hi / lo for hi, lo in zip(relative[1:], relative[2:])]
            assert all(95.0 < ratio < 105.0 for ratio in ratios), (f.fid, ratios)


def test_decomposition_is_nonnegative_on_extreme_spectra():
    """Every term is a product of nonnegative factors, so the sum is >= 0.0
    exactly on spectra spread down to the eigenvalue floor and on spectra
    flat to within 1e-7."""
    rng = np.random.default_rng(47)
    spectra = []
    for dim in (3, 4):
        spread = np.geomspace(1.0, EIGENVALUE_FLOOR, dim)
        spread[0] = 1.0 - spread[1:].sum()
        flat = np.full(dim, 1.0 / dim) + 1e-7 * np.linspace(-0.5, 0.5, dim)
        spectra += [spread, flat / flat.sum()]
    for k, lam in enumerate(spectra):
        state = DensityMatrix(np.diag(lam))
        assert state.faithful
        for n in ORDERS:
            observables = tuple(_random_hermitian(rng, len(lam), k % 2 == 1) for _ in range(n))
            for f in regular_builtins():
                _assert_decomposes(GramSpec(state, observables, f))


def test_decomposition_never_calls_the_kernel(monkeypatch):
    """The oracle reaches the gap without the kernel's batch, Grams or
    determinants, wherever a module holds them."""
    rng = np.random.default_rng(53)
    specs = []
    for n in (1, 2, 4, 6):
        state = _random_density(rng, 3)
        observables = tuple(_random_hermitian(rng, 3) for _ in range(n))
        specs.append(GramSpec(state, observables, WY))
    gaps = [volume_gap(spec).gap for spec in specs]

    def forbidden(*args, **kwargs):
        raise AssertionError("the decomposition called into the kernel")

    for name in ("coordinate_batch", "coordinate_grams", "det_small"):
        for module in (matrices, metrics, volumes, oracles):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(AssertionError, match="kernel"):
        volume_gap(specs[0])
    for spec, gap in zip(specs, gaps):
        assert abs(gap_from_decomposition(spec) - gap) <= 1e-12 * max(1.0, abs(gap))


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


def _reference_smallest_singular_value(state, observables):
    """The dependence SVD in the original basis: [Re, Im] vectorizations of
    the centered observables, 2 d^2 columns."""
    rows = []
    for o in observables:
        centered = o - np.trace(state.matrix @ o).real * np.eye(state.dim)
        rows.append(np.concatenate([centered.real.ravel(), centered.imag.ravel()]))
    return np.linalg.svd(np.array(rows), compute_uv=False)[-1]


@pytest.mark.parametrize("real", [False, True])
def test_dependence_ladder_matches_the_original_basis_svd(real):
    """On (a, b, a + b + t c) for t from 1e-4 to 1e-12 the kernel's verdict,
    taken from the eigenframes' real coordinates, agrees with an SVD of the
    centered observables in the original basis on every rung more than 10x
    away from the threshold."""
    rng = np.random.default_rng(73)
    checked = {True: 0, False: 0}
    for dim in (2, 3, 4, 8):
        for _ in range(3):
            state = _random_density(rng, dim, real)
            a, b, c = (_random_hermitian(rng, dim, real) for _ in range(3))
            for t in np.logspace(-4, -12, 17):
                obs = (a, b, a + b + t * c)
                sv = _reference_smallest_singular_value(state, obs)
                if volumes.DEPENDENCE_SV_TOL / 10 <= sv <= 10 * volumes.DEPENDENCE_SV_TOL:
                    continue
                expected = bool(sv < volumes.DEPENDENCE_SV_TOL)
                assert observables_dependent(state, obs) == expected, (dim, t, sv)
                checked[expected] += 1
    assert min(checked.values()) >= 50


def _svd_flags(rho, vectors, observables):
    """The dependence flag of a direct SVD of the real coordinates of the
    frames U^dagger A U - Tr(rho A) I.  Rungs that are dependent in exact
    arithmetic sit at the threshold by roundoff, so the frames are formed
    with the products and traces to_eigenframe makes, per observable."""
    states = np.repeat(rho[:, None], observables.shape[1], axis=1)
    means = np.einsum("...ij,...ji->...", states, observables).real[..., None, None]
    frames = matrices.eigenframes(vectors, observables) - means * np.eye(rho.shape[-1])
    sv = np.linalg.svd(matrices.real_coordinates(frames), compute_uv=False)
    return sv[:, -1] < volumes.DEPENDENCE_SV_TOL


def _near_dependence_ladder(real, dim, seed):
    """For three states, every rung of A_3 = A_1 + delta A_2 in two sets,
    (A_1, A_2, A_3), dependent in exact arithmetic, and (A_1, B, A_3), whose
    smallest singular value falls with delta, each set scaled by s; as the
    (rho, eigenvalues, eigenvectors, observables) stacks the kernel takes."""
    rng = np.random.default_rng(seed)
    states, observables = [], []
    for _ in range(3):
        state = _random_density(rng, dim, real)
        a1, a2, b = (_random_hermitian(rng, dim, real) for _ in range(3))
        for delta in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            for s in (1e-9, 1e-4, 1.0, 1e4, 1e7):
                for second in (a2, b):
                    states.append(state)
                    observables.append(s * np.stack([a1, second, a1 + delta * a2]))
    stacks = (np.stack([getattr(x, name) for x in states]) for name in ("matrix", "eigenvalues", "eigenvectors"))
    return (*stacks, np.stack(observables))


def _live_cases(names, cases):
    """Parametrize ``names`` over the cases, with the ``live-`` ids they had
    while a second kernel wrote records."""
    return pytest.mark.parametrize(names, [
        pytest.param(*case, id="live-" + "-".join(map(str, case))) for case in cases
    ])


@_live_cases("real, dim", [(False, 3), (True, 4)])
def test_dependence_flags_equal_the_svd_on_a_near_dependence_ladder(real, dim):
    """The kernel, screened, flags each rung as a direct SVD does, at every
    scale, and a mixed batch gives each sample its batch-of-one flag."""
    kernel = volumes.coordinate_batch
    rho, lam, vectors, obs = _near_dependence_ladder(real, dim, 29 + dim)
    expected = _svd_flags(rho, vectors, obs)
    assert 0 < expected.sum() < len(expected)
    together = kernel(rho, lam, vectors, obs, ()).dependent
    assert together.tolist() == expected.tolist()
    for b in range(len(obs)):
        alone = kernel(rho[b:b + 1], lam[b:b + 1], vectors[b:b + 1], obs[b:b + 1], ())
        assert alone.dependent[0] == together[b], b


@pytest.fixture
def svd_rows(monkeypatch):
    """The row counts of every np.linalg.svd call, which still runs."""
    rows, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        rows.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return rows


@pytest.mark.parametrize(
    "ensemble, dim, n",
    [("complex", 2, 4), ("complex", 2, 5), ("real", 2, 4), ("real", 2, 3), ("real", 3, 6)],
    ids=["complex-4", "complex-5", "real-4", "real-3", "real-d3-6"],
)
def test_n_at_least_d_squared_is_dependent_without_an_svd(svd_rows, ensemble, dim, n):
    """n observables at or above their span, d^2 or, real symmetric,
    d(d+1)/2, are dependent with no SVD; the SVD, run here afterwards, calls
    every such sample dependent too."""
    (rho, lam, vectors), obs = draw_samples(RandomSpec(9, dim, ensemble), range(16), n)
    assert volumes.coordinate_batch(rho, lam, vectors, obs, (SLD,)).dependent.all()
    assert observables_dependent(DensityMatrix(rho[0]), obs[0])
    assert svd_rows == []
    assert _svd_flags(rho, vectors, obs).all()


def test_a_shipped_config_chunk_sends_no_sample_to_the_svd(svd_rows):
    config = sweep.SweepConfig(3, 3, 256, ("sld", "wy", "wyd:0.25"), "complex", 0)
    lines = b"".join(sweep._chunk_worker((config, 0, 256))[0]).splitlines()
    assert len(lines) == 3 * 256
    assert sum(svd_rows) == 0


def _forbid(monkeypatch, module, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(module, name, forbidden)


def _seed_7_complex_d4_n2(count=8):
    """Single-spec states and observable stacks of seed 7's first complex d4 n2
    draws, every one of which the kernel's Gram screen clears."""
    (rho, _, _), obs = draw_samples(RandomSpec(7, 4, "complex"), range(count), 2)
    return [(DensityMatrix(r), o) for r, o in zip(rho, obs)]


def _verdict_values(verdict):
    report = verdict.report
    return (verdict.main_holds, verdict.dependent, verdict.equality_consistent, verdict.monotonicity_holds,
            report.cov_det, report.qfi_det, report.gap, report.robertson_det)


def test_check_and_volume_gap_run_no_svd_where_the_screen_clears(monkeypatch):
    specs = [GramSpec(state, obs, WY) for state, obs in _seed_7_complex_d4_n2()]
    expected = [_verdict_values(check_inequalities(spec, partner=SLD)) for spec in specs]
    _forbid(monkeypatch, np.linalg, "svd")
    for spec, before in zip(specs, expected):
        verdict = check_inequalities(spec, partner=SLD)
        assert not verdict.dependent
        assert _verdict_values(verdict) == before
        assert volume_gap(spec).gap == verdict.report.gap


def test_robertson_bound_builds_no_gram_and_runs_no_dependence_test(monkeypatch):
    expected = [volume_gap(GramSpec(s, o, WY)).robertson_det for s, o in _seed_7_complex_d4_n2()]
    _forbid(monkeypatch, np.linalg, "svd")
    _forbid(monkeypatch, volumes, "_weights")
    _forbid(monkeypatch, volumes, "_dependent")
    for (state, obs), det in zip(_seed_7_complex_d4_n2(), expected):
        assert robertson_bound(state, obs) == det
        assert robertson_bound(state, (*obs, obs[0])) == 0.0


def test_observables_dependent_builds_no_gram_and_no_svd_where_the_screen_clears(monkeypatch):
    _forbid(monkeypatch, volumes, "_weights")
    _forbid(monkeypatch, volumes, "_commutator_gram")
    _forbid(monkeypatch, np.linalg, "svd")
    for state, obs in _seed_7_complex_d4_n2():
        assert not observables_dependent(state, obs)


def test_volume_gap_runs_no_dependence_test(monkeypatch):
    """volume_gap's report carries no dependence flag, so its one product
    asks for no screen row and it runs neither the screen nor an SVD."""
    specs = [GramSpec(state, obs, WY) for state, obs in _seed_7_complex_d4_n2()]
    expected = [volume_gap(spec) for spec in specs]
    rows, weights = [], volumes._weights

    def spy(*args, **kwargs):
        out = weights(*args, **kwargs)
        rows.append(len(out))
        return out

    monkeypatch.setattr(volumes, "_weights", spy)
    _forbid(monkeypatch, volumes, "_dependent")
    _forbid(monkeypatch, np.linalg, "svd")
    for spec, before in zip(specs, expected):
        report = volume_gap(spec)
        assert (report.cov_det, report.qfi_det, report.gap, report.robertson_det) == (
            before.cov_det, before.qfi_det, before.gap, before.robertson_det)
    assert rows == [2] * len(specs)


def _counting(monkeypatch, module, name, calls):
    function = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize(
    "ensemble, dim, n",
    [("complex", 4, 2), ("complex", 3, 3), ("real", 8, 2), ("complex", 3, 4), ("complex", 2, 5)],
)
def test_one_live_kernel_call_makes_one_product_and_one_determinant_call(monkeypatch, ensemble, dim, n):
    """The covariance, metric and screen Grams come from one stacked weighted
    product, and one det_small call covers them and, for even n alone, the
    Robertson matrix; the screen forms no Gram of its own (complex d2 n5
    reaches the span, so there the screen row goes unread).  The pair values
    lam_u, lam_v and lam_u - lam_v are formed once, by the one _pairs call
    and its one pair_indices lookup, for the weights and Robertson alike."""
    (rho, lam, vectors), obs = draw_samples(RandomSpec(7, dim, ensemble), range(16), n)
    functions = (WY, SLD)
    expected = volumes.coordinate_batch(rho, lam, vectors, obs, functions)
    calls = []
    for name in ("coordinate_grams", "_pairs", "pair_indices", "_weights", "_commutator_gram", "det_small"):
        _counting(monkeypatch, volumes, name, calls)
    out = volumes.coordinate_batch(rho, lam, vectors, obs, functions)
    robertson = ["_commutator_gram"] if n % 2 == 0 else []
    assert calls == ["coordinate_grams", "_pairs", "pair_indices", "_weights", *robertson, "det_small"]
    for name in ("cov_gram", "qfi_gram", "cov_det", "qfi_det", "robertson_det", "dependent", "main_holds"):
        assert np.array_equal(getattr(out, name), getattr(expected, name)), name


def _crossing_mean():
    """(sld + wyd:0.05) / 2, a regular operator monotone function whose
    tilde crosses wy's on the order grid, so (wy, it) resolves no pair."""
    low = wyd(0.05)
    mean = MonotoneFunction("sld-wyd-mean", lambda x: (SLD.evaluate(x) + low.evaluate(x)) / 2.0,
                            (SLD.value_at_zero + low.value_at_zero) / 2.0, "(sld + wyd:0.05)/2")
    order = tilde_order(WY, mean)
    assert not (order.first_le_second or order.second_le_first)
    return mean


@pytest.mark.parametrize("slack", ["default", "splitting"])
@pytest.mark.parametrize("case", ["one-way", "both-way", "incomparable", "rank-deficient"])
def test_check_reads_the_pair_verdict_of_a_batch_call(monkeypatch, case, slack):
    """check_inequalities' monotonicity_holds is violations(order_pairs(...))
    == 0 of one batch kernel call on the same draws, for a pair resolved one
    way (wy, sld) and both ways (wy with itself), and None for an
    incomparable pair and a rank-deficient batch (real d2 n2, past
    commutator_rank 1).  A negative slack of the median volume difference
    (or of 1 where the volumes are equal) makes both verdicts occur."""
    ensemble, dim, n = ("real", 2, 2) if case == "rank-deficient" else ("complex", 3, 2)
    partner = {"one-way": SLD, "both-way": WY, "rank-deficient": SLD}.get(case) or _crossing_mean()
    functions, count = (WY, partner), 12
    rspec = RandomSpec(19, dim, ensemble)
    (rho, lam, vectors), obs = draw_samples(rspec, range(count), n)
    out = volumes.coordinate_batch(rho, lam, vectors, obs, functions)
    assert out.rank_deficient == (case == "rank-deficient")
    if slack == "splitting":
        median = float(np.median(np.abs(out.volume_qfi[0] - out.volume_qfi[1])))
        monkeypatch.setattr(volumes, "MONOTONICITY_SLACK", -(median or 1.0))
    pairs = order_pairs(functions)
    assert bool(pairs) == (case != "incomparable")
    expected = (out.violations(pairs) == 0).tolist()
    verdicts = [
        check_inequalities(GramSpec(sample_state(rspec, k), sample_observables(rspec, k, n), WY),
                           partner=partner).monotonicity_holds
        for k in range(count)
    ]
    if case in ("incomparable", "rank-deficient"):
        assert verdicts == [None] * count
        return
    assert verdicts == expected and all(type(v) is bool for v in verdicts)
    if slack == "default":
        assert set(verdicts) == {True}
    else:
        assert set(verdicts) == ({True, False} if case == "one-way" else {False})


def _dyadic_spec_pairs():
    """(low-precision spec, the same values as a float64 spec) pairs on the
    diagonal state (1/2, 1/4, 1/8, 1/8), whose float32 trace is exactly 1: a
    complex64 state with complex64 observables, and a float32 state with
    int64 observables."""
    rng = np.random.default_rng(83)
    spectrum = np.diag([0.5, 0.25, 0.125, 0.125])
    pairs = []
    for n in (2, 3):
        z = rng.standard_normal((n, 2, 4, 4)).astype(np.float32)
        low = (z[:, 0] + 1j * z[:, 1]).astype(np.complex64)
        low = (low + low.conj().swapaxes(-1, -2)) / np.float32(2)
        pairs.append(((spectrum.astype(np.complex64), low), (spectrum.astype(complex), low.astype(complex))))
        ints = rng.integers(-5, 6, (n, 4, 4))
        ints = ints + ints.swapaxes(-1, -2)
        pairs.append(((spectrum.astype(np.float32), ints), (spectrum, ints.astype(float))))
    return pairs


@pytest.mark.parametrize("k", range(4), ids=["complex64-2", "int64-2", "complex64-3", "int64-3"])
def test_low_precision_inputs_give_the_float64_verdicts(k):
    """One promotion serves every input dtype: complex64 frames, and the
    float64 frames of a float32 state with int64 observables, give the
    verdicts and determinants of the same values in float64."""
    (state, obs), (state64, obs64) = _dyadic_spec_pairs()[k]
    verdict = check_inequalities(GramSpec(DensityMatrix(state), obs, WY), partner=SLD)
    reference = check_inequalities(GramSpec(DensityMatrix(state64), obs64, WY), partner=SLD)
    scale = max(1.0, abs(reference.report.cov_det))
    for name in ("cov_det", "qfi_det", "gap"):
        assert abs(getattr(verdict.report, name) - getattr(reference.report, name)) <= 1e-12 * scale
    if len(obs) % 2 == 0:
        assert abs(verdict.report.robertson_det - reference.report.robertson_det) <= 1e-12 * scale
    flags = ("main_holds", "dependent", "equality_consistent", "monotonicity_holds")
    assert [getattr(verdict, f) for f in flags] == [getattr(reference, f) for f in flags]
    assert robertson_bound(DensityMatrix(state), obs) == (verdict.report.robertson_det or 0.0)
    assert observables_dependent(DensityMatrix(state), obs) == reference.dependent


def test_robertson_of_a_float32_spectrum_reads_float64_gaps():
    """The Robertson matrix weighs each pair by lam_u - lam_v taken in
    float64, as the metric weights do, whatever the state's dtype: on the
    diagonal complex64 state (1/2, 1/2 - 2^-10, 2^-10 - 2^-30, 2^-30), whose
    float32 gaps such as 1/2 - 2^-30 would round, every route's Robertson
    determinant has the bits of the same values in complex128."""
    spectrum = np.array([0.5, 0.5 - 2.0**-10, 2.0**-10 - 2.0**-30, 2.0**-30])
    rng = np.random.default_rng(101)
    z = rng.standard_normal((2, 2, 4, 4)).astype(np.float32)
    low = (z[:, 0] + 1j * z[:, 1]).astype(np.complex64)
    low = (low + low.conj().swapaxes(-1, -2)) / np.float32(2)
    state, state64 = DensityMatrix(np.diag(spectrum).astype(np.complex64)), DensityMatrix(np.diag(spectrum))
    assert state.eigenvalues.dtype == np.float32 and state.eigenvalues.tolist() == state64.eigenvalues.tolist()
    expected = robertson_bound(state64, low.astype(complex))
    assert robertson_bound(state, low) == expected
    assert volume_gap(GramSpec(state, low, WY)).robertson_det == expected
    assert check_inequalities(GramSpec(state, low, WY), partner=SLD).report.robertson_det == expected


@pytest.mark.parametrize("low", [0.0, 5e-13], ids=["faithful", "clamped"])
def test_coordinates_are_centered_by_the_mean_of_the_clamped_state(low):
    """The diagonal coordinates sum to 0 under the clamped spectrum, and the
    mean they imply is Tr(rho A) within 1e-12 |A|, on a faithful state and on
    one with an eigenvalue clamped at EIGENVALUE_FLOOR."""
    rng = np.random.default_rng(89)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    spectrum = np.array([0.7 - low, 0.3, low]) if low else np.array([0.5, 0.3, 0.2])
    state = DensityMatrix((u * spectrum) @ u.conj().T)
    assert state.faithful == (not low)
    obs = np.stack([50.0 * np.eye(3) + _random_hermitian(rng, 3) for _ in range(3)])
    lam, vectors = state.eigenvalues, state.eigenvectors
    y = volumes.coordinate_grams(lam[None], vectors[None], obs[None], ())[0][0]
    for a, row in zip(obs, y):
        norm = np.linalg.norm(a, 2)
        assert abs(lam @ row[:3]) <= 1e-12 * norm
        means = np.diag(vectors.conj().T @ a @ vectors).real - row[:3]
        assert np.abs(means - np.trace(state.matrix @ a).real).max() <= 1e-12 * norm


def _clamped_shifted_triple(shift):
    """A state with an eigenvalue 5e-13 clamped to 0 at EIGENVALUE_FLOOR, so
    its clamped spectrum sums to 1 - 5e-13, and the dependent triple
    (a, b, a + b + shift I)."""
    rng = np.random.default_rng(97)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    state = DensityMatrix((u * np.array([0.7 - 5e-13, 0.3, 5e-13])) @ u.conj().T)
    assert state.eigenvalues[-1] == 0.0
    a, b = _random_hermitian(rng, 3), _random_hermitian(rng, 3)
    return state, np.stack([a, b, a + b + shift * np.eye(3)])


@_live_cases("shift", [(0.0,), (1e5,)])
def test_a_shift_by_a_multiple_of_the_identity_keeps_a_clamped_set_dependent(shift):
    """Centering cancels any k I, on a state whose clamped spectrum does not
    sum to 1 too: the triple stays dependent, and its gap stays consistent
    with equality."""
    state, obs = _clamped_shifted_triple(shift)
    out = volumes.coordinate_batch(state.matrix[None], state.eigenvalues[None], state.eigenvectors[None],
                                   obs[None], (WY,))
    assert out.dependent[0] and out.equality_consistent[0, 0]


@pytest.mark.parametrize("shift", [0.0, 1e5])
def test_single_spec_routes_flag_a_shifted_clamped_set_dependent(shift):
    state, obs = _clamped_shifted_triple(shift)
    assert observables_dependent(state, obs)
    assert check_inequalities(GramSpec(state, obs, WY), partner=SLD).dependent


def test_check_inequalities_dependent_equality():
    rng = np.random.default_rng(61)
    state = _random_density(rng, 3)
    a = _random_hermitian(rng, 3)
    b = _random_hermitian(rng, 3)
    verdict = check_inequalities(GramSpec(state, (a, b, a + b), WY))
    assert verdict.dependent
    assert verdict.equality_consistent
    assert abs(verdict.report.gap) <= 1e-8 * verdict.scale


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

    monkeypatch.setattr(matrices, "as_hermitian", counted)
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


def test_check_inequalities_refuses_a_non_regular_partner_before_kernel_work(monkeypatch):
    rng = np.random.default_rng(73)
    state = _random_density(rng, 3)
    spec = GramSpec(state, (_random_hermitian(rng, 3), _random_hermitian(rng, 3)), WY)

    def kernel(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(volumes, "evaluate_one", kernel)
    message = "monotonicity partner must be regular (f(0) > 0), got rld"
    with pytest.raises(TildeUndefinedError) as info:
        check_inequalities(spec, partner=RLD)
    assert str(info.value) == message


_GATE_STATE = DensityMatrix(np.diag([0.75, 0.25]))
_GATE_SPEC = GramSpec(_GATE_STATE, (SIGMA_X, SIGMA_Y), WY)


@pytest.mark.parametrize(
    "role,call",
    [("tilde argument", tilde),
     ("first ordered function", lambda f: tilde_order(f, WY)),
     ("second ordered function", lambda f: tilde_order(WY, f)),
     ("GramSpec function", lambda f: GramSpec(_GATE_STATE, (SIGMA_X,), f)),
     ("monotonicity partner", lambda f: check_inequalities(_GATE_SPEC, partner=f)),
     ("f-correlation function",
      lambda f: metrics.f_correlation(metrics.metric_context(_GATE_STATE, f), SIGMA_X, SIGMA_Y)),
     ("h_weight function", lambda f: h_weight(f, (1.0, 2.0)))],
    ids=["tilde", "tilde_order-f", "tilde_order-g", "GramSpec", "partner", "f_correlation",
         "h_weight"],
)
def test_every_function_argument_passes_the_one_gate(role, call):
    """A name, where a MonotoneFunction belongs, and a non-regular function
    are refused with an error naming the argument, never an AttributeError."""
    with pytest.raises(ValueError) as info:
        call("wy")
    assert type(info.value) is ValueError
    assert str(info.value) == f"{role} must be a MonotoneFunction, got 'wy'"
    with pytest.raises(TildeUndefinedError) as info:
        call(RLD)
    assert str(info.value) == f"{role} must be regular (f(0) > 0), got rld"


@pytest.mark.parametrize(
    "role,call",
    [("scalar_mean function", lambda f: scalar_mean(f, 1.0, 2.0)),
     ("mean_table function", lambda f: mean_table((f,), _GATE_STATE.eigenvalues)),
     ("qfi_inner function",
      lambda f: oracles.qfi_inner(metrics.metric_context(_GATE_STATE, f), SIGMA_X, SIGMA_Y))],
    ids=["scalar_mean", "mean_table", "qfi_inner"],
)
def test_function_arguments_without_a_regularity_need_pass_the_type_gate(role, call):
    """Where any MonotoneFunction will do, a name is still refused with an
    error naming the argument, and a non-regular function is taken."""
    with pytest.raises(ValueError) as info:
        call("wy")
    assert type(info.value) is ValueError
    assert str(info.value) == f"{role} must be a MonotoneFunction, got 'wy'"
    call(RLD)


@pytest.mark.parametrize(
    "call",
    [lambda s: GramSpec(s, (SIGMA_X, SIGMA_Y), WY),
     lambda s: robertson_bound(s, (SIGMA_X, SIGMA_Y)),
     lambda s: observables_dependent(s, (SIGMA_X, SIGMA_Y)),
     lambda s: metrics.covariance(s, SIGMA_X, SIGMA_Y),
     lambda s: metrics.f_correlation(metrics.metric_context(s, WY), SIGMA_X, SIGMA_Y),
     lambda s: to_eigenframe(s, SIGMA_X),
     lambda s: matrices.icommutator(s, SIGMA_X),
     lambda s: oracles.qfi_inner(metrics.metric_context(s, WY), SIGMA_X, SIGMA_Y),
     lambda s: oracles.identity_residual(metrics.metric_context(s, WY), SIGMA_X, SIGMA_Y)],
    ids=["GramSpec", "robertson_bound", "observables_dependent", "covariance", "f_correlation",
         "to_eigenframe", "icommutator", "qfi_inner", "identity_residual"],
)
@pytest.mark.parametrize("state", [np.eye(2) / 2, "x"], ids=["ndarray", "str"])
def test_every_state_argument_passes_the_one_check(call, state):
    """A matrix or a name where a DensityMatrix belongs is refused by
    matrices.observable_stack with an error naming the argument, never an
    AttributeError."""
    with pytest.raises(ValueError) as info:
        call(state)
    assert str(info.value) == f"state must be a DensityMatrix, got {type(state).__name__}"


CALL_MATES = (SLD, WY, wyd(0.05), wyd(0.25))
SLICED_FIELDS = ("qfi_gram", "qfi_det", "gap", "main_holds", "equality_consistent")


@_live_cases("ensemble, dim, n", [("complex", 3, 3), ("real", 8, 2), ("complex", 4, 4), ("structured", 4, 3)])
def test_call_mates_leave_each_functions_bits_alone(ensemble, dim, n):
    """Each function's slices of a four-function kernel call are byte-equal to
    a call of that function alone (complex d4 n4 takes the LU determinant)."""
    (rho, lam, vectors), obs = draw_samples(RandomSpec(5, dim, ensemble), range(16), n)
    kernel = volumes.coordinate_batch
    together = kernel(rho, lam, vectors, obs, CALL_MATES)
    for k, f in enumerate(CALL_MATES):
        alone = kernel(rho, lam, vectors, obs, (f,))
        for name in SLICED_FIELDS:
            mine, solo = getattr(together, name)[k], getattr(alone, name)[0]
            assert mine.dtype == solo.dtype and mine.tobytes() == solo.tobytes(), (f.fid, name)
        assert alone.cov_gram.tobytes() == together.cov_gram.tobytes()


def test_kernel_without_functions_builds_no_table(monkeypatch):
    def table(*args):
        raise AssertionError("a mean table was built")

    for module in (monotone, volumes):
        monkeypatch.setattr(module, "mean_table", table)
    (rho, lam, vectors), obs = draw_samples(RandomSpec(5, 3, "complex"), range(4), 2)
    out = volumes.coordinate_batch(rho, lam, vectors, obs, ())
    assert out.qfi_gram.shape == (0, 4, 2, 2)
    assert out.cov_gram.shape == (4, 2, 2)
    assert out.qfi_det.shape == out.gap.shape == (0, 4)


def test_plain_evaluator_gives_the_bits_of_its_builtin():
    """A function registered with a plain evaluator goes through the kernel as
    it is: (1+x)/2 under another fid has SLD's Gram bits."""
    mine = MonotoneFunction("mine", lambda x: (1.0 + x) / 2.0, 0.5, "(1+x)/2")
    rng = np.random.default_rng(79)
    for dim in (2, 3, 5):
        state = _random_density(rng, dim)
        obs = tuple(_random_hermitian(rng, dim) for _ in range(3))
        ours = check_inequalities(GramSpec(state, obs, mine)).report
        ref = check_inequalities(GramSpec(state, obs, SLD)).report
        assert ours.qfi_gram.tobytes() == ref.qfi_gram.tobytes()
        assert ours.qfi_det == ref.qfi_det and ours.gap == ref.gap


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
