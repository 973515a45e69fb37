"""Tests for the Hermitian substrate: validation, spectral data, frames, dets."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfivol import (
    DensityMatrix,
    icommutator,
    to_eigenframe,
)
from qfivol.matrices import DecompositionError, as_hermitian, density_stack, det_small, spectral_decompose
from qfivol.matrices import eigenframes, real_coordinates

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def _random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def test_as_hermitian_symmetrizes_exactly():
    rng = np.random.default_rng(0)
    m = _random_hermitian(rng, 4)
    # a perturbation below tolerance must be accepted and symmetrized away
    skew = 1e-13 * np.array([[0, 1j], [1j, 0]])
    out = as_hermitian(m + np.pad(skew, (0, 2)))
    assert np.array_equal(out, out.conj().T)


def test_as_hermitian_rejects_asymmetry():
    m = np.array([[1.0, 1e-9], [0.0, 2.0]])
    with pytest.raises(ValueError, match="not self-adjoint"):
        as_hermitian(m)


def test_as_hermitian_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        as_hermitian(np.ones((2, 3)))


def test_as_hermitian_keeps_real_input_real():
    out = as_hermitian(np.array([[1.0, 2.0], [2.0, 3.0]]))
    assert not np.iscomplexobj(out)


def test_spectral_decompose_diagonal_input():
    w, v = spectral_decompose(np.diag([1.0, 2.0, 3.0]))
    assert_allclose(w, [3.0, 2.0, 1.0], rtol=0, atol=0)
    # columns are identity columns in reversed order
    assert_allclose(np.abs(v), np.eye(3)[:, ::-1], rtol=0, atol=0)


def test_spectral_decompose_pauli_x():
    w, v = spectral_decompose(SIGMA_X)
    assert_allclose(w, [1.0, -1.0], atol=1e-15)
    assert_allclose(np.abs(v), np.full((2, 2), 1.0 / np.sqrt(2)), atol=1e-15)


def test_spectral_decompose_is_deterministic():
    rng = np.random.default_rng(7)
    m = _random_hermitian(rng, 5)
    w1, v1 = spectral_decompose(m)
    w2, v2 = spectral_decompose(m)
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_spectral_reconstruction_residual():
    """Reconstruction residual stays below 1e-10 across dims 2..8."""
    rng = np.random.default_rng(42)
    for k in range(500):
        dim = 2 + k % 7
        m = _random_hermitian(rng, dim)
        w, v = spectral_decompose(m)
        assert np.all(np.diff(w) <= 0.0)
        residual = np.max(np.abs((v * w) @ v.conj().T - m))
        assert residual < 1e-10 * max(1.0, np.max(np.abs(w)))


def test_density_matrix_basic_properties():
    rng = np.random.default_rng(3)
    state = _random_density(rng, 4)
    assert state.dim == 4
    assert state.faithful
    assert abs(np.trace(state.matrix) - 1.0) <= 1e-12
    assert np.all(np.diff(state.eigenvalues) <= 0.0)
    with pytest.raises(ValueError):
        state.eigenvalues[0] = 2.0


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.diag([0.6, 0.6]))


@pytest.mark.parametrize(
    "state, message",
    [(np.diag([0.75, 0.75]), "(1.5+0j)"), (np.diag([0.25 + 0j, 0.25 + 0j]), "(0.5+0j)")],
    ids=["real", "complex"],
)
def test_a_trace_off_one_is_named_as_a_complex_number(state, message):
    """The trace check's message prints the trace as a complex number for
    real and complex states alike, and names the failing position of a stack."""
    with pytest.raises(ValueError) as info:
        DensityMatrix(state)
    assert str(info.value) == f"trace must be 1 within 1.0e-12, got {message}"
    stack = np.array([np.eye(2) / 2] * 3, dtype=state.dtype)
    stack[1] = state
    with pytest.raises(ValueError) as info:
        density_stack(stack)
    assert str(info.value) == f"trace must be 1 within 1.0e-12, got {message}"
    assert info.value.position == 1


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_density_matrix_rejects_a_stack():
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(1, 2, 2\)"):
        DensityMatrix(np.diag([0.5, 0.5])[None])


def test_density_matrix_clamps_tiny_eigenvalues():
    state = DensityMatrix(np.diag([1.0 - 5e-13, 5e-13]))
    assert state.eigenvalues[-1] == 0.0
    assert not state.faithful


def _center(state, a):
    """A - Tr(rho A) I, with the trace to_eigenframe takes."""
    mean = np.einsum("ij,ji->", state.matrix, a).real
    return a - mean * np.eye(state.dim)


def test_density_expectation():
    """to_eigenframe subtracts Tr(rho A) = 0.75 - 0.25 exactly."""
    state = DensityMatrix(np.diag([0.75, 0.25]))
    assert np.einsum("ij,ji->", state.matrix, np.diag([1.0, -1.0])) == 0.5
    frame = to_eigenframe(state, np.diag([1.0, -1.0]))
    assert_allclose(frame, np.diag([0.5, -1.5]), rtol=0, atol=0)


def test_center_identity_gives_zero():
    rng = np.random.default_rng(5)
    state = _random_density(rng, 3)
    assert_allclose(_center(state, np.eye(3)), np.zeros((3, 3)), atol=1e-15)
    assert_allclose(to_eigenframe(state, np.eye(3)), np.zeros((3, 3)), atol=1e-15)


def test_center_fixed_point_and_hand_value():
    state = DensityMatrix(np.diag([0.5, 0.5]))
    # already centered: sigma_x has zero expectation here
    assert_allclose(_center(state, SIGMA_X), SIGMA_X, rtol=0, atol=0)
    out = _center(state, np.diag([1.0, 0.0]))
    assert_allclose(out, np.diag([0.5, -0.5]), rtol=0, atol=0)


def test_center_is_idempotent():
    rng = np.random.default_rng(11)
    state = _random_density(rng, 4)
    a = _random_hermitian(rng, 4)
    once = _center(state, a)
    assert_allclose(_center(state, once), once, atol=1e-14)
    # the eigenframe centers too: centering first changes nothing
    assert_allclose(to_eigenframe(state, once), to_eigenframe(state, a), atol=1e-14)


def test_center_dimension_mismatch():
    state = DensityMatrix(np.diag([0.5, 0.5]))
    with pytest.raises(ValueError, match="mismatch"):
        to_eigenframe(state, np.eye(3))


@pytest.mark.parametrize("function", [to_eigenframe, icommutator])
@pytest.mark.parametrize("count", [0, 1], ids=["d", "d+1"])
def test_single_observable_helpers_refuse_a_stack(function, count):
    """A (d, d, d) or (d + 1, d, d) stack is not one observable: both are
    refused, never evaluated matrix by matrix or along a transposed stack."""
    state = DensityMatrix(np.diag([0.75, 0.25]))
    stack = np.stack([SIGMA_X, np.diag([1.0, -1.0]), np.eye(2)][: 2 + count])
    with pytest.raises(ValueError, match=r"shape \(\d, 2, 2\) does not match dim 2"):
        function(state, stack)


def test_to_eigenframe_diagonal_state():
    state = DensityMatrix(np.diag([0.75, 0.25]))
    assert_allclose(to_eigenframe(state, SIGMA_X), SIGMA_X, rtol=0, atol=0)
    assert_allclose(
        to_eigenframe(state, np.diag([1.0, -1.0])), np.diag([0.5, -1.5]), rtol=0, atol=0
    )
    assert_allclose(to_eigenframe(state, np.eye(2)), np.zeros((2, 2)), atol=1e-16)


def test_to_eigenframe_is_hermitian_and_weighted_centered():
    """Frames satisfy a_ji = conj(a_ij) and sum_h lam_h a_hh = 0."""
    rng = np.random.default_rng(17)
    for k in range(50):
        dim = 2 + k % 5
        state = _random_density(rng, dim)
        frame = to_eigenframe(state, _random_hermitian(rng, dim))
        assert np.max(np.abs(frame - frame.conj().T)) < 1e-12
        weighted_trace = float(np.real(state.eigenvalues @ np.diag(frame)))
        assert abs(weighted_trace) < 1e-10


def test_icommutator_commuting_pair_is_zero():
    state = DensityMatrix(np.diag([0.7, 0.3]))
    out = icommutator(state, np.diag([2.0, -1.0]))
    assert_allclose(out, np.zeros((2, 2)), rtol=0, atol=0)


def test_icommutator_qubit_value():
    p = 0.8
    state = DensityMatrix(np.diag([p, 1.0 - p]))
    out = icommutator(state, SIGMA_X)
    expected = np.array([[0.0, 1j * (2 * p - 1)], [-1j * (2 * p - 1), 0.0]])
    assert_allclose(out, expected, atol=1e-15)


def test_icommutator_pure_noncommuting_is_nonzero():
    state = DensityMatrix(np.diag([1.0, 0.0]))
    assert np.max(np.abs(icommutator(state, SIGMA_X))) > 0.5


def test_icommutator_eigenframe_identity():
    """In the state eigenframe, i[rho, A] has entries i(lam_h - lam_j) a_hj."""
    rng = np.random.default_rng(23)
    for k in range(200):
        dim = 2 + k % 5
        state = _random_density(rng, dim)
        a = _random_hermitian(rng, dim)
        frame = to_eigenframe(state, a)
        comm_frame = to_eigenframe(state, icommutator(state, a))
        lam = state.eigenvalues
        expected = 1j * (lam[:, None] - lam[None, :]) * frame
        assert np.max(np.abs(comm_frame - expected)) < 1e-10


def test_det_small_fixed_values():
    assert det_small(np.eye(3)) == 1.0
    assert_allclose(det_small([[2.0, 1.0], [1.0, 2.0]]), 3.0, rtol=0, atol=0)
    assert_allclose(det_small([[4.0]]), 4.0, rtol=0, atol=0)


def test_det_small_sign_preservation():
    # odd permutation of the identity has determinant -1
    perm = np.eye(5)[[1, 0, 2, 3, 4]]
    assert_allclose(det_small(perm), -1.0, rtol=0, atol=0)


def test_det_small_matches_numpy():
    rng = np.random.default_rng(31)
    for k in range(200):
        n = 1 + k % 8
        m = rng.standard_normal((n, n))
        expected = np.linalg.det(m)
        assert_allclose(det_small(m), expected, rtol=1e-10, atol=1e-12)


def test_det_small_rank_deficient_gram():
    rng = np.random.default_rng(37)
    vectors = rng.standard_normal((3, 6))
    vectors[2] = vectors[0] + vectors[1]
    gram = vectors @ vectors.T
    assert abs(det_small(gram)) < 1e-10


def test_det_small_zero_column_short_circuits():
    m = np.ones((4, 4))
    m[:, 0] = 0.0
    assert det_small(m) == 0.0


def test_det_small_size_limits():
    with pytest.raises(ValueError, match="square"):
        det_small(np.ones((2, 3)))
    with pytest.raises(ValueError, match="supported sizes"):
        det_small(np.eye(9))


def test_stacks_match_single_matrices_bit_for_bit():
    rng = np.random.default_rng(13)
    stack = np.array([_random_hermitian(rng, 4) for _ in range(7)])
    w, v = spectral_decompose(stack)
    symmetric = as_hermitian(stack)
    for k, m in enumerate(stack):
        wk, vk = spectral_decompose(m)
        assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)
        assert np.array_equal(symmetric[k], as_hermitian(m))
    for n in (1, 2, 3, 5):
        grams = stack.real[:, :n, :n]
        assert np.array_equal(det_small(grams), [det_small(g) for g in grams])


def test_stack_check_names_the_failing_position():
    stack = np.array([np.eye(3)] * 5)
    stack[2, 0, 1] = 1e-6
    with pytest.raises(ValueError, match="not self-adjoint") as info:
        as_hermitian(stack)
    assert info.value.position == 2


def test_a_nan_in_one_matrix_fails_that_matrix_alone():
    """The whole-stack check fails on NaN, and the failure names the
    matrix that holds it, for the symmetrizer and the density checks."""
    stack = np.array([np.eye(3) / 3] * 4)
    stack[2, 1, 1] = np.nan
    for check in (as_hermitian, density_stack):
        with pytest.raises(ValueError, match="not self-adjoint") as info:
            check(stack)
        assert info.value.position == 2
        assert "max deviation nan" in str(info.value)


def test_the_reconstruction_tolerance_is_each_matrixs_own(monkeypatch):
    """Matrix 1 comes back from eigh 1e-9 off its reconstruction, beyond its
    own 1e-10 * max(1, max|w|); matrix 0's eigenvalues of ~1e6 would scale a
    batch-wide tolerance to 1e-4 and let it pass."""
    stack = np.array([np.diag([1e6, 2.0, 1.0]), np.diag([0.5, 0.3, 0.2])])
    eigh = np.linalg.eigh
    assert spectral_decompose(stack)[0][1].tolist() == [0.5, 0.3, 0.2]

    def one_off(m):
        w, v = eigh(m)
        w[1:, 0] += 1e-9  # matrix 1's smallest eigenvalue, where the stack has one
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", one_off)
    with pytest.raises(DecompositionError, match="reconstruction 1.000e-09") as info:
        spectral_decompose(stack)
    assert info.value.position == 1
    spectral_decompose(stack[:1])


@pytest.mark.parametrize("dim", range(2, 9))
@pytest.mark.parametrize(
    "u_complex,obs_complex", [(False, False), (False, True), (True, False), (True, True)]
)
def test_frame_stack_matches_per_matrix_products_bit_for_bit(dim, u_complex, obs_complex):
    """The stack of eigenframes the kernel gathers its coordinates from,
    whose right-hand product runs once per sample over all n observables,
    has the bits of U^dagger A U per pair, as to_eigenframe forms it."""
    rng = np.random.default_rng(100 + dim)
    for n in range(1, 9):
        z = rng.standard_normal((7, dim, dim))
        u = np.linalg.qr(z + 1j * rng.standard_normal(z.shape) if u_complex else z)[0]
        a = rng.standard_normal((7, n, dim, dim))
        if obs_complex:
            a = a + 1j * rng.standard_normal(a.shape)
        stacked = eigenframes(u, a)
        for b in range(7):
            for k in range(n):
                single = (u[b].conj().T @ a[b, k]) @ u[b]
                assert stacked[b, k].tobytes() == single.tobytes()


@pytest.mark.parametrize("real", [False, True])
def test_real_coordinates_are_a_frobenius_isometry(real):
    """X X^T reproduces the real Gram Re Tr(a_h a_j) of every stacked tuple,
    with the d diagonal entries first and d^2 columns in all."""
    rng = np.random.default_rng(71)
    for dim in (1, 2, 3, 5, 8):
        m = rng.standard_normal((4, 3, dim, dim))
        if not real:
            m = m + 1j * rng.standard_normal((4, 3, dim, dim))
        frames = (m + m.conj().swapaxes(-1, -2)) / 2
        x = real_coordinates(frames)
        assert x.shape == (4, 3, dim * dim) and x.dtype == np.float64
        diag = np.arange(dim)
        assert np.array_equal(x[..., :dim], frames[..., diag, diag].real)
        gram = np.einsum("...hij,...kji->...hk", frames, frames).real
        assert_allclose(x @ x.swapaxes(-1, -2), gram, rtol=0, atol=1e-14 * np.abs(gram).max())
