"""Targeted searches for numerical error: hypothesis steers its examples
toward where a result is most likely wrong (the largest relative error
against an mpmath reference, a certificate's edge) and the test bounds the
worst one it finds.  Examples are derandomized, so the search and its verdict
are the same on every run."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings, target
from hypothesis import strategies as st

from qfivol import DensityMatrix, GramSpec, builtin, volume_gap, volumes
from qfivol.matrices import det_small, pair_indices, real_coordinates, to_eigenframe
from qfivol.oracles import gap_from_decomposition

FUNCTIONS = ("sld", "wy", "wyd:0.25")

SEARCH = settings(
    max_examples=300, derandomize=True, database=None, deadline=None,
    phases=(Phase.generate, Phase.target), report_multiple_bugs=False,
)


def _mp_function(fid):
    """f on (0, inf) at mpmath precision (wyd's away from x = 1)."""
    if fid == "sld":
        return lambda x: (1 + x) / 2
    if fid == "wy":
        return lambda x: ((1 + mpmath.sqrt(x)) / 2) ** 2
    beta = mpmath.mpf(fid[4:])
    return lambda x: beta * (1 - beta) * (x - 1) ** 2 / ((x**beta - 1) * (x ** (1 - beta) - 1))


def _reference_dets(spec) -> tuple:
    """(det Cov, det Q) at 80 digits on the float coordinates x and
    eigenvalues the kernels read: Cov = sum c_k x_k x_k^T and Q = sum q_k x_k
    x_k^T with c = (u+v)/2 and q = f(0)(u-v)^2 / (2 m_f(u, v)) per
    coordinate."""
    mpmath.mp.dps = 80
    f, f0 = _mp_function(spec.function.fid), mpmath.mpf(spec.function.value_at_zero)
    dim = spec.state.dim
    x = real_coordinates(np.stack([to_eigenframe(spec.state, o) for o in spec.observables]))
    rows, cols = pair_indices(dim, 1)
    lam = spec.state.eigenvalues
    pairs = zip(lam[np.r_[np.arange(dim), rows, rows]], lam[np.r_[np.arange(dim), cols, cols]])
    c, q = [], []
    for u, v in pairs:
        hi, lo = mpmath.mpf(float(max(u, v))), mpmath.mpf(float(min(u, v)))
        c.append((hi + lo) / 2)
        if hi == lo:
            q.append(0)
        else:
            mean = hi * f0 if lo == 0 else hi * f(lo / hi)
            q.append(f0 * (hi - lo) ** 2 / (2 * mean))
    n = len(x)
    xs = [[mpmath.mpf(float(value)) for value in row] for row in x]

    def det(weights):
        return mpmath.det(mpmath.matrix([
            [mpmath.fsum(w * a * b for w, a, b in zip(weights, xs[h], xs[j])) for j in range(n)]
            for h in range(n)
        ]))

    return det(c), det(q)


def _reference_gap(spec) -> mpmath.mpf:
    """det Cov - det Q at 80 digits (see _reference_dets)."""
    cov, qfi = _reference_dets(spec)
    return cov - qfi


@st.composite
def decomposable_specs(draw):
    """A diagonal state of rank 2 or more with spectrum 10^(-16 u), u in
    [0, 1], up to two of its eigenvalues exact zeros (and those below the
    eigenvalue floor zeros too), n seeded complex observables and sld, wy or
    wyd:0.25.  n is at most the rank of Cov: the d^2 - z^2 coordinates with
    nonzero weight c at z zero eigenvalues, less one for the centering."""
    dim = draw(st.integers(2, 4), label="dim")
    exponents = draw(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim), label="u")
    zeros = draw(st.integers(0, min(2, dim - 2)), label="zeros")
    lam = 10.0 ** (-16.0 * np.array(sorted(exponents)))
    lam[dim - zeros:] = 0.0
    state = DensityMatrix(np.diag(lam / lam.sum()))
    dead = int(np.count_nonzero(state.eigenvalues == 0.0))
    # a pure state has gap 0 exactly, where no relative error is defined
    assume(dead <= dim - 2)
    n = draw(st.integers(1, min(8, dim * dim - dead * dead - 1)), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="observable seed"))
    z = rng.standard_normal((n, 2, dim, dim))
    observables = z[:, 0] + 1j * z[:, 1]
    fid = draw(st.sampled_from(FUNCTIONS), label="function")
    return GramSpec(state, observables + observables.conj().swapaxes(-1, -2), builtin(fid))


def decomposition_error(spec) -> float:
    """Relative error of gap_from_decomposition against _reference_gap."""
    reference = _reference_gap(spec)
    return float(abs(mpmath.mpf(gap_from_decomposition(spec)) - reference) / abs(reference))


@pytest.mark.parametrize("fid", ["sld", "wy", "wyd:0.25", "wyd:0.05", "wyd:0.4"])
def test_closed_form_tildes_match_mpmath(fid):
    """Each builtin's closed-form tilde equals ((y+1) - (y-1)^2 f(0)/f(y))/2
    at 60 digits within 1e-14 relative, down to the ratios where that formula
    cancels in float64 (monotone.tilde's sld is off by 3.3e-5 at y = 1e-12)."""
    mpmath.mp.dps = 60
    f, mp_f = builtin(fid), _mp_function(fid)
    # f(0) of the reference's own f: float64's f(0) is off it by up to an ulp,
    # which the formula's cancellation would amplify past the bound
    f0 = mp_f(mpmath.mpf(0))
    for y in (1e-14, 1e-12, 1e-8, 0.5, 1.0, 2.0, 1e8):
        ym = mpmath.mpf(y)
        # at y = 1 the (y-1)^2 term is 0, and wyd's defining ratio is 0/0
        exact = (ym + 1) / 2 if y == 1.0 else ((ym + 1) - (ym - 1) ** 2 * f0 / mp_f(ym)) / 2
        closed = f.tilde_closed_form(y)
        assert abs(closed - exact) <= 1e-14 * exact, (y, float(abs(closed - exact) / exact))


@SEARCH
@given(decomposable_specs())
def test_decomposition_oracle_error_search(spec):
    """The Cauchy-Binet gap of oracles.gap_from_decomposition stays within
    1e-13 relative of det Cov - det Q at 80 digits."""
    error = decomposition_error(spec)
    target(float(np.log10(max(error, 1e-300))), label="log10 relative error")
    assert error <= 1e-13


def _near_mixed_spec(spread, fid, seed):
    """rho = I/4 + spread H for a seeded traceless Hermitian H of unit
    spectral norm, with three seeded complex observables."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((4, 2, 4, 4))
    h, observables = z[0, 0] + 1j * z[0, 1], z[1:, 0] + 1j * z[1:, 1]
    h = h + h.conj().T - np.trace(h + h.conj().T) / 4 * np.eye(4)
    state = DensityMatrix(np.eye(4) / 4 + spread * h / np.linalg.norm(h, 2))
    return GramSpec(state, observables + observables.conj().swapaxes(-1, -2), builtin(fid))


@pytest.mark.parametrize("fid", FUNCTIONS)
@pytest.mark.parametrize("spread", [1e-4, 1e-7])
def test_the_metric_determinant_is_accurate_near_the_maximally_mixed_state(spread, fid):
    """Near I/d every metric weight q_f is of order spread^2 while c is of
    order 1/d, so a metric Gram formed as Cov - sum m_tilde Re{a b} loses
    about log10(1/spread^2) digits (the retired version-3 kernel's qfi_det
    was 3.0e-2 off at spread 1e-7); volume_gap's Y diag(q_f) Y^T stays within 1e-12 relative
    of det Q at 80 digits on the same float coordinates and spectrum.  Its
    worst case here, 5.0e-13 for wyd:0.25 at spread 1e-4, is wyd's own
    evaluator, which is off by up to 1.4e-12 just outside its Taylor window
    (ratios near 1 - 1e-4); sld and wy stay below 2e-15."""
    for seed in range(4):
        spec = _near_mixed_spec(spread, fid, seed)
        reference = _reference_dets(spec)[1]
        error = abs(mpmath.mpf(volume_gap(spec).qfi_det) - reference) / abs(reference)
        assert error <= 1e-12, (seed, float(error))


@st.composite
def coordinate_stacks(draw):
    """One sample's (n, d^2) real coordinates, n < d^2, with singular values
    from sigma_max = 10^a down to sigma_min = sigma_max 10^-b, log-spaced, on
    seeded random singular vectors."""
    dim = draw(st.integers(2, 8), label="dim")
    n = draw(st.integers(1, min(8, dim * dim - 1)), label="n")
    top = draw(st.floats(-9.0, 9.0), label="log10 sigma_max")
    spread = draw(st.floats(0.0, 20.0), label="log10 sigma_max / sigma_min")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    u, _, vt = np.linalg.svd(rng.standard_normal((n, dim * dim)), full_matrices=False)
    sigma = 10.0 ** np.linspace(top, top - spread, n)
    return ((u * sigma) @ vt)[None]


def _search_the_screen(dependent, x):
    """Run ``dependent()`` with np.linalg.svd counted, check its flag against
    a direct SVD of its coordinates ``x`` and steer the search; a sample
    sent to no SVD must have sigma_min >= DEPENDENCE_SV_TOL."""
    svd, calls = np.linalg.svd, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", lambda a, *args, **kw: calls.append(a) or svd(a, *args, **kw))
        flag = dependent()[0]
    sv = svd(x, compute_uv=False)[0]
    assert flag == (sv[-1] < volumes.DEPENDENCE_SV_TOL)
    target(float(np.log10(sv[0])), label="log10 sigma_max")
    if not calls:
        target(-float(np.log10(sv[-1] / volumes.DEPENDENCE_SV_TOL)), label="log10 TOL / cleared sigma_min")
        assert sv[-1] >= volumes.DEPENDENCE_SV_TOL


@settings(SEARCH, max_examples=400)
@given(coordinate_stacks())
def test_the_dependence_screen_clears_only_what_the_svd_calls_independent(x):
    """A sample the Gram screen clears, sending it to no SVD, has an SVD
    sigma_min of at least DEPENDENCE_SV_TOL; the search steers toward the
    smallest sigma_min cleared and toward large sigma_max."""
    _search_the_screen(lambda: volumes._dependent(x, x.shape[-1]), x)


@settings(SEARCH, max_examples=400)
@given(coordinate_stacks())
def test_the_live_kernels_screen_clears_only_what_the_svd_calls_independent(y):
    """The same search through the kernel's screen: the drawn stack is
    its unscaled coordinates Y, the screen reads the determinant and trace
    of G = Y diag(w) Y^T formed with the kernel's own screen weights, and
    only the samples it leaves reach the SVD.  G is X X^T to rounding and
    the flag is the SVD's on X, the Frobenius-isometric coordinates: Y with
    each pair coordinate times sqrt(2), built here apart from the kernel's
    layout."""
    dim = math.isqrt(y.shape[-1])
    x = y.copy()
    x[..., dim:] *= math.sqrt(2.0)
    weights = volumes._weights(volumes._pairs(np.full((1, dim), 1.0 / dim)), (), screen=True)[-1]
    g, gram = (y * weights) @ y.swapaxes(-1, -2), x @ x.swapaxes(-1, -2)
    trace = g.diagonal(0, -2, -1).sum(-1)
    assert np.abs(g - gram).max() <= 1e-13 * trace.max()
    screen = det_small(g), trace
    _search_the_screen(lambda: volumes._dependent(y, y.shape[-1], screen, volumes._layout(dim)[2]), x)
