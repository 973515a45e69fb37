"""Tests for the monotone function registry, tilde transform, and scalar means."""

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qfivol import (
    RLD,
    SLD,
    WY,
    MonotoneFunction,
    RegistrationError,
    TildeUndefinedError,
    builtin,
    mean_table,
    regular_builtins,
    scalar_mean,
    tilde,
    tilde_order,
    wyd,
)
from qfivol.monotone import WYD_SERIES_WINDOW

ALL_BUILTINS = (SLD, WY, RLD, wyd(0.25), wyd(0.1))

positive_floats = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("name", [3, None, b"sld", ("sld",)])
def test_builtin_rejects_non_string_names(name):
    with pytest.raises(ValueError) as info:
        builtin(name)
    assert str(info.value) == f"function must be a string, got {name!r}"


def test_builtin_values_at_zero():
    assert SLD.value_at_zero == 0.5
    assert WY.value_at_zero == 0.25
    assert RLD.value_at_zero == 0.0
    assert wyd(0.25).value_at_zero == 0.1875
    assert SLD.regular and WY.regular and not RLD.regular


def test_builtin_normalization():
    for f in ALL_BUILTINS:
        assert f(1.0) == 1.0


def test_builtin_parser():
    assert builtin("sld") is SLD
    assert builtin("SLD") is SLD
    assert builtin("wyd:0.25") is wyd(0.25)
    with pytest.raises(ValueError, match="unknown function"):
        builtin("foo")
    with pytest.raises(ValueError, match="invalid wyd parameter"):
        builtin("wyd:abc")
    with pytest.raises(ValueError, match="beta"):
        wyd(0.5)
    with pytest.raises(ValueError, match="beta"):
        wyd(-0.1)


def test_tilde_frozen_values():
    assert_allclose(tilde(SLD)(4.0), 1.6, rtol=1e-15)
    assert_allclose(tilde(WY)(4.0), 2.0, rtol=1e-15)
    assert_allclose(tilde(wyd(0.25))(16.0), 5.0, rtol=1e-14)


def test_tilde_closed_forms():
    """The tilde transforms simplify to harmonic, geometric, and binomial means.

    The generic transform subtracts two near-equal O(1) terms when x is far
    from 1, so its relative error grows to ~1e-11 at the grid edges while the
    absolute error stays at machine scale; the tolerance reflects that.
    """
    grid = np.logspace(-6, 6, 200)
    assert_allclose(tilde(SLD)(grid), 2.0 * grid / (grid + 1.0), rtol=1e-10)
    assert_allclose(tilde(WY)(grid), np.sqrt(grid), rtol=1e-10)
    beta = 0.25
    expected = (grid**beta + grid ** (1.0 - beta)) / 2.0
    assert_allclose(tilde(wyd(beta))(grid), expected, rtol=1e-10)


def test_tilde_is_registered_and_non_regular():
    for f in regular_builtins():
        ft = tilde(f)
        assert ft.value_at_zero == 0.0
        assert not ft.regular
        assert ft(0.0) == 0.0
        assert ft(1.0) == 1.0


def test_tilde_requires_regular():
    with pytest.raises(TildeUndefinedError):
        tilde(RLD)


def test_registration_rejects_bad_normalization():
    with pytest.raises(RegistrationError, match="not 1"):
        MonotoneFunction("bad", lambda x: np.asarray(x, dtype=float) * 0.0 + 0.9, 0.5, "0.9")


def test_registration_rejects_declared_zero_mismatch():
    with pytest.raises(RegistrationError, match="declared"):
        MonotoneFunction("bad", lambda x: (1.0 + np.asarray(x, dtype=float)) / 2.0, 0.3, "(1+x)/2")


def test_registration_rejects_asymmetry():
    with pytest.raises(RegistrationError, match="symmetry"):
        MonotoneFunction("bad", lambda x: np.asarray(x, dtype=float) ** 0.6, 0.0, "x^0.6")


def test_registration_rejects_sandwich_violation():
    def below_harmonic(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * x / (1.0 + x) * (1.0 - 0.5 * (x - 1.0) ** 2 / (x + 1.0) ** 2)

    with pytest.raises(RegistrationError, match="sandwich"):
        MonotoneFunction("bad", below_harmonic, 0.0, "scaled harmonic")


def test_registration_rejects_zero_value_out_of_range():
    with pytest.raises(RegistrationError, match="lie in"):
        MonotoneFunction("bad", lambda x: (1.0 + np.asarray(x, dtype=float)) / 2.0, 0.6, "(1+x)/2")


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_registration_rejects_values_not_finite_and_positive(bad):
    """(1+x)/2 with one bad value at the top of the check grid: f(0) and
    f(1) still pass, so only the grid check can refuse it."""

    def spoiled(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 1e5, bad, (1.0 + x) / 2.0)

    with pytest.raises(RegistrationError, match="finite and positive on the check grid"):
        MonotoneFunction("bad", spoiled, 0.5, "spoiled (1+x)/2")


def test_sandwich_bounds_hold():
    """Every builtin sits between the harmonic and arithmetic generators."""
    rng = np.random.default_rng(19)
    x = 10.0 ** rng.uniform(-6.0, 6.0, size=1000)
    lower = 2.0 * x / (1.0 + x)
    upper = (1.0 + x) / 2.0
    for f in ALL_BUILTINS:
        fx = f(x)
        assert np.all(fx >= lower * (1.0 - 1e-12))
        assert np.all(fx <= upper * (1.0 + 1e-12))


def test_wyd_matches_high_precision_oracle():
    """The series window and the direct formula both track a 50-digit oracle."""
    mpmath.mp.dps = 50

    def oracle(beta, x):
        b = mpmath.mpf(beta)
        xm = mpmath.mpf(x)
        if xm == 1:
            return mpmath.mpf(1)
        return b * (1 - b) * (xm - 1) ** 2 / ((xm**b - 1) * (xm ** (1 - b) - 1))

    offsets = [0.0, 1e-9, 1e-6, 5e-5, 9.9e-5, 1.01e-4, 1e-3, 0.5, -0.5, -9.9e-5, -1.01e-4]
    for beta in (0.25, 0.1):
        f = wyd(beta)
        for t in offsets:
            x = 1.0 + t
            want = float(oracle(beta, x))
            assert_allclose(f(x), want, rtol=1e-11)


def _masked_wyd(beta, y):
    """wyd's evaluator on [0, 1] as it was written before the whole-array
    form: the series gathered into the window, the formula out of it."""
    f0 = beta * (1.0 - beta)
    t = y - 1.0
    near = np.abs(t) < WYD_SERIES_WINDOW
    out = np.empty_like(y)
    tn = t[near]
    out[near] = 1.0 + tn * (0.5 + tn * ((f0 - 1.0) / 12.0 + tn * (1.0 - f0) / 24.0))
    yf = y[~near]
    out[~near] = f0 * (yf - 1.0) ** 2 / ((yf**beta - 1.0) * (yf ** (1.0 - beta) - 1.0))
    return out


@pytest.mark.parametrize("beta", [0.05, 0.1, 0.25, 0.4])
def test_wyd_evaluator_has_the_bits_of_the_masked_form(beta):
    """On a grid with exact 0 and 1, ratios inside and at the edge of the
    series window and ratios outside it, the whole-array evaluator gives the
    masked form's bits, also on batches with no ratio in the window, and
    raises no RuntimeWarning (an error under this suite's settings)."""
    edge = 1.0 - WYD_SERIES_WINDOW
    grid = np.concatenate([
        [0.0, 1.0, 5e-324, 1e-300, edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)],
        1.0 - np.logspace(-16, -4, 25), np.linspace(0.0, 1.0, 257), np.logspace(-300, 0, 61),
    ])
    core = wyd(beta).unit_evaluate
    for y in (grid, grid.reshape(-1, 7)[1:], grid[np.abs(grid - 1.0) >= WYD_SERIES_WINDOW], grid[:2]):
        assert core(y).tobytes() == _masked_wyd(beta, y).tobytes()


def test_wyd_matches_wy_limit_shape():
    # beta -> 1/2 recovers the Wigner-Yanase function
    f = wyd(0.4999999)
    grid = np.logspace(-3, 3, 50)
    assert_allclose(f(grid), WY(grid), rtol=1e-5)


def test_scalar_mean_fixed_values():
    assert scalar_mean(SLD, 1.0, 3.0) == 2.0
    assert scalar_mean(RLD, 1.0, 3.0) == 1.5
    assert scalar_mean(SLD, 0.1, 0.1) == 0.1
    assert scalar_mean(SLD, 0.0, 0.0) == 0.0
    assert scalar_mean(WY, 4.0, 0.0) == 1.0
    for f in regular_builtins():
        assert scalar_mean(tilde(f), 7.3, 0.0) == 0.0


def test_scalar_mean_rejects_negative():
    with pytest.raises(ValueError, match="nonnegative"):
        scalar_mean(SLD, -1.0, 2.0)


@pytest.mark.parametrize("x, y", [(np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan)])
def test_scalar_mean_rejects_nan(x, y):
    """NaN fails every comparison, so it must not slip past the sign check."""
    with pytest.raises(ValueError, match="mean arguments must be nonnegative"):
        scalar_mean(SLD, x, y)


@given(positive_floats, positive_floats)
def test_scalar_mean_is_exactly_symmetric(x, y):
    for f in ALL_BUILTINS:
        assert scalar_mean(f, x, y) == scalar_mean(f, y, x)


@given(positive_floats, positive_floats)
def test_scalar_mean_between_arguments(x, y):
    lo, hi = min(x, y), max(x, y)
    for f in ALL_BUILTINS:
        m = scalar_mean(f, x, y)
        assert lo * (1.0 - 1e-12) <= m <= hi * (1.0 + 1e-12)


@given(st.floats(min_value=0.01, max_value=0.49))
def test_wyd_family_registers_for_any_beta(beta):
    f = wyd(beta)
    assert_allclose(f.value_at_zero, beta * (1.0 - beta), rtol=1e-15)


@pytest.mark.parametrize("beta", [0.1234567, 0.4999999, 1e-7, 0.25])
def test_a_wyd_id_names_its_own_beta(beta):
    """The id reads back as exactly beta, so the lookup by id is the same
    function, and the closed-form tilde carries the same spelling."""
    f = wyd(beta)
    assert float(f.fid.partition(":")[2]) == beta
    assert builtin(f.fid) is f
    assert f.tilde_closed_form.fid == f"tilde({f.fid})"


def test_one_wyd_object_per_beta():
    """Any spelling of one beta gives the same object, so lookup by id and
    the caches keyed by function object hold one entry per beta."""
    assert wyd("0.25") is wyd(0.25) is builtin("wyd:0.25")
    assert tilde(wyd("0.25")) is tilde(wyd(0.25))


def test_distinct_betas_get_distinct_wyd_ids():
    betas = (0.1234567, 0.123457, 0.4999999, 0.25, 0.25000000000000006, 1e-7, 1.0000001e-7)
    assert len({wyd(beta).fid for beta in betas}) == len(betas)


UNIT_GRID = np.concatenate([
    [0.0, 5e-324, 1e-300, 1e-12],
    np.geomspace(1e-9, 1.0, 97),
    [1.0 - 2e-4, 1.0 - 5e-5, 1.0],
])


@pytest.mark.parametrize("fid", ["sld", "wy", "rld", "wyd:0.05", "wyd:0.25", "wyd:0.4"])
def test_unit_evaluate_has_the_bits_of_evaluate(fid):
    """Tables call unit_evaluate on ratios in [0, 1], including wyd's series
    window 1 - 5e-5; there it must give evaluate's bits."""
    f = builtin(fid)
    for g in (f, tilde(f)) if f.regular else (f,):
        core, full = g.unit_evaluate(UNIT_GRID), g.evaluate(UNIT_GRID)
        assert core.dtype == full.dtype and core.tobytes() == full.tobytes(), g.fid


def test_mean_table_stacks_functions_on_one_packing():
    lam = np.array([[0.5, 0.3, 0.2, 0.0], [0.7, 0.2, 0.1, 0.0]])
    functions = (SLD, tilde(WY), wyd(0.25))
    tables = mean_table(functions, lam)
    assert tables.shape == (3, 2, 4, 4)
    for k, f in enumerate(functions):
        assert tables[k].tobytes() == mean_table((f,), lam)[0].tobytes()
    assert mean_table((), lam).shape == (0, 2, 4, 4)
    with pytest.raises(TypeError, match=r"sequence of functions, got sld; pass \(f,\)"):
        mean_table(SLD, lam)


def test_mean_table_structure():
    lam = np.array([0.6, 0.4, 0.0])
    for f in regular_builtins():
        table = mean_table((f,), lam)[0]
        assert np.array_equal(table, table.T)
        assert np.array_equal(np.diag(table), lam)
        tilde_table = mean_table((tilde(f),), lam)[0]
        # zero eigenvalue rows vanish exactly because the tilde hits 0 at 0
        assert np.all(tilde_table[2] == 0.0)
        assert np.all(tilde_table[:, 2] == 0.0)
        for i in range(3):
            for j in range(3):
                assert table[i, j] == scalar_mean(f, lam[i], lam[j])


def test_mean_identity_cancellation_free():
    """(x+y)/2 - m_tilde(x,y) equals f(0)(x-y)^2 / (2 m_f(x,y))."""
    rng = np.random.default_rng(29)
    for f in regular_builtins():
        ft = tilde(f)
        f0 = f.value_at_zero
        for _ in range(1000):
            x = 10.0 ** rng.uniform(-6.0, 6.0)
            # keep the pair separated so the subtractive route is well conditioned
            y = x * 10.0 ** rng.uniform(-6.0, -0.3)
            if rng.random() < 0.5:
                x, y = y, x
            lhs = 0.5 * (x + y) - scalar_mean(ft, x, y)
            rhs = f0 * (x - y) ** 2 / (2.0 * scalar_mean(f, x, y))
            assert abs(lhs - rhs) <= 1e-10 * rhs


def test_mean_identity_near_equal_arguments():
    # at x ~ y both routes are tiny; compare on the scale of the arguments
    for f in regular_builtins():
        ft = tilde(f)
        f0 = f.value_at_zero
        for delta in (1e-4, -1e-4):
            x, y = 2.0, 2.0 * (1.0 + delta)
            lhs = 0.5 * (x + y) - scalar_mean(ft, x, y)
            rhs = f0 * (x - y) ** 2 / (2.0 * scalar_mean(f, x, y))
            assert abs(lhs - rhs) <= 1e-12 * x


def test_tilde_order_verdicts():
    order = tilde_order(SLD, WY)
    assert order.first_le_second and not order.second_le_first
    same = tilde_order(WY, WY)
    assert same.first_le_second and same.second_le_first
    assert tilde_order(WY, wyd(0.25)).first_le_second
    assert tilde_order(wyd(0.25), wyd(0.1)).first_le_second
    # the chain is transitive end to end
    assert tilde_order(SLD, wyd(0.1)).first_le_second


def test_tilde_order_requires_regular():
    with pytest.raises(TildeUndefinedError):
        tilde_order(SLD, RLD)
