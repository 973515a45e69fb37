"""Normalized symmetric operator monotone functions and their scalar means.

A function f on (0, inf) enters the metric machinery through three facts:
f(1) = 1, the symmetry f(x) = x f(1/x), and the sandwich
2x/(1+x) <= f(x) <= (1+x)/2.  Registration enforces all three numerically.
f is called regular when f(0+) > 0; only regular functions admit the tilde
transform  tilde_f(x) = [(x+1) - (x-1)^2 f(0)/f(x)] / 2.  Its two terms
cancel as x -> 0, so each regular builtin also carries its tilde in closed
form (MonotoneFunction.tilde_closed_form).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .matrices import pair_indices, pair_slots

NORMALIZATION_ATOL = 1e-12
SYMMETRY_RTOL = 1e-10
SANDWICH_ATOL = 1e-12
WYD_SERIES_WINDOW = 1e-4

CHECK_GRID = np.logspace(-6.0, 6.0, 64)
ORDER_ATOL = 1e-12


class RegistrationError(ValueError):
    """A candidate function violated the operator monotone checks."""


class TildeUndefinedError(ValueError):
    """The tilde transform was requested for a non-regular function."""


def _registration_errors(fid, evaluate, value_at_zero):
    errors = []
    one = float(evaluate(1.0))
    if abs(one - 1.0) > NORMALIZATION_ATOL:
        errors.append(f"f(1) = {one!r} is not 1 within {NORMALIZATION_ATOL:.1e}")
    zero = float(evaluate(0.0))
    if abs(zero - value_at_zero) > NORMALIZATION_ATOL:
        errors.append(f"f(0) = {zero!r} does not match declared {value_at_zero!r}")
    grid = CHECK_GRID
    fx = np.asarray(evaluate(grid), dtype=np.float64)
    if not np.all(np.isfinite(fx)) or np.any(fx <= 0.0):
        errors.append("f must be finite and positive on the check grid")
        return errors
    reflected = np.asarray(evaluate(1.0 / grid), dtype=np.float64) * grid
    sym_rel = float(np.max(np.abs(fx - reflected) / np.abs(fx)))
    if sym_rel > SYMMETRY_RTOL:
        errors.append(f"symmetry f(x) = x f(1/x) violated: rel error {sym_rel:.3e}")
    lower = 2.0 * grid / (1.0 + grid)
    upper = (1.0 + grid) / 2.0
    slack = SANDWICH_ATOL * np.maximum(1.0, upper)
    if np.any(fx < lower - slack) or np.any(fx > upper + slack):
        errors.append("sandwich 2x/(1+x) <= f(x) <= (1+x)/2 violated on the grid")
    return errors


@dataclass(frozen=True)
class MonotoneFunction:
    """A registered function; ``evaluate`` accepts scalars and arrays.

    ``tilde_closed_form``, where one is known, is the tilde transform in
    closed form, itself registered.  It does not cancel at small ratios as
    ``tilde``'s generic formula does; the oracles read it, and the
    evaluation kernel reads neither, only f.
    """

    fid: str
    evaluate: Callable
    value_at_zero: float
    formula: str
    tilde_closed_form: MonotoneFunction | None = None

    def __post_init__(self):
        if not 0.0 <= self.value_at_zero <= 0.5:
            raise RegistrationError(
                f"{self.fid}: f(0) must lie in [0, 1/2], got {self.value_at_zero}"
            )
        errors = _registration_errors(self.fid, self.evaluate, self.value_at_zero)
        if errors:
            raise RegistrationError(f"{self.fid}: " + "; ".join(errors))

    def __hash__(self):
        # equal functions share these two fields; hashing the evaluator and
        # the closed form too would cost every cache keyed by functions
        return hash((self.fid, self.value_at_zero))

    @property
    def regular(self) -> bool:
        return self.value_at_zero > 0.0

    def __call__(self, x):
        return self.evaluate(x)

    @property
    def unit_evaluate(self) -> Callable:
        """The evaluator for float64 arrays with entries in [0, 1], where it
        has the bits of ``evaluate``: the core of a reflected evaluator, which
        skips the reflection, and ``evaluate`` itself otherwise."""
        return getattr(self.evaluate, "core", self.evaluate)


def require_function(f, role: str) -> MonotoneFunction:
    """``f`` itself if it is a MonotoneFunction.  The one type check of a
    function argument: every public function that uses an f passes it here,
    directly or through require_regular, and ``role`` names that argument in
    the error."""
    if not isinstance(f, MonotoneFunction):
        raise ValueError(f"{role} must be a MonotoneFunction, got {f!r}")
    return f


def require_regular(f, role: str) -> MonotoneFunction:
    """``f`` itself if it is a regular MonotoneFunction (f(0) > 0), the
    hypothesis of the tilde transform and of the volume bound.  The one
    check of it: every public function that needs it passes its f here."""
    if not require_function(f, role).regular:
        raise TildeUndefinedError(f"{role} must be regular (f(0) > 0), got {f.fid}")
    return f


def _reflected(core):
    """Lift a core defined on [0, 1] to (0, inf) via f(x) = x f(1/x); the
    lifted evaluator keeps the core as its ``core`` attribute."""

    def evaluate(x):
        arr = np.asarray(x, dtype=np.float64)
        flat = arr.reshape(-1)
        big = flat > 1.0
        out = core(np.divide(1.0, flat, out=flat.copy(), where=big))
        out[big] *= flat[big]
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    evaluate.core = core
    return evaluate


def _sld_eval(x):
    return (1.0 + x) / 2.0


def _wy_eval(x):
    s = np.sqrt(x)
    return (1.0 + s) ** 2 / 4.0


def _rld_eval(x):
    return 2.0 * x / (1.0 + x)


# closed-form tildes: tilde(sld)(x) = 2x/(1+x) is rld, tilde(wy)(x) = sqrt(x)
RLD = MonotoneFunction("rld", _rld_eval, 0.0, "2x/(1+x)")
SLD = MonotoneFunction("sld", _sld_eval, 0.5, "(1+x)/2", RLD)
WY = MonotoneFunction("wy", _wy_eval, 0.25, "((1+sqrt(x))/2)^2",
                      MonotoneFunction("tilde(wy)", np.sqrt, 0.0, "sqrt(x)"))

_BASE_BUILTINS = {"sld": SLD, "wy": WY, "rld": RLD}


def wyd(beta: float) -> MonotoneFunction:
    """Wigner-Yanase-Dyson family, beta in (0, 1/2); f(0) = beta(1-beta).

    Near x = 1 the defining ratio is 0/0, so inside |x-1| < 1e-4 the
    evaluator switches to the Taylor expansion
    1 + t/2 + (f0-1)t^2/12 + (1-f0)t^3/24 (t = x-1), whose truncation error
    is O(t^4) ~ 1e-17 at the window edge.  The evaluator runs the formula
    once over the whole array, dividing only outside the window, and
    evaluates the series only where an argument falls inside it, so a batch
    with no ratio near 1 pays for no gather or scatter.  Arguments above 1
    are reflected through the symmetry to keep powers of large x out of the
    formula.  Its
    tilde in closed form is (x^beta + x^(1-beta))/2.  The id is ``wyd:``
    then repr(beta), the shortest string that reads back as beta, so each
    beta has its own id and ``builtin(f.fid)`` is f.  The object is cached
    by float(beta), so ``wyd("0.25")`` is ``wyd(0.25)``.
    """
    return _wyd(float(beta))


@lru_cache(maxsize=None)
def _wyd(beta: float) -> MonotoneFunction:
    """wyd of a float beta, built once per beta."""
    if not 0.0 < beta < 0.5:
        raise ValueError(f"beta must lie in (0, 1/2), got {beta}")
    f0 = beta * (1.0 - beta)

    def core(y):
        t = y - 1.0
        near = np.abs(t) < WYD_SERIES_WINDOW
        out = np.divide(f0 * t**2, (y**beta - 1.0) * (y ** (1.0 - beta) - 1.0),
                        out=np.empty_like(y), where=~near)
        if near.any():
            tn = t[near]
            out[near] = 1.0 + tn * (0.5 + tn * ((f0 - 1.0) / 12.0 + tn * (1.0 - f0) / 24.0))
        return out

    return MonotoneFunction(
        f"wyd:{beta!r}",
        _reflected(core),
        f0,
        "b(1-b)(x-1)^2 / ((x^b - 1)(x^(1-b) - 1))",
        MonotoneFunction(f"tilde(wyd:{beta!r})", lambda y: (y**beta + y ** (1.0 - beta)) / 2.0, 0.0,
                         "(x^b + x^(1-b))/2"),
    )


def builtin(name: str) -> MonotoneFunction:
    """Look up a builtin by identifier: sld, wy, rld, or wyd:BETA, with no
    whitespace between the colon and BETA or inside it."""
    if not isinstance(name, str):
        raise ValueError(f"function must be a string, got {name!r}")
    key = name.strip().lower()
    if key in _BASE_BUILTINS:
        return _BASE_BUILTINS[key]
    if key.startswith("wyd:") and key[4:] == key[4:].strip():
        try:
            beta = float(key[4:])
        except ValueError as exc:
            raise ValueError(f"invalid wyd parameter in {name!r}") from exc
        return wyd(beta)
    raise ValueError(f"unknown function {name!r}; expected sld, wy, rld, or wyd:BETA")


def regular_builtins() -> tuple[MonotoneFunction, ...]:
    """The regular builtins used by default in cross-checks."""
    return (SLD, WY, wyd(0.25), wyd(0.1))


@lru_cache(maxsize=None)
def tilde(f: MonotoneFunction) -> MonotoneFunction:
    """Tilde transform of a regular function; the result is non-regular.

    The transform is itself registered, so the returned object passes the
    same normalization/symmetry/sandwich checks.  Its zero limit, which
    downstream mean tables rely on, is an exact 0.0 when f's evaluator
    returns exactly ``value_at_zero`` at 0, as every builtin's does; a
    registered f that is off there by up to the 1e-12 registration allows
    leaves the limit that far off 0.
    """
    f0, unit = require_regular(f, "tilde argument").value_at_zero, f.unit_evaluate

    def core(y):  # y lies in [0, 1], so f's own reflection is skipped too
        vals = np.asarray(unit(y), dtype=np.float64)
        return 0.5 * ((y + 1.0) - (y - 1.0) ** 2 * (f0 / vals))

    return MonotoneFunction(
        f"tilde({f.fid})",
        _reflected(core),
        0.0,
        f"((x+1) - (x-1)^2 f(0)/f(x))/2 with f = {f.fid}",
    )


def scalar_mean(f: MonotoneFunction, x: float, y: float) -> float:
    """Kubo-Ando scalar mean m_f(x, y) = max * f(min/max).

    Exact special cases: m(x, x) = x, m(x, 0) = x f(0), m(0, 0) = 0.
    """
    require_function(f, "scalar_mean function")
    if not (x >= 0.0 and y >= 0.0):
        raise ValueError(f"mean arguments must be nonnegative, got ({x}, {y})")
    if x == y:
        return float(x)
    hi, lo = (x, y) if x > y else (y, x)
    if lo == 0.0:
        return float(hi * f.value_at_zero)
    return float(hi * f.evaluate(lo / hi))


def mean_table(functions, eigenvalues) -> np.ndarray:
    """Matrices of scalar means m_f(lam_i, lam_j) over a spectrum, one per f.

    ``functions`` is a sequence of F functions and a ``(..., d)`` stack of
    spectra gives an ``(F, ..., d, d)`` stack of tables.  The packing, hi, lo
    and the ratio lo/hi are computed once and shared by every f, which is
    evaluated on the upper triangle only, through its unit_evaluate (the
    ratio lies in [0, 1]), and mirrored straight into its table, so no
    packed values of all F functions are held at once.  Each table has the
    same bits whatever functions share the call.

    Two entries are exact when f's evaluator returns exactly 1.0 at 1 and
    exactly ``value_at_zero`` at 0, as every builtin does: diagonal entries
    are then the eigenvalues themselves, bit for bit, and entries involving
    a zero eigenvalue are hi * f(0), exact zeros for tilde transforms.
    Registration lets either value be up to 1e-12 off, and these entries
    are then off by as much relative to hi; nothing here checks it.
    """
    if isinstance(functions, MonotoneFunction):
        raise TypeError(f"mean_table takes a sequence of functions, got {functions.fid}; pass (f,)")
    lam = np.asarray(eigenvalues, dtype=np.float64)
    dim = lam.shape[-1]
    rows, cols = pair_indices(dim)
    x, y = lam.take(rows, axis=-1), lam.take(cols, axis=-1)
    hi, lo = np.maximum(x, y), np.minimum(x, y)
    ratio = np.divide(lo, hi, out=np.zeros(hi.shape), where=hi > 0.0)
    slots = pair_slots(dim)
    tables = np.empty((len(functions), *lam.shape[:-1], dim * dim))
    for k, f in enumerate(functions):
        unit = require_function(f, "mean_table function").unit_evaluate
        packed = hi * np.asarray(unit(ratio), dtype=np.float64)
        packed.take(slots, axis=-1, out=tables[k])
    return tables.reshape(*tables.shape[:-1], dim, dim)


@dataclass(frozen=True)
class TildeOrder:
    """Grid verdict on the pointwise order of two tilde transforms."""

    first_le_second: bool
    second_le_first: bool


@lru_cache(maxsize=None)
def tilde_order(f: MonotoneFunction, g: MonotoneFunction) -> TildeOrder:
    """Order tilde_f vs tilde_g via the ratio criterion.

    tilde_f <= tilde_g holds exactly when f(0)/f(t) >= g(0)/g(t) for all t;
    the check samples a fixed 64-point log grid on [1e-6, 1e6], within
    ORDER_ATOL.
    """
    require_regular(f, "first ordered function")
    require_regular(g, "second ordered function")
    rf = f.value_at_zero / np.asarray(f.evaluate(CHECK_GRID), dtype=np.float64)
    rg = g.value_at_zero / np.asarray(g.evaluate(CHECK_GRID), dtype=np.float64)
    return TildeOrder(
        first_le_second=bool(np.all(rf >= rg - ORDER_ATOL)),
        second_le_first=bool(np.all(rg >= rf - ORDER_ATOL)),
    )
