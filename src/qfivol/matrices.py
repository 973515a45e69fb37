"""Hermitian matrix helpers and density matrices with cached spectral data.

Conventions used throughout the package:

* eigenvalues are sorted in descending order,
* eigenvectors are the columns of the unitary ``U``, so that
  ``rho = (U * eigenvalues) @ U.conj().T``,
* the eigenframe form of an observable is ``a = U.conj().T @ A0 @ U`` with
  ``A0`` the centered observable ``A - Tr(rho A) I``.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = 1e-12
UNITARITY_ATOL = 1e-10
RECONSTRUCTION_ATOL = 1e-10

# the most observables N, and so the largest Gram size n that det_small takes
MAX_OBSERVABLES = 8

# np.eye(d) cached per d for the unitarity check and the frames; callers never write it
_identity = lru_cache(maxsize=None)(np.eye)

_SELF_ADJOINT_MESSAGE = "matrix is not self-adjoint: max deviation {:.3e} > " + f"{HERMITIAN_ATOL:.1e}"
_TRACE_MESSAGE = f"trace must be 1 within {TRACE_ATOL:.1e}, got " + "{}"
_DECOMPOSITION_MESSAGE = "decomposition checks failed: unitarity {:.3e}, reconstruction {:.3e}"
_NEGATIVE_MESSAGE = "negative eigenvalue {:.3e} beyond tolerance"


class DecompositionError(RuntimeError):
    """Eigendecomposition failed to converge or violated its guarantees."""


def as_integer(name: str, value, low=None, high=None) -> int:
    """``value`` as an int (numpy integer scalars included), at least ``low``
    and at most ``high`` where given (``high`` only with ``low``); a bool,
    which a record would print as JSON's true or false, a non-integral value
    or one out of range raises ValueError naming the field.  The package's
    one integer check: seeds, dims, counts, indices and line numbers all
    pass it."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if (low is not None and number < low) or (high is not None and number > high):
        bounds = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bounds}, got {number}")
    return number


def _require(ok, error, message, *values, entrywise=False):
    """Raise ``error`` for the first matrix k of a stack whose check in ``ok``
    is not True (NaN fails), with ``message`` formatted from the k-th entries
    of ``values``, arrays or callables that build them only on failure; the
    exception's ``position`` attribute records k.  ``ok`` holds one check per
    matrix, or with ``entrywise`` one per entry, the matrices' (d, d) axes
    last, and a matrix fails where any of its entries does.  A check that
    passes costs one ``ok.all()``: the per-matrix checks, the position and
    the message are built only on failure."""
    if not ok.all():
        if entrywise:
            ok = ok.all(axis=(-2, -1))
        k = int(np.flatnonzero(~ok)[0])
        arrays = (value() if callable(value) else value for value in values)
        exc = error(message.format(*(array.flat[k] for array in arrays)))
        exc.position = k
        raise exc


def as_hermitian(matrix) -> np.ndarray:
    """Validate near-self-adjointness and return the exactly symmetrized matrix.

    The input is a square matrix or a ``(..., d, d)`` stack of them, each
    satisfying ``max|M - M^dagger| <= HERMITIAN_ATOL``.  The returned array is
    ``(M + M^dagger) / 2``, so downstream code can rely on exact
    self-adjointness.  Real input stays real.
    """
    m = np.asarray(matrix)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    adj = m.conj().swapaxes(-1, -2)
    deviation = np.abs(m - adj)
    _require(deviation <= HERMITIAN_ATOL, ValueError, _SELF_ADJOINT_MESSAGE,
             lambda: deviation.max(axis=(-2, -1)), entrywise=True)
    return (m + adj) / 2


def spectral_decompose(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a self-adjoint matrix, eigenvalues descending.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvectors as columns; a
    ``(..., d, d)`` stack gives stacks of both.  The output is deterministic
    for identical input bits: the symmetric LAPACK solver is deterministic on
    a fixed build and runs once per matrix of a stack, and the descending
    reorder is a fixed slice reversal, so repeated calls agree bit for bit,
    including the basis chosen inside degenerate eigenspaces.
    """
    return _checked_eigh(as_hermitian(matrix))


def _checked_eigh(m) -> tuple[np.ndarray, np.ndarray]:
    # m is exactly self-adjoint already
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigendecomposition failed: {exc}") from exc
    w = np.ascontiguousarray(w[..., ::-1])
    v = np.ascontiguousarray(v[..., ::-1])
    vh = v.conj().swapaxes(-1, -2)
    unit_err = np.abs(vh @ v - _identity(m.shape[-1]))
    # each matrix's own tolerance, RECONSTRUCTION_ATOL max(1, max|w|)
    tolerance = RECONSTRUCTION_ATOL * np.abs(w).max(axis=-1, initial=1.0)
    recon_err = np.abs((v * w[..., None, :]) @ vh - m)
    ok = (unit_err <= UNITARITY_ATOL) & (recon_err <= tolerance[..., None, None])
    _require(ok, DecompositionError, _DECOMPOSITION_MESSAGE, lambda: unit_err.max(axis=(-2, -1)),
             lambda: recon_err.max(axis=(-2, -1)), entrywise=True)
    return w, v


def density_stack(matrices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a ``(B, d, d)`` stack of density matrices and decompose each:
    the symmetrized matrices, descending eigenvalues (those below
    ``EIGENVALUE_FLOOR`` clamped to exact zeros) and eigenvectors."""
    m = as_hermitian(matrices)
    trace = m.trace(axis1=-2, axis2=-1)
    _require(np.abs(trace - 1.0) <= TRACE_ATOL, ValueError, _TRACE_MESSAGE, lambda: trace.astype(complex))
    w, v = _checked_eigh(m)
    lowest = w[..., -1]
    _require(lowest >= -EIGENVALUE_FLOOR, ValueError, _NEGATIVE_MESSAGE, lowest)
    w[w < EIGENVALUE_FLOOR] = 0.0
    return m, w, v


class DensityMatrix:
    """Unit-trace positive semidefinite matrix with cached spectral data.

    Eigenvalues below ``EIGENVALUE_FLOOR`` are clamped to exact zeros and the
    state is then flagged non-faithful.  All stored arrays are read-only.
    """

    __slots__ = ("matrix", "eigenvalues", "eigenvectors", "dim", "faithful")

    def __init__(self, matrix):
        m = np.asarray(matrix)
        if m.ndim != 2:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        m, w, v = (x[0] for x in density_stack(m[None]))
        self.matrix = m
        self.eigenvalues = w
        self.eigenvectors = v
        self.dim = m.shape[0]
        self.faithful = bool(w[-1] > 0.0)
        for arr in (self.matrix, self.eigenvalues, self.eigenvectors):
            arr.setflags(write=False)

    def __repr__(self):  # pragma: no cover
        return (
            f"DensityMatrix(dim={self.dim}, faithful={self.faithful}, "
            f"eigenvalues={np.array2string(self.eigenvalues, precision=6)})"
        )


def eigenframes(eigenvectors, observables) -> np.ndarray:
    """U^dagger A U, uncentered, for (B, d, d) eigenvectors and (B, n, d, d) observables."""
    left = eigenvectors[:, None].conj().swapaxes(-1, -2) @ observables
    # one (n d, d) @ (d, d) product per sample has the bits of n (d, d) ones (numpy 2.4.6)
    return (left.reshape(len(left), -1, left.shape[-1]) @ eigenvectors).reshape(left.shape)


def observable_stack(state: DensityMatrix, observables) -> np.ndarray:
    """Validate 1..MAX_OBSERVABLES near-self-adjoint (d, d) observables of a
    d-level ``state`` and return them as one exactly self-adjoint (n, d, d)
    stack.  The one check of a single-spec state too: anything but a
    DensityMatrix raises ValueError naming its type."""
    if not isinstance(state, DensityMatrix):
        raise ValueError(f"state must be a DensityMatrix, got {type(state).__name__}")
    dim = state.dim
    obs = [np.asarray(o) for o in observables]
    if not 1 <= len(obs) <= MAX_OBSERVABLES:
        raise ValueError(f"need 1..{MAX_OBSERVABLES} observables, got {len(obs)}")
    for o in obs:
        if o.shape != (dim, dim):
            raise ValueError(f"shape mismatch: observable shape {o.shape} does not match dim {dim}")
    return as_hermitian(np.stack(obs))


def to_eigenframe(state: DensityMatrix, observable) -> np.ndarray:
    """Centered observable in the state's eigenbasis: U^dagger (A - <A>I) U.

    The result is self-adjoint and satisfies the weighted centering identity
    sum_h eigenvalues[h] * a[h, h] = 0 (within roundoff).
    """
    a = observable_stack(state, [observable])[0]
    u = state.eigenvectors
    mean = np.einsum("ij,ji->", state.matrix, a).real
    return (u.conj().T @ a) @ u - mean * _identity(state.dim)


def icommutator(state: DensityMatrix, observable) -> np.ndarray:
    """i[rho, A] = i(rho A - A rho); self-adjoint for self-adjoint A."""
    a = observable_stack(state, [observable])[0]
    c = 1j * (state.matrix @ a - a @ state.matrix)
    return (c + c.conj().T) / 2


# np.triu_indices(n, offset) cached per size; callers share the arrays and never write them
pair_indices = lru_cache(maxsize=None)(np.triu_indices)


@lru_cache(maxsize=None)
def pair_slots(n: int) -> np.ndarray:
    """Per row-major entry (i, j) of an n x n matrix, the position of the pair
    (min(i, j), max(i, j)) in pair_indices(n), so ``values.take(slots,
    axis=-1)`` unpacks values over those pairs into symmetric matrices."""
    rows, cols = pair_indices(n)
    slots = np.empty((n, n), dtype=np.intp)
    slots[rows, cols] = slots[cols, rows] = np.arange(len(rows))
    return slots.reshape(-1)


@lru_cache(maxsize=None)
def _coordinate_index(dim: int) -> tuple:
    """Where a (d, d) matrix read as d^2 entries holds its diagonal, and
    its entries above the diagonal in pair_indices order."""
    rows, cols = pair_indices(dim, 1)
    return np.arange(dim) * (dim + 1), rows * dim + cols


def real_coordinates(frames) -> np.ndarray:
    """Real coordinates of a ``(..., n, d, d)`` stack of self-adjoint matrices,
    shaped ``(..., n, d^2)``: the d diagonal entries, then sqrt(2) Re and
    sqrt(2) Im of the upper ones.  The map is a Frobenius isometry, so
    X X^T = Re Tr(a_h a_j) for each stacked n-tuple of matrices a."""
    dim = frames.shape[-1]
    diag, upper = _coordinate_index(dim)
    entries = frames.reshape(*frames.shape[:-2], dim * dim)
    upper = math.sqrt(2.0) * entries.take(upper, axis=-1)
    return np.concatenate([entries.take(diag, axis=-1).real, upper.real, upper.imag], axis=-1)


def det_small(matrix):
    """Determinant of a small real matrix (n <= 8), or of each matrix of a
    ``(..., n, n)`` stack (then an array of determinants).

    Uses cofactor expansion, vectorized over the stack, for n <= 3 and
    ``np.linalg.det`` (LAPACK LU with partial pivoting) on the whole stack for
    4 <= n <= 8; each matrix's determinant has the same bits as a call on that
    matrix alone.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[-1]
    if n == 0 or n > MAX_OBSERVABLES:
        raise ValueError(f"supported sizes are 1..{MAX_OBSERVABLES}, got {n}")
    if n == 1:
        det = m[..., 0, 0]
    elif n == 2:
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    elif n == 3:
        det = (
            m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
        )
    else:
        det = np.linalg.det(m)
    return float(det) if m.ndim == 2 else det
