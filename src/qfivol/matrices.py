"""Hermitian matrix helpers and density matrices with cached spectral data.

Conventions used throughout the package:

* eigenvalues are sorted in descending order,
* eigenvectors are the columns of the unitary ``U``, so that
  ``rho = (U * eigenvalues) @ U.conj().T``,
* the eigenframe form of an observable is ``a = U.conj().T @ A0 @ U`` with
  ``A0`` the centered observable ``A - Tr(rho A) I``.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = 1e-12
UNITARITY_ATOL = 1e-10
RECONSTRUCTION_ATOL = 1e-10

DET_SMALL_MAX_DIM = 8


class DecompositionError(RuntimeError):
    """Eigendecomposition failed to converge or violated its guarantees."""


def _require(ok, error, message, *values):
    """Raise ``error`` for the first matrix k of a stack whose check in ``ok``
    is not True (NaN fails), with ``message`` formatted from the k-th entries
    of ``values``; the exception's ``position`` attribute records k."""
    if not np.all(ok):
        k = int(np.flatnonzero(~ok)[0])
        exc = error(message.format(*(value.flat[k] for value in values)))
        exc.position = k
        raise exc


def as_hermitian(matrix, *, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate near-self-adjointness and return the exactly symmetrized matrix.

    The input is a square matrix or a ``(..., d, d)`` stack of them, each
    satisfying ``max|M - M^dagger| <= atol``.  The returned array is
    ``(M + M^dagger) / 2``, so downstream code can rely on exact
    self-adjointness.  Real input stays real.
    """
    m = np.asarray(matrix)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    adj = m.conj().swapaxes(-1, -2)
    if m.size:
        deviation = np.abs(m - adj).max(axis=(-2, -1))
        message = "matrix is not self-adjoint: max deviation {:.3e} > " + f"{atol:.1e}"
        _require(deviation <= atol, ValueError, message, deviation)
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
    if m.shape[-1]:
        vh = v.conj().swapaxes(-1, -2)
        unit_err = np.abs(vh @ v - np.eye(m.shape[-1])).max(axis=(-2, -1))
        scale = np.maximum(1.0, np.abs(w).max(axis=-1))
        recon_err = np.abs((v * w[..., None, :]) @ vh - m).max(axis=(-2, -1))
        ok = (unit_err <= UNITARITY_ATOL) & (recon_err <= RECONSTRUCTION_ATOL * scale)
        message = "decomposition checks failed: unitarity {:.3e}, reconstruction {:.3e}"
        _require(ok, DecompositionError, message, unit_err, recon_err)
    return w, v


def density_stack(matrices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a ``(B, d, d)`` stack of density matrices and decompose each:
    the symmetrized matrices, descending eigenvalues (those below
    ``EIGENVALUE_FLOOR`` clamped to exact zeros) and eigenvectors."""
    m = as_hermitian(matrices)
    trace = np.trace(m, axis1=-2, axis2=-1)
    message = f"trace must be 1 within {TRACE_ATOL:.1e}, got " + "{}"
    _require(np.abs(trace - 1.0) <= TRACE_ATOL, ValueError, message, trace.astype(complex))
    w, v = _checked_eigh(m)
    lowest = w[..., -1]
    message = "negative eigenvalue {:.3e} beyond tolerance"
    _require(lowest >= -EIGENVALUE_FLOOR, ValueError, message, lowest)
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

    def expectation(self, observable) -> float:
        """Tr(rho A) for a self-adjoint A (real by construction)."""
        a = np.asarray(observable)
        return float(np.einsum("ij,ji->", self.matrix, a).real)

    def __repr__(self):  # pragma: no cover
        return (
            f"DensityMatrix(dim={self.dim}, faithful={self.faithful}, "
            f"eigenvalues={np.array2string(self.eigenvalues, precision=6)})"
        )


def expectation_stack(rho, observables) -> np.ndarray:
    """Tr(rho A) for each sample of two ``(B, d, d)`` stacks, shaped (B, 1, 1).

    One einsum per sample on purpose: a batched einsum sums in an order that
    depends on the batch size, and record bits must not.
    """
    means = [np.einsum("ij,ji->", r, a).real for r, a in zip(rho, observables)]
    return np.array(means, dtype=np.float64).reshape(-1, 1, 1)


def frame_stack(eigenvectors, observables, means) -> np.ndarray:
    """U^dagger A U - Tr(rho A) I for ``(B, d, d)`` stacks; see to_eigenframe."""
    frame = eigenvectors.conj().swapaxes(-1, -2) @ observables @ eigenvectors
    return frame - means * np.eye(frame.shape[-1])


def _checked_observable(state: DensityMatrix, observable) -> np.ndarray:
    a = as_hermitian(observable)
    if a.shape[0] != state.dim:
        raise ValueError(f"dimension mismatch: {a.shape[0]} != {state.dim}")
    return a


def center(state: DensityMatrix, observable) -> np.ndarray:
    """Subtract the state expectation: A -> A - Tr(rho A) I."""
    a = _checked_observable(state, observable)
    return a - state.expectation(a) * np.eye(state.dim, dtype=a.dtype)


def to_eigenframe(state: DensityMatrix, observable) -> np.ndarray:
    """Centered observable in the state's eigenbasis: U^dagger (A - <A>I) U.

    The result is self-adjoint and satisfies the weighted centering identity
    sum_h eigenvalues[h] * a[h, h] = 0 (within roundoff).
    """
    a = _checked_observable(state, observable)[None]
    means = expectation_stack(state.matrix[None], a)
    return frame_stack(state.eigenvectors[None], a, means)[0]


def icommutator(state: DensityMatrix, observable) -> np.ndarray:
    """i[rho, A] = i(rho A - A rho); self-adjoint for self-adjoint A."""
    a = _checked_observable(state, observable)
    c = 1j * (state.matrix @ a - a @ state.matrix)
    return (c + c.conj().T) / 2


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
    if n == 0 or n > DET_SMALL_MAX_DIM:
        raise ValueError(f"supported sizes are 1..{DET_SMALL_MAX_DIM}, got {n}")
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
