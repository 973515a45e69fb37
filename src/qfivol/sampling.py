"""Deterministic random ensembles for states and observables.

Every draw is derived from ``SeedSequence(seed, spawn_key=(index, channel))``
where ``channel`` separates the state stream from the observable stream
(stream v1).  All normals of one channel come from a single
``standard_normal`` call, which yields the same values as drawing them piece
by piece.  The same (seed, dim, ensemble, index) therefore always yields
bit-identical output, independent of call order, batch, process, or worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import DecompositionError, DensityMatrix, density_stack

# base tags, the names records carry
ENSEMBLES = ("density", "real-density", "pauli-like-structured")

# CLI names, STATE+OBSERVABLE compounds and the retired complex-hermitian and
# real-symmetric tags, which drew exactly the streams of their base tags, so
# records that carry them still replay
_ALIASES = {
    "complex": "density",
    "complex-hermitian": "density",
    "density+complex-hermitian": "density",
    "real": "real-density",
    "real-symmetric": "real-density",
    "real-density+real-symmetric": "real-density",
    "structured": "pauli-like-structured",
    "pauli-like-structured+pauli-like-structured": "pauli-like-structured",
}

STATE_CHANNEL = 0
OBSERVABLE_CHANNEL = 1
PURE_CHANNEL = 2

MIN_DIM = 2
MAX_DIM = 8

# floor added to squared gaussians for structured spectra; keeps the diagonal
# state comfortably faithful so downstream divisions stay well conditioned
STRUCTURED_SPECTRUM_FLOOR = 0.05


def resolve_ensemble(tag: str) -> str:
    """Map an ensemble tag (base tag, alias or STATE+OBSERVABLE pair) to its
    base tag."""
    key = tag.strip().lower()
    base = _ALIASES.get(key, key)
    if base not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {tag!r}; use one of {ENSEMBLES} or {sorted(_ALIASES)}")
    return base


@dataclass(frozen=True)
class RandomSpec:
    """Identifies a reproducible stream of random draws; ``ensemble`` is
    resolved to its base tag."""

    seed: int
    dim: int
    ensemble: str

    def __post_init__(self):
        object.__setattr__(self, "ensemble", resolve_ensemble(self.ensemble))
        if not MIN_DIM <= self.dim <= MAX_DIM:
            raise ValueError(f"dim must be in [{MIN_DIM}, {MAX_DIM}], got {self.dim}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def _rng(seed: int, index: int, channel: int) -> np.random.Generator:
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(index), int(channel)))
    return np.random.default_rng(ss)


def _normals(spec: RandomSpec, indices, channel: int, size) -> np.ndarray:
    """One standard_normal call of ``size`` per index, stacked."""
    out = np.empty((len(indices), *np.atleast_1d(size)))
    for row, index in zip(out, indices):
        _rng(spec.seed, index, channel).standard_normal(out=row)
    return out


def _hermitian(z) -> np.ndarray:
    # z: (B, 1 | 2, d, d) normals, one plane for real draws, re/im for complex
    m = z[:, 0] if z.shape[1] == 1 else z[:, 0] + 1j * z[:, 1]
    return (m + m.conj().swapaxes(-1, -2)) / 2


def _state_matrices(spec: RandomSpec, indices) -> np.ndarray:
    """Unit-trace state matrices, before validation, as a (B, d, d) stack.

    density uses a complex Ginibre state, real-density a real one, and
    pauli-like-structured a diagonal state with a floored random spectrum (the
    structured positivity result assumes a diagonal, faithful state).
    """
    dim = spec.dim
    if spec.ensemble == "pauli-like-structured":
        g = _normals(spec, indices, STATE_CHANNEL, dim) ** 2 + STRUCTURED_SPECTRUM_FLOOR
        m = np.zeros((len(g), dim, dim))
        m[:, np.arange(dim), np.arange(dim)] = g / g.sum(axis=-1, keepdims=True)
        return m
    real = spec.ensemble == "real-density"
    z = _normals(spec, indices, STATE_CHANNEL, (1 if real else 2, dim, dim))
    g = z[:, 0] if real else z[:, 0] + 1j * z[:, 1]
    # g.conj() is g itself for real draws, so matmul sees g @ g.T as before
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


def draw_states(spec: RandomSpec, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated (matrix, eigenvalues, eigenvectors) stacks of the states at
    ``indices``, as matrices.density_stack returns them; a failed check names
    the sample index."""
    try:
        return density_stack(_state_matrices(spec, indices))
    except (ValueError, DecompositionError) as exc:
        position = getattr(exc, "position", None)
        if position is None:
            raise
        raise type(exc)(f"sample {indices[position]}: {exc}") from exc


def draw_observables(spec: RandomSpec, indices, count: int) -> tuple[np.ndarray, ...]:
    """``count`` exactly self-adjoint (B, d, d) observable stacks, one per slot.

    For pauli-like-structured the count must be 3 and the slots hold the
    (A, B, C) triple: A an arbitrary complex Hermitian matrix, B Hermitian
    with zero diagonal, C real diagonal.
    """
    if count < 1:
        raise ValueError("count must be positive")
    dim = spec.dim
    diag = np.arange(dim), np.arange(dim)
    if spec.ensemble == "pauli-like-structured":
        if count != 3:
            raise ValueError("the structured ensemble draws exactly 3 observables")
        z = _normals(spec, indices, OBSERVABLE_CHANNEL, 4 * dim * dim + dim)
        pair = z[:, : 4 * dim * dim].reshape(-1, 2, 2, dim, dim)
        a, b = _hermitian(pair[:, 0]), _hermitian(pair[:, 1])
        b[:, diag[0], diag[1]] = 0.0
        c = np.zeros_like(b, dtype=np.float64)
        c[:, diag[0], diag[1]] = z[:, 4 * dim * dim :]
        return (a, b, c)
    real = spec.ensemble == "real-density"
    z = _normals(spec, indices, OBSERVABLE_CHANNEL, (count, 1 if real else 2, dim, dim))
    return tuple(_hermitian(z[:, k]) for k in range(count))


def sample_state(spec: RandomSpec, index: int) -> DensityMatrix:
    """State draw for the ensemble's state stream (see _state_matrices)."""
    return DensityMatrix(_state_matrices(spec, [index])[0])


def sample_observables(spec: RandomSpec, index: int, count: int) -> tuple[np.ndarray, ...]:
    """Observable draws for one sample (see draw_observables)."""
    return tuple(stack[0] for stack in draw_observables(spec, [index], count))


def sample_pure_state(seed: int, dim: int, index: int) -> DensityMatrix:
    """Rank-1 projector onto a normalized complex Gaussian vector."""
    rng = _rng(seed, index, PURE_CHANNEL)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))
