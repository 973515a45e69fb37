"""Deterministic random ensembles for states and observables.

One stream defines every draw: the normals of sample ``i`` on ``channel``
are row ``i % BLOCK`` of ``Generator(Philox(key=seed, counter=[0, 0, i //
BLOCK, channel])).standard_normal((BLOCK, *shape))``, with BLOCK = 8 and
``channel`` separating the state, observable and pure-state streams.  The
same (seed, dim, ensemble, index) therefore always yields bit-identical
output, independent of call order, batch, process, thread, or worker count.
Philox is counter-based, so a block's draw starts from a state assignment:
one generator per thread is set to each block's (key, counter) in turn, from
one state dict per thread whose seed, block and channel are written in
place, and draws the block in one call.  Every draw is one run of
consecutive indices, given as (start, size): a sweep kernel call's samples,
or the one sample of a replay or a single-sample draw.  A run is checked at
its two ends and its rows are one slice of the drawn blocks.  Complex
matrices are built by filling their real and imaginary planes from the
normals, never by multiplying a real array by 1j.

A ``RandomSpec`` is (seed, dim, ensemble), so no draw function takes a
stream argument.  Replayable records (version 4, ``sweep.RECORD_VERSION``)
are drawn from this stream, as the retired version-3 records were: a
version-4 sweep draws the samples a version-3 sweep of the same config drew.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .matrices import MAX_OBSERVABLES, DecompositionError, DensityMatrix, as_integer, density_stack

# base tags, the names records carry
ENSEMBLES = ("density", "real-density", "pauli-like-structured")

# CLI names, which draw exactly the streams of their base tags
_ALIASES = {
    "complex": "density",
    "real": "real-density",
    "structured": "pauli-like-structured",
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
    """Map an ensemble tag (base tag or CLI alias) to its base tag."""
    if not isinstance(tag, str):
        raise ValueError(f"ensemble must be a string, got {tag!r}")
    key = tag.strip().lower()
    base = _ALIASES.get(key, key)
    if base not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {tag!r}; use one of {ENSEMBLES} or {sorted(_ALIASES)}")
    return base


@dataclass(frozen=True)
class RandomSpec:
    """Identifies a reproducible stream of random draws (see the module
    docstring); ``ensemble`` is resolved to its base tag.  The one check of
    these three fields: sweeps and replay pass theirs here."""

    seed: int
    dim: int
    ensemble: str

    def __post_init__(self):
        object.__setattr__(self, "ensemble", resolve_ensemble(self.ensemble))
        object.__setattr__(self, "dim", as_integer("dim", self.dim, MIN_DIM, MAX_DIM))
        object.__setattr__(self, "seed", as_integer("seed", self.seed, 0, 2**64 - 1))


# the stream's block size: sample i draws row i % BLOCK of its block's call;
# part of the stream's definition, so changing it changes every record
BLOCK = 8

_thread = threading.local()


def _index(value) -> int:
    """The one check of a sample index: an integer (``as_integer``) in
    0..2**64 - 1; both ends of every draw's run pass it."""
    return as_integer("index", value, 0, 2**64 - 1)


def _normals(spec: RandomSpec, start, size: int, draws) -> list[np.ndarray]:
    """For each (channel, shape) of ``draws`` a (size, *shape) stack whose
    row b holds the normals of sample start + b on that channel, from the
    spec's seed (see the module docstring).  The run's first and last
    index pass _index before any normal is drawn, ``start`` as the caller
    gave it.  A block's call fills its rows in order, so the run's last
    block is drawn only up to its last row: a replay of one record draws
    its own row and those before it, and the rows drawn have the bits of
    the whole block's call."""
    first = _index(start)
    # the run's first index out of range is 2**64, whatever its size
    last = _index(min(first + size - 1, 2**64))
    blocks = range(first // BLOCK, last // BLOCK + 1)
    depths = [BLOCK] * (len(blocks) - 1) + [last % BLOCK + 1]
    rows = slice(first % BLOCK, first % BLOCK + size)
    if not hasattr(_thread, "generator"):
        # one per thread, whose state each block sets: building a Philox
        # costs ~20x as much as setting its state (numpy 2.4.6, x86-64)
        _thread.generator = np.random.Generator(np.random.Philox(key=0))
    if not hasattr(_thread, "state"):
        # the state of a fresh Philox(key=[seed, 0], counter=[0, 0, block,
        # channel]), whose seed, block and channel each draw writes in place
        _thread.state = {
            "bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
    gen, state = _thread.generator, _thread.state
    counter = state["state"]["counter"]
    state["state"]["key"][0] = spec.seed
    stacks = []
    for channel, shape in draws:
        counter[3] = channel
        drawn = np.empty((len(blocks), BLOCK, *shape))
        for block, depth, out in zip(blocks, depths, drawn):
            counter[2] = block
            gen.bit_generator.state = state
            gen.standard_normal(out=out[:depth])
        stacks.append(drawn.reshape(-1, *shape)[rows])
    return stacks


def _complex(re, im) -> np.ndarray:
    """re + i im as a new complex array whose real and imaginary planes are
    filled from the two real arrays, with no complex product of either."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _hermitian(z) -> np.ndarray:
    # z: (..., 1 | 2, d, d) normals, one plane for real draws, re/im for complex
    m = z[..., 0, :, :] if z.shape[-3] == 1 else _complex(z[..., 0, :, :], z[..., 1, :, :])
    return (m + m.conj().swapaxes(-1, -2)) / 2


def _planes(spec: RandomSpec) -> int:
    return 1 if spec.ensemble == "real-density" else 2


def _state_draw(spec: RandomSpec) -> tuple:
    """(channel, shape) of one sample's state normals."""
    dim = spec.dim
    if spec.ensemble == "pauli-like-structured":
        return STATE_CHANNEL, (dim,)
    return STATE_CHANNEL, (_planes(spec), dim, dim)


def _state_matrices(spec: RandomSpec, z) -> np.ndarray:
    """Unit-trace state matrices from their normals, before validation, as a
    (B, d, d) stack.

    density uses a complex Ginibre state, real-density a real one, and
    pauli-like-structured a diagonal state with a floored random spectrum (the
    structured positivity result assumes a diagonal, faithful state).
    """
    dim = spec.dim
    if spec.ensemble == "pauli-like-structured":
        g = z**2 + STRUCTURED_SPECTRUM_FLOOR
        m = np.zeros((len(g), dim, dim))
        m[:, np.arange(dim), np.arange(dim)] = g / g.sum(axis=-1, keepdims=True)
        return m
    g = z[:, 0] if z.shape[1] == 1 else _complex(z[:, 0], z[:, 1])
    m = g @ g.conj().swapaxes(-1, -2)
    # a complex division even for real traces: numpy's complex-by-real path
    # multiplies by 1/trace, whose bits a plane-by-plane a/trace would not keep
    return m / m.trace(axis1=-2, axis2=-1).real[:, None, None]


def observable_draw(spec: RandomSpec, count) -> tuple:
    """(channel, shape) of one sample's ``count`` observables' normals.  The
    one check of an observable count: an integer (``as_integer``) in
    1..MAX_OBSERVABLES, and 3 for the structured ensemble; every draw,
    SweepConfig and replay pass theirs here."""
    count = as_integer("n", count, 1, MAX_OBSERVABLES)
    dim = spec.dim
    if spec.ensemble == "pauli-like-structured":
        if count != 3:
            raise ValueError("the structured ensemble requires n = 3")
        return OBSERVABLE_CHANNEL, (4 * dim * dim + dim,)
    return OBSERVABLE_CHANNEL, (count, _planes(spec), dim, dim)


def _observables(spec: RandomSpec, z) -> np.ndarray:
    """A (B, n, d, d) stack of exactly self-adjoint observables from
    their normals.

    For pauli-like-structured the slots hold the (A, B, C) triple: A an
    arbitrary complex Hermitian matrix, B Hermitian with zero diagonal, C real
    diagonal (held in the complex stack).
    """
    dim = spec.dim
    if spec.ensemble == "pauli-like-structured":
        diag = np.arange(dim), np.arange(dim)
        obs = np.zeros((len(z), 3, dim, dim), dtype=complex)
        obs[:, :2] = _hermitian(z[:, : 4 * dim * dim].reshape(-1, 2, 2, dim, dim))
        obs[:, 1, diag[0], diag[1]] = 0.0
        obs[:, 2, diag[0], diag[1]] = z[:, 4 * dim * dim :]
        return obs
    return _hermitian(z)


def draw_samples(spec: RandomSpec, start, size: int, count: int):
    """The ``size`` samples of the spec from index ``start`` on: validated
    (matrix, eigenvalues, eigenvectors) state stacks, as
    matrices.density_stack returns them, and a (size, count, d, d)
    observable stack (see _observables).  A failed state check names the
    sample index."""
    draws = (_state_draw(spec), observable_draw(spec, count))
    z_state, z_obs = _normals(spec, start, size, draws)
    try:
        states = density_stack(_state_matrices(spec, z_state))
    except (ValueError, DecompositionError) as exc:
        position = getattr(exc, "position", None)
        if position is None:
            raise
        raise type(exc)(f"sample {start + position}: {exc}") from exc
    return states, _observables(spec, z_obs)


def sample_state(spec: RandomSpec, index: int) -> DensityMatrix:
    """State draw for the ensemble's state stream (see _state_matrices)."""
    (z,) = _normals(spec, index, 1, (_state_draw(spec),))
    return DensityMatrix(_state_matrices(spec, z)[0])


def sample_observables(spec: RandomSpec, index: int, count: int) -> tuple[np.ndarray, ...]:
    """One sample's observable draws (see _observables); a structured C stays a real array."""
    draw = observable_draw(spec, count)
    (z,) = _normals(spec, index, 1, (draw,))
    a = _observables(spec, z)[0]
    return (*a[:2], a[2].real.copy()) if spec.ensemble == "pauli-like-structured" else tuple(a)


def sample_pure_state(seed: int, dim: int, index: int) -> DensityMatrix:
    """Rank-1 projector onto a normalized complex Gaussian vector (real parts
    first, then imaginary parts, from one call); seed and dim are checked as
    a RandomSpec checks them."""
    spec, draw = RandomSpec(seed, dim, "density"), (PURE_CHANNEL, (2 * dim,))
    (z,) = _normals(spec, index, 1, (draw,))
    v = _complex(z[0, :dim], z[0, dim:])
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))
