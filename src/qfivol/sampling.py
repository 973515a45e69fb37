"""Deterministic random ensembles for states and observables.

Stream v1 defines every draw: the normals of sample ``index`` on ``channel``
come from one ``standard_normal`` call of
``default_rng(SeedSequence(seed, spawn_key=(index, channel)))``, where
``channel`` separates the state stream from the observable stream.  One call
yields the same values as drawing them piece by piece.  The same (seed, dim,
ensemble, index) therefore always yields bit-identical output, independent of
call order, batch, process, thread, or worker count.

Those objects are never built: ``_pcg64_states`` repeats SeedSequence's hash
and PCG64's seeding for a whole batch of indices in one vectorized pass, and
one generator per thread is set to each resulting state in turn.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

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


_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1


def _u32(value) -> np.ndarray:
    # uint32 arrays, never numpy scalars: array arithmetic wraps silently where
    # scalar arithmetic warns on overflow, and a 0-d array constant costs about
    # half as much per operation as a Python int operand
    return np.array(value, dtype=np.uint32)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    out = [init]
    while len(out) < count:
        out.append(out[-1] * mult & _M32)
    return _u32(out)


# numpy.random.SeedSequence's hash (numpy/random/bit_generator.pyx): its k-th
# hashmix xors with _HASH_A[k] and multiplies by _HASH_A[k + 1]; k runs over
# the 4 seed words, the 12 cross mixes of the pool, then 4 per spawn-key word
# (an index's one or two words, then the channel)
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 29)
_SPAWN_XOR, _SPAWN_MUL = _HASH_A[16:28].reshape(3, 1, 4), _HASH_A[17:29].reshape(3, 1, 4)
# generate_state hashes its i-th output word with _HASH_B[i], _HASH_B[i + 1];
# PCG64 asks for 8 words and reads them as its (initstate, initseq) uint64s
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_OUT_XOR, _OUT_MUL = _HASH_B[:8].reshape(1, 2, 4), _HASH_B[1:].reshape(1, 2, 4)
_MIX_L, _MIX_R, _SHIFT = _u32(0xCA01F9DD), _u32(0x4973F715), _u32(16)
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_thread = threading.local()


def _hashmix(value, xor, mul):
    value = value ^ xor
    value *= mul
    value ^= value >> _SHIFT
    return value


def _mix(l_x, r_y):
    """SeedSequence's mix(x, y), given l_x = _MIX_L * x and r_y = _MIX_R * y."""
    out = l_x - r_y
    out ^= out >> _SHIFT
    return out


@lru_cache(maxsize=16)
def _seed_pool(seed: int) -> np.ndarray:
    """_MIX_L times SeedSequence's (1, 4) entropy pool after the seed's words
    (padded with zeros to 4) and their cross mixes, the form in which the
    first spawn-key word meets it."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    pool = _hashmix(_u32([seed & _M32, seed >> 32, 0, 0]), _HASH_A[:4], _HASH_A[1:5])
    k = 4
    for src in range(4):
        for dst in range(4):
            if dst != src:
                hashed = _hashmix(pool[src : src + 1], _HASH_A[k : k + 1], _HASH_A[k + 1 : k + 2])
                pool[dst : dst + 1] = _mix(_MIX_L * pool[dst : dst + 1], _MIX_R * hashed)
                k += 1
    pool = _MIX_L * pool[None]
    pool.flags.writeable = False
    return pool


def _pcg64_states(seed: int, indices, channels) -> list[dict]:
    """The PCG64 states that ``default_rng(SeedSequence(seed,
    spawn_key=(index, channel)))`` starts from, channel-major over
    ``channels`` x ``indices``, hashed in one pass."""
    if len(indices):
        low, high = min(indices), max(indices)
        if low < 0 or high >= 2**64:
            raise ValueError(f"sample indices must be in [0, 2**64), got {low if low < 0 else high}")
    # (4, N): three spawn-key words per row, then whether the index takes two
    # words; a one-word index makes the channel its second word, and its
    # third round is computed but not kept
    words = _u32(
        [(index & _M32, index >> 32 or c, c, index >> 32 != 0) for c in channels for index in indices]
    ).T
    r_spawn = _MIX_R * _hashmix(words[:3, :, None], _SPAWN_XOR, _SPAWN_MUL)
    pool = _mix(_seed_pool(int(seed)), r_spawn[0])
    pool = _mix(_MIX_L * pool, r_spawn[1])
    pool = np.where(words[3, :, None], _mix(_MIX_L * pool, r_spawn[2]), pool)
    out = _hashmix(pool[:, None], _OUT_XOR, _OUT_MUL).reshape(-1, 8).view("<u8")
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in out.tolist():
        # PCG64's seeding: inc = 2 initseq + 1, two LCG steps around initstate
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _M128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _M128
        states.append({
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0,
        })
    return states


def _generator() -> np.random.Generator:
    """This thread's generator; callers set its state before every draw."""
    gen = getattr(_thread, "generator", None)
    if gen is None:
        gen = _thread.generator = np.random.Generator(np.random.PCG64(0))
    return gen


def _normals(seed: int, indices, draws) -> list[np.ndarray]:
    """For each (channel, shape) of ``draws`` a (B, *shape) stack whose row b
    is one standard_normal call on stream v1 at (seed, indices[b], channel)."""
    states = iter(_pcg64_states(seed, indices, [channel for channel, _ in draws]))
    gen = _generator()
    bit_generator = gen.bit_generator
    stacks = []
    for _, shape in draws:
        stack = np.empty((len(indices), *shape))
        for row in stack:
            bit_generator.state = next(states)
            gen.standard_normal(out=row)
        stacks.append(stack)
    return stacks


def _hermitian(z) -> np.ndarray:
    # z: (..., 1 | 2, d, d) normals, one plane for real draws, re/im for complex
    m = z[..., 0, :, :] if z.shape[-3] == 1 else z[..., 0, :, :] + 1j * z[..., 1, :, :]
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
    g = z[:, 0] if z.shape[1] == 1 else z[:, 0] + 1j * z[:, 1]
    # g.conj() is g itself for real draws, so matmul sees g @ g.T as before
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


def _observable_draw(spec: RandomSpec, count: int) -> tuple:
    """(channel, shape) of one sample's ``count`` observables' normals."""
    if count < 1:
        raise ValueError("count must be positive")
    dim = spec.dim
    if spec.ensemble == "pauli-like-structured":
        if count != 3:
            raise ValueError("the structured ensemble draws exactly 3 observables")
        return OBSERVABLE_CHANNEL, (4 * dim * dim + dim,)
    return OBSERVABLE_CHANNEL, (count, _planes(spec), dim, dim)


def _observables(spec: RandomSpec, z, count: int) -> tuple[np.ndarray, ...]:
    """``count`` exactly self-adjoint (B, d, d) observable stacks from their
    normals, one per slot.

    For pauli-like-structured the slots hold the (A, B, C) triple: A an
    arbitrary complex Hermitian matrix, B Hermitian with zero diagonal, C real
    diagonal.
    """
    dim = spec.dim
    if spec.ensemble == "pauli-like-structured":
        diag = np.arange(dim), np.arange(dim)
        pair = z[:, : 4 * dim * dim].reshape(-1, 2, 2, dim, dim)
        a, b = _hermitian(pair).swapaxes(0, 1)
        b[:, diag[0], diag[1]] = 0.0
        c = np.zeros_like(b, dtype=np.float64)
        c[:, diag[0], diag[1]] = z[:, 4 * dim * dim :]
        return (a, b, c)
    return tuple(_hermitian(z).swapaxes(0, 1))


def draw_samples(spec: RandomSpec, indices, count: int):
    """The samples at ``indices``: validated (matrix, eigenvalues,
    eigenvectors) state stacks, as matrices.density_stack returns them, and
    ``count`` observable stacks (see _observables).  Both channels are seeded
    in one pass; a failed state check names the sample index."""
    z_state, z_obs = _normals(spec.seed, indices, (_state_draw(spec), _observable_draw(spec, count)))
    try:
        states = density_stack(_state_matrices(spec, z_state))
    except (ValueError, DecompositionError) as exc:
        position = getattr(exc, "position", None)
        if position is None:
            raise
        raise type(exc)(f"sample {indices[position]}: {exc}") from exc
    return states, _observables(spec, z_obs, count)


def sample_state(spec: RandomSpec, index: int) -> DensityMatrix:
    """State draw for the ensemble's state stream (see _state_matrices)."""
    (z,) = _normals(spec.seed, [index], (_state_draw(spec),))
    return DensityMatrix(_state_matrices(spec, z)[0])


def sample_observables(spec: RandomSpec, index: int, count: int) -> tuple[np.ndarray, ...]:
    """Observable draws for one sample (see _observables)."""
    (z,) = _normals(spec.seed, [index], (_observable_draw(spec, count),))
    return tuple(stack[0] for stack in _observables(spec, z, count))


def sample_pure_state(seed: int, dim: int, index: int) -> DensityMatrix:
    """Rank-1 projector onto a normalized complex Gaussian vector (real parts
    first, then imaginary parts, from one call)."""
    (z,) = _normals(seed, [index], ((PURE_CHANNEL, (2 * dim,)),))
    v = z[0, :dim] + 1j * z[0, dim:]
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))
