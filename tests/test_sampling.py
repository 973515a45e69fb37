"""Determinism and structural guarantees of the random ensembles."""

import sys
import threading

import numpy as np
import pytest

from qfivol import (
    DensityMatrix,
    RandomSpec,
    sample_observables,
    sample_pure_state,
    sample_state,
    sampling,
)

# stream v1 at its word boundaries: one- and two-word seeds and indices
STREAM_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
STREAM_INDICES = (0, 1, 2**32 - 1, 2**32, 2**40, 2**64 - 1)


def _oracle(seed, index, channel):
    """Stream v1 as defined: numpy's own SeedSequence and default_rng."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index, channel)))


def test_randomspec_validation():
    with pytest.raises(ValueError, match="unknown ensemble"):
        RandomSpec(1, 3, "bogus")
    with pytest.raises(ValueError, match="dim"):
        RandomSpec(1, 1, "density")
    with pytest.raises(ValueError, match="dim"):
        RandomSpec(1, 9, "density")
    with pytest.raises(ValueError, match="seed"):
        RandomSpec(-1, 3, "density")


def _observable(spec, index):
    return sample_observables(spec, index, 1)[0]


def test_same_index_is_bit_identical():
    spec = RandomSpec(1, 4, "complex-hermitian")
    assert np.array_equal(_observable(spec, 0), _observable(spec, 0))
    dspec = RandomSpec(1, 4, "density")
    assert np.array_equal(sample_state(dspec, 5).matrix, sample_state(dspec, 5).matrix)


def test_distinct_indices_and_seeds_differ():
    spec = RandomSpec(1, 3, "complex-hermitian")
    other_seed = RandomSpec(2, 3, "complex-hermitian")
    assert not np.array_equal(_observable(spec, 0), _observable(spec, 1))
    assert not np.array_equal(_observable(spec, 0), _observable(other_seed, 0))


def test_retired_tags_resolve_to_their_base_streams():
    assert RandomSpec(1, 3, "complex-hermitian") == RandomSpec(1, 3, "density")
    assert RandomSpec(1, 3, "real-symmetric").ensemble == "real-density"
    assert RandomSpec(1, 3, "Structured").ensemble == "pauli-like-structured"


def test_state_stream_independent_of_observable_count():
    """Drawing more observables must not shift the state channel."""
    spec = RandomSpec(9, 3, "density")
    before = sample_state(spec, 2)
    sample_observables(spec, 2, 3)
    after = sample_state(spec, 2)
    assert np.array_equal(before.matrix, after.matrix)


def test_hermitian_ensembles_shapes_and_symmetry():
    spec = RandomSpec(4, 5, "complex-hermitian")
    a = _observable(spec, 0)
    assert a.shape == (5, 5)
    assert np.array_equal(a, a.conj().T)
    rspec = RandomSpec(4, 5, "real-symmetric")
    b = _observable(rspec, 0)
    assert not np.iscomplexobj(b)
    assert np.array_equal(b, b.T)


def test_density_ensembles_are_faithful_states():
    for ensemble in ("density", "real-density"):
        spec = RandomSpec(8, 4, ensemble)
        state = sample_state(spec, 0)
        assert isinstance(state, DensityMatrix)
        assert abs(np.trace(state.matrix) - 1.0) <= 1e-12
        assert state.faithful
        assert state.eigenvalues[-1] > 0.0


def test_structured_ensemble_shapes():
    spec = RandomSpec(5, 2, "pauli-like-structured")
    state = sample_state(spec, 0)
    # diagonal faithful state
    assert np.array_equal(state.matrix, np.diag(np.diag(state.matrix)))
    assert state.faithful
    a, b, c = sample_observables(spec, 0, 3)
    assert np.max(np.abs(np.diag(b))) == 0.0
    assert np.array_equal(c, np.diag(np.diag(c)))
    assert np.isrealobj(c)
    assert np.array_equal(a, a.conj().T)


def test_structured_ensemble_requires_three_observables():
    spec = RandomSpec(5, 3, "pauli-like-structured")
    with pytest.raises(ValueError, match="exactly 3"):
        sample_observables(spec, 0, 2)


def test_observable_count_validation():
    spec = RandomSpec(5, 3, "density")
    with pytest.raises(ValueError, match="positive"):
        sample_observables(spec, 0, 0)


def test_pure_state_is_rank_one_projector():
    state = sample_pure_state(11, 4, 0)
    assert abs(np.trace(state.matrix) - 1.0) <= 1e-12
    assert not state.faithful
    assert state.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(state.eigenvalues[1:])) == 0.0
    # projector property
    sq = state.matrix @ state.matrix
    assert np.max(np.abs(sq - state.matrix)) < 1e-12


def test_pure_state_stream_is_deterministic():
    first = sample_pure_state(11, 3, 7)
    second = sample_pure_state(11, 3, 7)
    assert np.array_equal(first.matrix, second.matrix)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_pcg64_states_match_seedsequence(seed):
    channels = (0, 1, 2)
    states = sampling._pcg64_states(seed, STREAM_INDICES, channels)
    expected = [
        _oracle(seed, index, c).bit_generator.state for c in channels for index in STREAM_INDICES
    ]
    assert states == expected


@pytest.mark.parametrize(
    "start,size",
    # the 7-sample batch mixes one-word and two-word indices
    [(2**64 - 1, 1), (2**32 - 3, 7), (0, 64), (2**40, 257)],
)
def test_normals_match_seedsequence_bytes(start, size):
    indices = range(start, start + size)
    draws = ((0, (2, 3, 3)), (1, (5,)), (2, (1, 4)))
    for seed in STREAM_SEEDS:
        stacks = sampling._normals(seed, indices, draws)
        for (channel, shape), stack in zip(draws, stacks):
            expected = np.stack(
                [_oracle(seed, index, channel).standard_normal(shape) for index in indices]
            )
            assert stack.tobytes() == expected.tobytes()


def test_pure_state_matches_two_oracle_calls():
    rng = _oracle(11, 2**33 + 5, sampling.PURE_CHANNEL)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    expected = DensityMatrix(np.outer(v, v.conj())).matrix
    assert sample_pure_state(11, 4, 2**33 + 5).matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize("index", [-1, 2**64])
def test_index_outside_uint64_raises(index):
    spec = RandomSpec(3, 3, "density")
    with pytest.raises(ValueError, match="indices must be in"):
        sample_state(spec, index)
    with pytest.raises(ValueError, match="indices must be in"):
        sampling.draw_samples(spec, [0, index], 1)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_pure_state_seed_outside_uint64_raises(seed):
    with pytest.raises(ValueError, match="seed"):
        sample_pure_state(seed, 3, 0)


def test_threads_draw_the_serial_bytes():
    """Each thread keeps its own generator, so concurrent draws of different
    seeds and indices give exactly the serial bytes."""
    jobs = [
        (RandomSpec(seed, 4, "density"), range(seed * 2**32, seed * 2**32 + 9)) for seed in range(1, 5)
    ]

    def draw(spec, indices):
        (rho, _, _), observables = sampling.draw_samples(spec, indices, 2)
        return b"".join(a.tobytes() for a in (rho, *observables))

    serial = [draw(*job) for job in jobs]
    results = [[] for _ in jobs]
    barrier = threading.Barrier(len(jobs))

    def worker(k):
        barrier.wait(timeout=10)
        for _ in range(30):
            results[k].append(draw(*jobs[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for expected, got in zip(serial, results):
        assert got == [expected] * 30
