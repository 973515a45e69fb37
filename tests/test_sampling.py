"""Determinism and structural guarantees of the random ensembles."""

import sys
import threading

import numpy as np
import pytest

from qfivol import (
    DensityMatrix,
    RandomSpec,
    sampling,
)
from qfivol.sampling import sample_observables, sample_pure_state, sample_state
from qfivol import repro

# (channel, shape) of one sample's draws on the state, observable and pure channels
DRAWS = ((0, (2, 3, 3)), (1, (5,)), (2, (1, 4)))


def _block_oracle(seed, block, channel):
    """The stream as defined: a freshly built Philox at the block's counter."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, block, channel]))


def _row(seed, index, channel, shape):
    block = _block_oracle(seed, index // 8, channel).standard_normal((8, *shape))
    return block[index % 8]


def test_randomspec_validation():
    with pytest.raises(ValueError, match="unknown ensemble"):
        RandomSpec(1, 3, "bogus")
    with pytest.raises(ValueError, match="dim"):
        RandomSpec(1, 1, "density")
    with pytest.raises(ValueError, match="dim"):
        RandomSpec(1, 9, "density")
    with pytest.raises(ValueError, match="seed"):
        RandomSpec(-1, 3, "density")


@pytest.mark.parametrize(
    "args,message",
    [(("n", 3.0), "n must be an integer, got 3.0"),
     (("n", True), "n must be an integer, got True"),
     (("n", np.True_), "n must be an integer, got np.True_"),
     (("n", "3"), "n must be an integer, got '3'"),
     (("draws", 0, 1), "draws must be at least 1, got 0"),
     (("dim", 9, 2, 8), "dim must be in 2..8, got 9"),
     (("seed", np.int64(-1), 0, 2**64 - 1), "seed must be in 0..18446744073709551615, got -1")],
)
def test_as_integer_names_the_field(args, message):
    with pytest.raises(ValueError) as info:
        sampling.as_integer(*args)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "seed,dim,ensemble,field",
    [(3.7, 3, "complex", "seed"), (True, 3, "complex", "seed"), ("7", 3, "complex", "seed"),
     (3, 2.5, "complex", "dim"), (3, 3, 5, "ensemble")],
)
def test_randomspec_rejects_mistyped_fields(seed, dim, ensemble, field):
    """int() of a float, bool or string seed names another seed's stream."""
    with pytest.raises(ValueError, match=f"^{field} must be "):
        RandomSpec(seed, dim, ensemble)


def test_randomspec_takes_numpy_integers():
    spec = RandomSpec(np.uint64(2**64 - 1), np.int64(3), "complex")
    assert type(spec.seed) is int and type(spec.dim) is int
    plain = RandomSpec(2**64 - 1, 3, "complex")
    assert spec == plain
    assert sample_state(spec, 5).matrix.tobytes() == sample_state(plain, 5).matrix.tobytes()
    assert all(
        a.tobytes() == b.tobytes()
        for a, b in zip(sample_observables(spec, 5, 2), sample_observables(plain, 5, 2))
    )


@pytest.mark.parametrize("index", [True, 1.0])
@pytest.mark.parametrize(
    "draw",
    [lambda index: sample_state(RandomSpec(3, 3, "density"), index),
     lambda index: sample_observables(RandomSpec(3, 3, "density"), index, 2),
     lambda index: sample_pure_state(3, 3, index)],
    ids=["state", "observables", "pure-state"],
)
def test_single_draws_reject_non_integer_index(draw, index):
    """True would draw index 1, and 1.0 names no stream position."""
    with pytest.raises(ValueError) as info:
        draw(index)
    assert str(info.value) == f"index must be an integer, got {index!r}"


@pytest.mark.parametrize("index", [-1, 2**64])
@pytest.mark.parametrize(
    "draw",
    [lambda index: sample_state(RandomSpec(3, 3, "density"), index),
     lambda index: sample_observables(RandomSpec(3, 3, "density"), index, 2),
     lambda index: sample_pure_state(3, 3, index)],
    ids=["state", "observables", "pure-state"],
)
def test_single_draws_check_index_range_as_evaluate_sample_does(draw, index):
    """One index rule and one message for every single-sample entry."""
    with pytest.raises(ValueError) as info:
        draw(index)
    assert str(info.value) == f"index must be in 0..18446744073709551615, got {index}"


def test_a_spec_names_the_stream_of_every_draw():
    """draw_samples, sample_state and sample_observables all draw the one
    stream a spec names: the same bytes per index."""
    for ensemble in ("density", "real-density", "pauli-like-structured"):
        spec = RandomSpec(7, 3, ensemble)
        (rho, _, _), obs = sampling.draw_samples(spec, [2, 9], 3)
        for row, index in enumerate((2, 9)):
            assert rho[row].tobytes() == sample_state(spec, index).matrix.tobytes()
            singles = sample_observables(spec, index, 3)
            if ensemble == "pauli-like-structured":  # C comes back real
                singles = (*singles[:2], singles[2].astype(complex))
            assert obs[row].tobytes() == np.stack(singles).tobytes()


def test_draw_samples_refuses_a_bool_index():
    """True would draw sample 1."""
    with pytest.raises(ValueError) as info:
        sampling.draw_samples(RandomSpec(3, 3, "density"), [True], 1)
    assert str(info.value) == "index must be an integer, got True"


@pytest.mark.parametrize("bad", [True, 1.5, np.True_, "1"])
def test_draw_samples_checks_every_index(no_normals, bad):
    """An index strictly inside a batch's range is checked too: True would
    draw sample 1, and 1.5 would escape as numpy's IndexError."""
    with pytest.raises(ValueError) as info:
        sampling.draw_samples(RandomSpec(3, 3, "density"), [0, bad, 2], 2)
    assert str(info.value) == f"index must be an integer, got {bad!r}"


@pytest.mark.parametrize(
    "draw",
    [lambda spec: sampling.draw_samples(spec, [0], 9),
     lambda spec: sample_observables(spec, 0, 9)],
    ids=["draw-samples", "observables"],
)
def test_observable_count_above_eight_is_refused_before_drawing(no_normals, draw):
    with pytest.raises(ValueError) as info:
        draw(RandomSpec(3, 3, "density"))
    assert str(info.value) == "n must be in 1..8, got 9"


def test_no_normals_fixture_catches_a_draw(no_normals):
    """The fixture the before-drawing tests lean on does catch a draw."""
    with pytest.raises(AssertionError, match="normal was drawn"):
        sampling.draw_samples(RandomSpec(3, 3, "density"), [0], 2)


def _observable(spec, index):
    return sample_observables(spec, index, 1)[0]


def test_same_index_is_bit_identical():
    spec = RandomSpec(1, 4, "density")
    assert np.array_equal(_observable(spec, 0), _observable(spec, 0))
    dspec = RandomSpec(1, 4, "density")
    assert np.array_equal(sample_state(dspec, 5).matrix, sample_state(dspec, 5).matrix)


def test_distinct_indices_and_seeds_differ():
    spec = RandomSpec(1, 3, "density")
    other_seed = RandomSpec(2, 3, "density")
    assert not np.array_equal(_observable(spec, 0), _observable(spec, 1))
    assert not np.array_equal(_observable(spec, 0), _observable(other_seed, 0))


def test_retired_tags_resolve_to_their_base_streams():
    """The retired complex-hermitian and real-symmetric tags resolve to no
    stream any more: a spec refuses them.  The CLI names still resolve."""
    for tag in ("complex-hermitian", "real-symmetric"):
        with pytest.raises(ValueError, match=f"unknown ensemble '{tag}'"):
            RandomSpec(1, 3, tag)
    assert RandomSpec(1, 3, "Structured").ensemble == "pauli-like-structured"


def test_state_stream_independent_of_observable_count():
    """Drawing more observables must not shift the state channel."""
    spec = RandomSpec(9, 3, "density")
    before = sample_state(spec, 2)
    sample_observables(spec, 2, 3)
    after = sample_state(spec, 2)
    assert np.array_equal(before.matrix, after.matrix)


def test_hermitian_ensembles_shapes_and_symmetry():
    spec = RandomSpec(4, 5, "density")
    a = _observable(spec, 0)
    assert a.shape == (5, 5)
    assert np.array_equal(a, a.conj().T)
    rspec = RandomSpec(4, 5, "real-density")
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
    with pytest.raises(ValueError, match="requires n = 3"):
        sample_observables(spec, 0, 2)


def test_observable_count_validation():
    spec = RandomSpec(5, 3, "density")
    with pytest.raises(ValueError, match="in 1..8"):
        sample_observables(spec, 0, 0)


@pytest.mark.parametrize("count", [2.0, True, np.True_, "2"])
@pytest.mark.parametrize(
    "draw",
    [lambda count: sample_observables(RandomSpec(3, 3, "density"), 0, count),
     lambda count: sampling.draw_samples(RandomSpec(3, 3, "density"), [0, 1], count),
     lambda count: repro.pure_volume_rows(3, count, 1)],
    ids=["observables", "draw-samples", "pure-volume"],
)
def test_observable_counts_pass_as_integer(draw, count):
    """2.0 and True name no count; numpy's TypeError would not name the field."""
    with pytest.raises(ValueError) as info:
        draw(count)
    assert str(info.value) == f"n must be an integer, got {count!r}"


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


@pytest.mark.parametrize(
    "indices",
    [
        # block edges, one sample each
        [0], [7], [8], [2**64 - 1],
        # batches that start in the middle of a block
        range(3, 10), range(13, 22), range(5, 69), range(2**40 + 3, 2**40 + 260),
        range(2**64 - 259, 2**64 - 2),
        # out of order, with a repeat
        [70, 9, 2, 9, 2**33 + 1],
    ],
)
def test_normals_match_philox_blocks(indices):
    for seed in (0, 1, 2**32, 2**64 - 1):
        stacks = sampling._normals(RandomSpec(seed, 2, "density"), indices, DRAWS)
        for (channel, shape), stack in zip(DRAWS, stacks):
            expected = np.stack([_row(seed, index, channel, shape) for index in indices])
            assert stack.tobytes() == expected.tobytes()


@pytest.mark.parametrize("ensemble, n", [("density", 2), ("real-density", 4), ("pauli-like-structured", 3)])
def test_an_empty_batch_draws_empty_stacks_on_both_streams(ensemble, n):
    """No index gives (0, ...) stacks on both the state and the observable
    stream, with the shapes and dtypes of a one-sample draw."""
    one = sampling.draw_samples(RandomSpec(5, 3, ensemble), [0], n)
    (rho, lam, vectors), obs = sampling.draw_samples(RandomSpec(5, 3, ensemble), [], n)
    for empty, single in zip((rho, lam, vectors, obs), (*one[0], one[1])):
        assert empty.shape == (0, *single.shape[1:]) and empty.dtype == single.dtype


def test_pure_state_matches_two_oracle_calls():
    """The pure channel's one call of 2 dim normals per sample gives the
    values of two calls of dim normals at the sample's row of its block."""
    for seed in (0, 11, 2**64 - 1):
        for index in (0, 7, 2**33 + 5):
            rng = _block_oracle(seed, index // 8, sampling.PURE_CHANNEL)
            rng.standard_normal((index % 8, 8))
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            expected = DensityMatrix(np.outer(v, v.conj())).matrix
            assert sample_pure_state(seed, 4, index).matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "indices",
    [
        range(3, 10),  # starts mid-block
        range(5, 6), range(0, 1), range(2**64 - 1, 2**64),  # one element
        range(8, 16), range(3, 24),  # end on a block edge
        range(2**63 - 2, 2**63 + 1),  # across 2**63
        range(2**64 - 259, 2**64),  # up to 2**64 - 1
    ],
)
def test_a_range_draws_the_bytes_of_its_list(indices):
    """A range's two-end check and one slice give the stacks that the
    index-by-index path gives the same indices as a list."""
    for seed in (0, 2**64 - 1):
        spec = RandomSpec(seed, 2, "density")
        ranged = sampling._normals(spec, indices, DRAWS)
        listed = sampling._normals(spec, list(indices), DRAWS)
        for a, b in zip(ranged, listed):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "indices, bad",
    [(range(2**64 - 3, 2**64 + 1), 2**64), (range(2**64 - 3, 2**64 + 9), 2**64),
     (range(-1, 4), -1), (range(-9, -1), -9)],
)
def test_a_range_out_of_uint64_is_refused_before_drawing(no_normals, indices, bad):
    """The message is the one the first bad index of the same list gives."""
    spec = RandomSpec(3, 3, "density")
    message = f"index must be in 0..18446744073709551615, got {bad}"
    for batch in (indices, list(indices)):
        with pytest.raises(ValueError) as info:
            sampling.draw_samples(spec, batch, 2)
        assert str(info.value) == message


def test_a_range_too_long_to_list_is_refused_at_its_end(no_normals):
    """Its first index out of range is 2**64, whatever its length."""
    with pytest.raises(ValueError) as info:
        sampling.draw_samples(RandomSpec(3, 3, "density"), range(5, 2**70), 2)
    assert str(info.value) == "index must be in 0..18446744073709551615, got 18446744073709551616"


def test_a_range_of_another_step_is_checked_index_by_index():
    spec = RandomSpec(3, 2, "density")
    for indices in (range(9, 2, -2), range(2**64 - 1, 2**64 - 20, -3)):
        ranged = sampling._normals(spec, indices, DRAWS)
        listed = sampling._normals(spec, list(indices), DRAWS)
        assert [a.tobytes() for a in ranged] == [b.tobytes() for b in listed]


@pytest.mark.parametrize("index", [-1, 2**64])
def test_index_outside_uint64_raises(index):
    spec = RandomSpec(3, 3, "density")
    with pytest.raises(ValueError, match=r"index must be in 0\.\.18446744073709551615"):
        sample_state(spec, index)
    with pytest.raises(ValueError, match=r"index must be in 0\.\.18446744073709551615"):
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
