"""Determinism and structural guarantees of the random ensembles."""

import json
import sys
import threading

import numpy as np
import pytest

from qfivol import (
    DensityMatrix,
    RandomSpec,
    builtin,
    sampling,
    sweep,
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
        (rho, _, _), obs = sampling.draw_samples(spec, 2, 8, 3)
        for row, index in enumerate(range(2, 10)):
            assert rho[row].tobytes() == sample_state(spec, index).matrix.tobytes()
            singles = sample_observables(spec, index, 3)
            if ensemble == "pauli-like-structured":  # C comes back real
                singles = (*singles[:2], singles[2].astype(complex))
            assert obs[row].tobytes() == np.stack(singles).tobytes()


def test_draw_samples_refuses_a_bool_index():
    """True would draw sample 1."""
    with pytest.raises(ValueError) as info:
        sampling.draw_samples(RandomSpec(3, 3, "density"), True, 1, 1)
    assert str(info.value) == "index must be an integer, got True"


@pytest.mark.parametrize("bad", [True, 1.5, np.True_, "1"])
def test_draw_samples_checks_every_index(no_normals, bad):
    """A run's start is checked as given, whatever its size: True would
    draw from sample 1, and 1.5 names no sample."""
    with pytest.raises(ValueError) as info:
        sampling.draw_samples(RandomSpec(3, 3, "density"), bad, 3, 2)
    assert str(info.value) == f"index must be an integer, got {bad!r}"


@pytest.mark.parametrize(
    "draw",
    [lambda spec: sampling.draw_samples(spec, 0, 1, 9),
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
        sampling.draw_samples(RandomSpec(3, 3, "density"), 0, 1, 2)


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
     lambda count: sampling.draw_samples(RandomSpec(3, 3, "density"), 0, 2, count),
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
        (0, 1), (7, 1), (8, 1), (2**64 - 1, 1),
        # runs that start in the middle of a block
        (3, 7), (13, 9), (5, 64), (2**40 + 3, 257), (2**64 - 259, 257),
    ],
)
def test_normals_match_philox_blocks(indices):
    """A (start, size) run's row b is the oracle's row of sample start + b."""
    start, size = indices
    for seed in (0, 1, 2**32, 2**64 - 1):
        stacks = sampling._normals(RandomSpec(seed, 2, "density"), start, size, DRAWS)
        for (channel, shape), stack in zip(DRAWS, stacks):
            expected = np.stack([_row(seed, index, channel, shape) for index in range(start, start + size)])
            assert stack.tobytes() == expected.tobytes()


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
        (3, 7),  # starts mid-block
        (5, 1), (0, 1), (2**64 - 1, 1),  # one element
        (8, 8), (3, 21),  # end on a block edge
        (2**63 - 2, 3),  # across 2**63
        (2**64 - 259, 259),  # up to 2**64 - 1
    ],
)
def test_a_range_draws_the_bytes_of_its_list(indices):
    """A (start, size) run's two-end check and one slice give the stacks,
    shapes and dtypes that the per-index oracle gives the list of its
    indices."""
    start, size = indices
    for seed in (0, 2**64 - 1):
        stacks = sampling._normals(RandomSpec(seed, 2, "density"), start, size, DRAWS)
        for (channel, shape), stack in zip(DRAWS, stacks):
            listed = np.stack([_row(seed, index, channel, shape) for index in range(start, start + size)])
            assert stack.shape == listed.shape and stack.dtype == listed.dtype
            assert stack.tobytes() == listed.tobytes()


@pytest.mark.parametrize(
    "indices, bad",
    [((2**64 - 3, 4), 2**64), ((2**64 - 3, 12), 2**64), ((-1, 5), -1), ((-9, 8), -9)],
)
def test_a_range_out_of_uint64_is_refused_before_drawing(no_normals, indices, bad):
    """A (start, size) run is refused with the message its first bad index
    gives: its start, or 2**64 for a run past 2**64 - 1."""
    with pytest.raises(ValueError) as info:
        sampling.draw_samples(RandomSpec(3, 3, "density"), *indices, 2)
    assert str(info.value) == f"index must be in 0..18446744073709551615, got {bad}"


def test_a_range_too_long_to_list_is_refused_at_its_end(no_normals):
    """Its first index out of range is 2**64, whatever its length."""
    with pytest.raises(ValueError) as info:
        sampling.draw_samples(RandomSpec(3, 3, "density"), 5, 2**70 - 5, 2)
    assert str(info.value) == "index must be in 0..18446744073709551615, got 18446744073709551616"


@pytest.mark.parametrize("index", [-1, 2**64])
def test_index_outside_uint64_raises(index):
    spec = RandomSpec(3, 3, "density")
    with pytest.raises(ValueError, match=r"index must be in 0\.\.18446744073709551615"):
        sample_state(spec, index)
    with pytest.raises(ValueError, match=r"index must be in 0\.\.18446744073709551615"):
        sampling.draw_samples(spec, min(index, 2**64 - 1), 2, 1)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_pure_state_seed_outside_uint64_raises(seed):
    with pytest.raises(ValueError, match="seed"):
        sample_pure_state(seed, 3, 0)


def test_threads_draw_the_serial_bytes():
    """Each thread keeps its own generator, so concurrent draws of different
    seeds and indices give exactly the serial bytes."""
    jobs = [(RandomSpec(seed, 4, "density"), seed * 2**32, 9) for seed in range(1, 5)]

    def draw(spec, start, size):
        (rho, _, _), observables = sampling.draw_samples(spec, start, size, 2)
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


def _replay_index(tmp_path, index):
    """replay_record on a one-line file whose record's index is ``index``."""
    record = {"seed": 3, "ensemble": "density", "dim": 2, "n": 2, "function": "wy", "index": 0}
    line = json.loads(sweep.format_record(record))
    line["index"] = index
    path = tmp_path / "record.jsonl"
    path.write_text(json.dumps(line) + "\n")
    return lambda: sweep.replay_record(path, 1)


# every entry but replay that draws from a sample index, as a callable of that index
INDEX_ENTRIES = {
    "evaluate-sample": lambda index: sweep.evaluate_sample(RandomSpec(3, 2, "density"), index, 2, (builtin("wy"),)),
    "state": lambda index: sample_state(RandomSpec(3, 3, "density"), index),
    "observables": lambda index: sample_observables(RandomSpec(3, 3, "density"), index, 2),
    "pure-state": lambda index: sample_pure_state(3, 3, index),
    "draw-samples": lambda index: sampling.draw_samples(RandomSpec(3, 3, "density"), index, 4, 2),
}


@pytest.mark.parametrize(
    "index, message",
    [(True, "index must be an integer, got True"),
     (2.0, "index must be an integer, got 2.0"),
     ("1", "index must be an integer, got '1'"),
     (-1, "index must be in 0..18446744073709551615, got -1"),
     (2**64, "index must be in 0..18446744073709551615, got 18446744073709551616")],
    ids=["bool", "float", "string", "negative", "2**64"],
)
@pytest.mark.parametrize("entry", sorted([*INDEX_ENTRIES, "replay"]))
def test_every_index_entry_refuses_a_bad_start_before_drawing(tmp_path, request, entry, index, message):
    """One message per bad index whichever entry it reaches, and no normal
    drawn first; replay prefixes the record's line number."""
    draw = _replay_index(tmp_path, index) if entry == "replay" else lambda: INDEX_ENTRIES[entry](index)
    request.getfixturevalue("no_normals")
    with pytest.raises(ValueError) as info:
        draw()
    assert str(info.value) == (f"line 1: {message}" if entry == "replay" else message)


def test_every_draw_is_one_run(tmp_path, monkeypatch):
    """Sweep chunks, replay, evaluate_sample and the three single-sample
    draws each reach _normals with one (start, size) run: a chunk's kernel
    calls with theirs, every other entry with its one sample."""
    runs = []
    normals = sampling._normals

    def spy(spec, start, size, draws):
        runs.append((start, size))
        return normals(spec, start, size, draws)

    monkeypatch.setattr(sampling, "_normals", spy)
    out = tmp_path / "out.jsonl"
    # one function: a 256-sample chunk is one kernel call, then 44 samples
    sweep.run_sweep(sweep.SweepConfig(3, 3, 300, ("wy",), "complex", 7), out)
    assert runs == [(0, 256), (256, 44)]
    for run, draw in [
        ((6, 1), lambda: sweep.replay_record(out, 7)),
        ((9, 1), lambda: sweep.evaluate_sample(RandomSpec(7, 3, "complex"), 9, 3, (builtin("wy"),))),
        ((3, 1), lambda: sample_state(RandomSpec(7, 3, "complex"), 3)),
        ((4, 1), lambda: sample_observables(RandomSpec(7, 3, "complex"), 4, 2)),
        ((2**64 - 1, 1), lambda: sample_pure_state(7, 3, 2**64 - 1)),
    ]:
        runs.clear()
        draw()
        assert runs == [run]
