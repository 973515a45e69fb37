"""Golden digests of every output array of the kernel.

For each (ensemble, dim, n) of the grid below, volumes.coordinate_batch
evaluates the draw_samples output at indices 0..B-1 (seed 11) for B in
KERNEL_BATCHES and the first F functions of FUNCTIONS for F in
FUNCTION_COUNTS.  Each BatchReport field is hashed (dtype, shape and bytes)
over all six (B, F) calls, so a change that moves any bit of any field is
caught and named field by field, not only through the record files.

The digests pin the one kernel that sweeps write records with and replay
recomputes them through, bit for bit, so a change that moves its bits is a
record-format change: it bumps the record version beside these digests and
the sweep digests.  They belong to one numpy/BLAS build, as the sweep
digests do; on another build, or with a new record version, they are
regenerated, with

    PYTHONPATH=src python tests/test_kernel_digests.py
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qfivol import RandomSpec, builtin
from qfivol.sampling import draw_samples
from qfivol.volumes import BatchReport, coordinate_batch

DIGESTS = Path(__file__).resolve().parent / "data" / "kernel_digests.json"

SEED = 11
DIMS = (2, 3, 7, 8)
COUNTS = (1, 2, 3, 4, 8)
KERNEL_BATCHES = (1, 64)
FUNCTIONS = ("sld", "wy", "wyd:0.25", "wyd:0.05", "wyd:0.1", "wyd:0.4")
FUNCTION_COUNTS = (1, 3, 6)

CASES = [
    (ensemble, dim, n)
    for ensemble in ("complex", "real", "structured")
    for dim in DIMS
    for n in (COUNTS if ensemble != "structured" else (3,))
]
FIELDS = [field.name for field in dataclasses.fields(BatchReport)]


def _key(ensemble, dim, n):
    return f"{ensemble} d{dim} n{n}"


def kernel_digests(ensemble, dim, n) -> dict:
    """Per BatchReport field, a sha256 prefix over the six (B, F) calls."""
    rspec = RandomSpec(SEED, dim, ensemble)
    hashes = {name: hashlib.sha256() for name in FIELDS}
    for batch in KERNEL_BATCHES:
        for count in FUNCTION_COUNTS:
            functions = tuple(builtin(fid) for fid in FUNCTIONS[:count])
            (rho, lam, vectors), observables = draw_samples(rspec, range(batch), n)
            out = coordinate_batch(rho, lam, vectors, observables, functions)
            for name in FIELDS:
                value = getattr(out, name)
                if isinstance(value, np.ndarray):
                    data = f"{value.dtype.str}{value.shape}".encode()
                    data += np.ascontiguousarray(value).tobytes()
                else:
                    data = repr(value).encode()
                hashes[name].update(data)
    return {name: h.hexdigest()[:16] for name, h in hashes.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text())


def test_digest_file_covers_the_grid(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(map(str, case)))
def test_kernel_output_matches_golden_digests(golden, case):
    fresh = kernel_digests(*case)
    changed = [name for name in FIELDS if fresh[name] != golden[_key(*case)][name]]
    assert not changed, f"kernel output changed in {changed}"


if __name__ == "__main__":
    table = {_key(*case): kernel_digests(*case) for case in CASES}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {DIGESTS}")
