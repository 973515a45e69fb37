"""Shared fixtures for the test suite."""

import types

import pytest

from qfivol import sampling, sweep


@pytest.fixture(autouse=True)
def no_kept_worker_pool():
    """Each test starts and ends without a kept sweep worker pool: kept
    workers snapshot module state at fork time, so one test's pool must not
    serve the next (e.g. one that patches np.linalg.eigh for its workers)."""
    sweep._close_pool()
    yield
    sweep._close_pool()


class _NoNormals:
    """Stands in for sampling's per-thread Philox generator: setting its
    state is allowed, drawing a normal fails the test."""

    def __init__(self):
        self.bit_generator = types.SimpleNamespace()

    def standard_normal(self, *args, **kwargs):
        raise AssertionError("a normal was drawn before the inputs were checked")


@pytest.fixture
def no_normals(monkeypatch):
    """Any normal drawn in this thread raises AssertionError, so a test can
    show that a check fails before anything is drawn."""
    monkeypatch.setattr(sampling._thread, "generator", _NoNormals(), raising=False)
