"""Shared fixtures for the test suite."""

import pytest

from qfivol import sweep


@pytest.fixture(autouse=True)
def no_kept_worker_pool():
    """Each test starts and ends without a kept sweep worker pool: kept
    workers snapshot module state at fork time, so one test's pool must not
    serve the next (e.g. one that patches np.linalg.eigh for its workers)."""
    sweep._close_pool()
    yield
    sweep._close_pool()
