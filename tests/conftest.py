"""Fixtures shared by the test modules."""
from __future__ import annotations

import concurrent.futures

import pytest

from uniquesub import census


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each pool the library's map asks for; the stand-in
    checks that the pool would fork, and maps in this process, so no pool
    starts."""
    created = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == "fork"
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return created


@pytest.fixture
def fresh_census():
    """An empty census memo, so that each level the test asks for is built;
    the levels built before the test are put back after it."""
    saved = dict(census._levels)
    census._census.cache_clear()
    yield
    census._census.cache_clear()
    census._levels.update(saved)
