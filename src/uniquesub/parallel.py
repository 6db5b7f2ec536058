"""The one worker map behind every split computation.

A work unit is a picklable function of one item whose result depends on
that item alone, so a map's results, taken in item order, are the same at
any worker count: a module-level function, or a ``functools.partial`` of one
that binds a run's shared arguments (a host, a seed) ahead of the item.  The
pool forks, so workers inherit every module the caller loaded before the
map, and nothing it loads after: a caller can import what only it needs
while the workers run.  The map itself imports nothing the units do not
need.
"""
from __future__ import annotations

import os
from typing import Any, Callable, Iterator, Sequence


def parallel_map(fn: Callable[[Any], Any], items: Sequence[Any],
                 threads: int | None = None) -> Iterator[Any]:
    """Iterate ``fn(x)`` for each item in order, on at most ``threads`` workers
    (default: all cores), no more than there are cores, and each given at
    least four items; with one worker or fewer it maps in this process, as
    the iterator is drawn.  A pool's workers are forked and every unit is
    submitted before this returns; the iterator shuts the pool down once
    drained."""
    cores = os.cpu_count() or 1
    workers = min(cores if threads is None else threads, cores, len(items) // 4)
    if workers <= 1:
        return map(fn, items)
    # Deferred: multiprocessing costs every command about 27 ms of start-up.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # Fork explicitly: some platforms and Python versions default to spawn
    # or forkserver, whose workers would re-import what the caller loaded.
    pool = ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context("fork"))
    return _drain(pool, pool.map(fn, items, chunksize=max(1, len(items) // (workers * 4))))


def _drain(pool: Any, results: Iterator[Any]) -> Iterator[Any]:
    """``results`` in order; ``pool`` is shut down once they are drained or
    the iterator is closed."""
    with pool:
        yield from results
