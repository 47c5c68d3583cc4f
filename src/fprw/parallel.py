"""Process-parallel map over independent tasks, sized by FPRW_THREADS; its
one user is `mc.simulate`, whose blocks of walks are independent.

FPRW_THREADS (default 1) is the number of worker processes asked for.  A value
that is not an integer of at least 1 is a configuration error.  The pool never
has more workers than CPUs or tasks; with one worker the tasks run in order in
this process.  Tasks must give the same result wherever they run, so the
worker count changes only the wall time.  Workers are spawned, not forked:
the parent may already run BLAS threads, and a forked child inherits none of
them but may inherit their locks held.
"""

from __future__ import annotations

import os

from .errors import ConfigError


def requested_threads() -> int:
    """FPRW_THREADS as a positive integer; 1 when unset."""
    raw = os.environ.get("FPRW_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"FPRW_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError(f"FPRW_THREADS must be at least 1, got {threads}")
    return threads


def worker_count(ntasks: int, threads: int) -> int:
    """Workers for `ntasks` tasks: min(threads, CPUs, tasks), at least 1."""
    return max(1, min(threads, os.cpu_count() or 1, ntasks))


def parallel_map(fn, tasks) -> list:
    """[fn(t) for t in tasks], spread over worker processes when asked for."""
    tasks = list(tasks)
    workers = worker_count(len(tasks), requested_threads())
    if workers == 1:
        return [fn(t) for t in tasks]
    # loaded only here: spawning the pool costs far more than the import, and
    # the one-worker path, the default, never needs them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, tasks))
