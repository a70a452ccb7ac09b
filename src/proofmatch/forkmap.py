"""A map over task indices on forked worker processes, shared by the grid's
rows (``evalharness.run_grid``) and the chunked corpus commands
(``match ingest`` and ``match replace``).

The workers are forked from the caller and inherit the task function and
everything it reads, which are not pickled: a task's index goes in and its
result comes back. Processes, not threads, since parsing, replacement and
pooled training hold the GIL. Where ``fork`` is not a start method, the
tasks run one after another in the calling process.
"""

from __future__ import annotations

from . import encoders
from .errors import ProofmatchError


class WorkerDied(ProofmatchError):
    """A worker process ended without returning its task's result."""


def processes(tasks: int) -> int:
    """The number of processes that run ``tasks`` tasks: one per usable
    core, never more than tasks. It is 1, the calling process, where
    ``fork`` is not a start method; fewer than 2 tasks import no
    ``multiprocessing``."""
    if tasks < 2:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(tasks, encoders._WORKERS)


# The task function that a worker process serves. It is set in the worker
# only, by the pool's initializer.
_task = None


def _serve(task) -> None:
    global _task
    _task = task


def _run_task(i: int):
    return _task(i)


def fork_map(task, n: int, worker: str, result: str) -> list:
    """``task(i)`` for i in 0..n-1, in order, on ``processes(n)`` forked
    worker processes. ``task`` and what it reads reach the workers as the
    initializer's argument, which a forked process inherits unpickled
    (pickling the benchmark's 553/186/184-pair train/dev/test split takes
    about 16 ms, and unpickling it 15 ms). Only the index goes to a worker
    and only the task's result comes back. The first task that raises, in
    index order, raises its error here. A worker that ends without
    returning raises ``WorkerDied``: "``worker`` process ended before
    returning its ``result``", for example "a grid worker" and "row"."""
    workers = processes(n)
    if workers < 2:
        return list(map(task, range(n)))
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_serve, initargs=(task,))
    try:
        return list(pool.map(_run_task, range(n)))
    except BrokenProcessPool:
        raise WorkerDied(f"{worker} process ended before returning its "
                         f"{result}") from None
    finally:
        # joins every worker, after a failure too
        pool.shutdown(cancel_futures=True)
