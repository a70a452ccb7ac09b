"""A map over task indices on forked worker processes, shared by the grid's
rows (``evalharness.run_grid``), the chunked corpus commands (``match
ingest`` and ``match replace``) and the pooled encoding of a large
collection (``decoding.build_score_matrix``).

The workers are forked from the caller with ``os.fork`` and inherit the
task function and everything it reads, which are not pickled: each
worker runs its share of the task indices and sends their results back,
pickled, through a pipe of its own. Processes, not threads, since
parsing, replacement and pooled encoding and training hold the GIL. The
map imports no ``multiprocessing``: importing it and its process pool
raised the benchmark's ``eval-n2000`` peak memory from 192.2 to 196.3 MB.
The grid and the corpus commands leave the calling process idle while
their workers run; the encoding map has it run task 0, which saves one
fork. Nothing forks where ``os.fork`` does not exist, or inside
a worker that a map forked: there the tasks run one after another in the
calling process.
A forked worker sends back its results and what it ran (``Workers``).
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass

from .errors import ProofmatchError

# The usable cores: the most processes a map runs on, and the threads of
# the encoder's pool (``encoders.map_documents``).
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

# True in a process that ``fork_map`` forked: its tasks run in it alone.
_forked = False


@dataclass
class Workers:
    """The workers that ran since a ``recording`` began, each None until one
    ran: the most processes of one forked map, the caller included where it
    ran tasks, the forked workers' largest peak resident set (``ru_maxrss``)
    and the most threads of one encoder map, the calling thread alone as 1."""

    processes: int | None = None
    peak_rss: int | None = None
    threads: int | None = None


_workers = Workers()


def recording() -> Workers:
    """A fresh ``Workers``, in which each map from now on notes its workers:
    the command-line manifests report one per command."""
    global _workers
    _workers = Workers()
    return _workers


def note(**counts: int | None) -> None:
    """Raise each named field of the current ``recording`` to its count,
    where that is larger; a None count changes nothing."""
    for name, count in counts.items():
        if count is not None:
            setattr(_workers, name, max(getattr(_workers, name) or 0, count))


def processes(tasks: int) -> int:
    """The number of processes that run ``tasks`` tasks: one per usable
    core, never more than tasks. It is 1, the calling process, where
    ``os.fork`` does not exist or in a ``fork_map`` worker."""
    if tasks < 2 or _forked or not hasattr(os, "fork"):
        return 1
    return min(tasks, _WORKERS)


def fork_map(task, n: int, worker: str, result: str, *,
             caller: bool = False) -> list:
    """``task(i)`` for i in 0..n-1, in order, on ``p = processes(n)``
    processes: process j runs tasks j, j + p, j + 2p, ... in turn, so
    that neighbouring tasks, such as the grid's rows at increasing
    replacement levels, run side by side. With ``caller`` the calling
    process is process 0 and the forked workers the others; without it the
    caller only waits. ``task`` and what it reads reach the workers by the
    fork, unpickled (``evalharness`` gives the cost this saves). A process
    stops at its first task that raises, and the first such task in index
    order raises its error here, once every worker has been reaped. A
    worker that ends without returning its results raises
    ``ProofmatchError``: "``worker`` process ended before returning its
    ``result``", for example "a grid worker" and "row". If the caller's
    task 0 raises, which no other error can precede, or the caller is
    interrupted, the workers are killed and reaped before the error goes
    on. The map notes ``p`` and each returning worker's ``Workers`` in the
    current ``recording``."""
    procs = processes(n)
    if procs < 2:
        return list(map(task, range(n)))
    shares = [range(j, n, procs) for j in range(procs)]
    children: dict[int, object] = {}  # pid -> read end, until reaped
    returned = []  # each share's (values, error)
    try:
        for share in shares[caller:]:
            pid, read_end = _fork(task, share)
            children[pid] = read_end
        note(processes=procs)
        if caller:
            own_values, own_error = _run(task, shares[0])
            if own_error is not None and not own_values:
                raise own_error  # task 0's: no other error precedes it
            returned.append((own_values, own_error))
        for pid in list(children):
            with children[pid] as fh:
                try:  # unpickled as it is read, with no copy of the stream
                    sent, ran = pickle.load(fh), pickle.load(fh)
                except (EOFError, pickle.UnpicklingError):  # cut short
                    sent = None
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if sent is None or os.waitstatus_to_exitcode(status) != 0:
                sent = [], ProofmatchError(f"{worker} process ended before "
                                           f"returning its {result}")
            else:
                note(**vars(ran))
            returned.append(sent)
    finally:
        for pid, fh in children.items():
            os.kill(pid, signal.SIGKILL)
            fh.close()
            os.waitpid(pid, 0)
    values = [None] * n
    failed = []  # (index, error) of each share's first failed task
    for share, (share_values, error) in zip(shares, returned):
        for i, value in zip(share, share_values):
            values[i] = value
        if error is not None:
            failed.append((share[len(share_values)], error))
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return values


def _run(task, share: range) -> tuple[list, Exception | None]:
    """The values of ``share``'s tasks up to the first that raises, and
    that task's error, or None."""
    values = []
    try:
        for i in share:
            values.append(task(i))
    except Exception as exc:
        return values, exc
    return values, None


def _fork(task, share: range):
    """A worker that runs ``share`` and its pid, with the read end of the
    pipe that brings its results."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _serve(task, share, write_fd)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _serve(task, share: range, write_fd: int) -> None:
    """The worker's life: run ``share`` up to its first error in a
    ``recording`` of its own, send the values and that error (or None),
    then the record with the worker's peak resident set, which includes
    the sending, and leave through ``os._exit``, which runs none of the
    caller's exit handlers. The exit status is 0 only once everything has
    been sent."""
    import resource  # a Unix module, like os.fork
    global _forked
    _forked = True
    status = 1
    try:
        ran = recording()
        with os.fdopen(write_fd, "wb") as out:
            pickle.dump(_run(task, share), out, pickle.HIGHEST_PROTOCOL)
            ran.peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            pickle.dump(ran, out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)
