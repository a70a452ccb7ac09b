"""``forkmap.fork_map``: results in index order from every process's share
of the tasks, the first error in index order, a dead worker as one error,
no worker forked inside a worker, and no child left to reap on any
path."""

import os
import time

import pytest

from proofmatch import forkmap
from proofmatch.errors import InvalidValue, ProofmatchError
from proofmatch.forkmap import fork_map, processes
from conftest import assert_no_child_left


@pytest.fixture
def workers(monkeypatch):
    def set_workers(n: int) -> None:
        monkeypatch.setattr(forkmap, "_WORKERS", n)
    return set_workers


@pytest.mark.parametrize("caller", [False, True])
@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_results_come_in_index_order_and_process_j_runs_every_pth_task(
        workers, n_workers, caller):
    workers(n_workers)
    pid = os.getpid()
    out = fork_map(lambda i: (i, os.getpid()), 7, "a test worker", "value",
                   caller=caller)
    assert [i for i, _ in out] == list(range(7))
    pids = [p for _, p in out]
    assert len(set(pids[:n_workers])) == processes(7) == n_workers
    assert pids == [pids[i % n_workers] for i in range(7)]
    # the caller runs task 0 and its stride itself, or no task
    assert (pid in pids) == (pids[0] == pid) == (caller or n_workers == 1)
    assert_no_child_left()


@pytest.mark.parametrize("caller", [False, True])
def test_processes_is_1_inside_a_worker(workers, caller):
    workers(2)
    assert processes(4) == 2
    nested = fork_map(lambda i: processes(4), 2, "a test worker", "value",
                      caller=caller)
    assert nested == [2 if caller else 1, 1]
    assert processes(4) == 2
    assert_no_child_left()


@pytest.mark.parametrize("caller", [False, True])
def test_a_recording_holds_the_most_each_worker_noted(workers, caller):
    # each forked worker sends back what it noted, a None count changes
    # nothing, and a map that forks nothing notes no process
    workers(3)
    ran = forkmap.recording()
    assert (ran.processes, ran.peak_rss, ran.threads) == (None, None, None)
    fork_map(lambda i: forkmap.note(threads=[2, 5, 1, 4][i], peak_rss=None),
             4, "a test worker", "value", caller=caller)
    assert ran.processes == 3 and ran.threads == 5 and ran.peak_rss > 0
    forkmap.note(threads=1)
    assert forkmap.recording() is not ran and ran.threads == 5
    workers(1)
    fork_map(lambda i: forkmap.note(threads=i), 3, "a test worker", "value")
    assert (forkmap._workers.processes, forkmap._workers.threads) == (None, 2)
    assert_no_child_left()


@pytest.mark.parametrize("caller", [False, True])
def test_the_first_error_in_index_order_is_raised(workers, caller):
    # process 0 runs tasks 0 and 3, process 1 tasks 1 and 4, process 2
    # tasks 2 and 5: task 3 fails first, task 1 later
    workers(3)

    def task(i):
        if i == 1:
            time.sleep(0.2)
            raise InvalidValue("task 1")
        if i == 3:
            raise ProofmatchError("task 3")
        return i

    with pytest.raises(InvalidValue, match="^task 1$"):
        fork_map(task, 6, "a test worker", "value", caller=caller)
    assert_no_child_left()


def test_a_dead_worker_is_one_error(workers):
    workers(2)
    caller = os.getpid()

    def task(i):
        if os.getpid() != caller:
            os._exit(3)
        return i

    with pytest.raises(ProofmatchError, match="^a test worker process ended "
                                              "before returning its value$"):
        fork_map(task, 2, "a test worker", "value", caller=True)
    assert_no_child_left()


@pytest.mark.parametrize("error", [InvalidValue("the caller's task 0"),
                                   KeyboardInterrupt()],
                         ids=["error", "interrupt"])
def test_the_callers_error_kills_and_reaps_the_workers(workers, error):
    workers(3)
    caller = os.getpid()

    def task(i):
        if os.getpid() == caller:
            raise error
        time.sleep(60)

    started = time.monotonic()
    with pytest.raises(type(error)):
        fork_map(task, 3, "a test worker", "value", caller=True)
    assert time.monotonic() - started < 30
    assert_no_child_left()
