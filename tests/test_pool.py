"""Self-attentive documents on the encoder pool: results are bit-identical
to a serial loop for any worker count, each thread gets one work-balanced
chunk of the documents, a pooled step's memory is the serial one, and an
error raised in a worker reaches the caller."""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from proofmatch import decoding, encoders, training
from proofmatch.cli import main
from proofmatch.corpus import Corpus, PairRecord, math_token, write_corpus
from proofmatch.errors import InvalidValue
from proofmatch.encoders import (
    EncoderConfig,
    EncoderKind,
    Pooling,
    add_grads,
    backward,
    build_vocab,
    forward,
    init_model,
    save_model,
    score_matrix,
    score_matrix_backward,
)
from proofmatch.training import (
    Objective,
    TrainConfig,
    batch_loss_and_grads,
    local_loss,
    train,
)


def corpus(rng: np.random.Generator, n_pairs: int, prefix: str,
           lengths: tuple[int, int] = (100, 141)) -> Corpus:
    """Pairs of 100-140 tokens (or ``lengths``, a half-open range) over
    v0..v29, long enough for the pool."""
    def doc():
        return [math_token(f"v{i}")
                for i in rng.integers(0, 30, size=int(rng.integers(*lengths)))]
    return Corpus([PairRecord(f"{prefix}{i}", "a", [], doc(), doc())
                   for i in range(n_pairs)])


def model(train_c: Corpus, layers: int = 1, pooling=Pooling.MAX):
    return init_model(build_vocab(train_c), EncoderConfig(
        EncoderKind.SELF_ATTENTIVE, d=64, layers=layers, heads=2, d_k=32,
        pooling=pooling), seed=4)


def serial_loss_and_grads(state, batch, loss_fn, ids=None):
    """``batch_loss_and_grads`` as a loop over the documents."""
    b = len(batch)
    if ids is None:
        ids = state.vocab.encode_docs([p.statement for p in batch]
                                      + [p.proof for p in batch])
    outs = [forward(state, x) for x in ids]
    s_vecs = np.stack([v for v, _ in outs[:b]])
    p_vecs = np.stack([v for v, _ in outs[b:]])
    loss, d_m = loss_fn(score_matrix(state, s_vecs, p_vecs))
    grads = state.zeros()
    d_s, d_p = score_matrix_backward(state, s_vecs, p_vecs, d_m, grads)
    for (_, cache), g in zip(outs, itertools.chain(d_s, d_p), strict=True):
        add_grads(grads, backward(state, cache, g))
    return loss, grads


def serial_score_matrix(state, statements, proofs, ids=None):
    """``build_score_matrix`` as a loop over the documents."""
    ids = ids or state.vocab.encode_docs(statements + proofs)
    vecs = np.stack([forward(state, x)[0] for x in ids])
    return score_matrix(state, vecs[:len(statements)], vecs[len(statements):])


@pytest.fixture(params=[1, 2, 4], ids=lambda w: f"workers{w}")
def workers(request, monkeypatch):
    """The encoder's worker count, 4 being more than this host may have;
    thread switches are made frequent so that interleavings vary."""
    monkeypatch.setattr(encoders, "_WORKERS", request.param)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


def pool_threads(monkeypatch, module) -> set[str]:
    """Names of the threads that run ``module.forward`` from now on."""
    names: set[str] = set()
    real = module.forward

    def recording_forward(state, ids):
        names.add(threading.current_thread().name)
        return real(state, ids)

    monkeypatch.setattr(module, "forward", recording_forward)
    return names


def uses_pool(state, docs) -> bool:
    """Whether ``map_documents`` runs these documents on other threads."""
    ids = state.vocab.encode_docs(docs)
    ran_on = set(encoders.map_documents(
        state, ids, lambda s, x: threading.current_thread().name, ids))
    return threading.current_thread().name not in ran_on


class RecordingPool:
    """Stands in for ``encoders._executor(workers)``: runs each submitted
    task on a real pool of that size and numbers the tasks, so that the
    mapped function can read the number of the task it runs in."""

    def __init__(self, pool: ThreadPoolExecutor):
        self.pool = pool
        self.tasks = 0
        self.current = threading.local()

    def submit(self, fn, *args):
        task = self.tasks
        self.tasks += 1

        def run():
            self.current.task = task
            return fn(*args)
        return self.pool.submit(run)


def assert_models_equal(a, b):
    for x, y in zip(a.param_arrays(), b.param_arrays(), strict=True):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("layers,pooling", [(1, Pooling.MAX),
                                            (2, Pooling.MAX),
                                            (2, Pooling.MEAN)])
def test_batch_grads_equal_serial_loop(workers, monkeypatch, layers, pooling):
    rng = np.random.default_rng(1)
    train_c = corpus(rng, 12, "t")
    state = model(train_c, layers, pooling)
    want_loss, want = serial_loss_and_grads(state, train_c.pairs, local_loss)
    ran_on = pool_threads(monkeypatch, training)
    loss, grads = batch_loss_and_grads(state, train_c.pairs, local_loss)
    assert loss == want_loss
    assert_models_equal(grads, want)
    assert (ran_on != {threading.current_thread().name}) == (workers > 1)


def test_score_matrix_equals_serial_loop(workers, monkeypatch):
    rng = np.random.default_rng(2)
    test_c = corpus(rng, 12, "e")
    state = model(test_c)
    statements = [p.statement for p in test_c.pairs]
    proofs = [p.proof for p in test_c.pairs]
    want = serial_score_matrix(state, statements, proofs)
    ran_on = pool_threads(monkeypatch, encoders)  # ``encode`` runs ``forward``
    m = decoding.build_score_matrix(state, statements, proofs)
    assert np.array_equal(m, want)
    assert (ran_on != {threading.current_thread().name}) == (workers > 1)


def test_train_equals_serial_loop(workers, monkeypatch):
    rng = np.random.default_rng(3)
    train_c, dev_c = corpus(rng, 24, "t"), corpus(rng, 12, "d")
    config = TrainConfig(objective=Objective.HYBRID, batch_size=12, epochs=2,
                         lr=0.1, eval_every=1)
    got, got_history = train(train_c, dev_c, model(train_c), config)
    with monkeypatch.context() as serial:
        serial.setattr(training, "batch_loss_and_grads", serial_loss_and_grads)
        serial.setattr(training, "build_score_matrix", serial_score_matrix)
        want, want_history = train(train_c, dev_c, model(train_c), config)
    assert_models_equal(got, want)
    assert got_history == want_history


@pytest.mark.parametrize("workers,lengths", [
    (4, [120, 150]),
    (4, [160, 100, 130]),
    # most of the work in the first half: equal counts would not balance
    (2, [300, 400, 12, 250, 380, 9, 350, 30, 400, 200, 7, 260,
         5, 11, 6, 90, 8, 5, 14, 40, 8, 7, 10, 6]),
], ids=["4workers-2docs", "4workers-3docs", "2workers-12uneven-pairs"])
def test_map_runs_one_task_per_nonempty_balanced_chunk(monkeypatch, workers,
                                                       lengths):
    rng = np.random.default_rng(7)
    state = model(corpus(rng, 2, "t"))
    docs = [[math_token(f"v{i}") for i in rng.integers(0, 30, size=t)]
            for t in lengths]
    ids = state.vocab.encode_docs(docs)
    monkeypatch.setattr(encoders, "_WORKERS", workers)
    with ThreadPoolExecutor(workers) as real:
        pool = RecordingPool(real)

        def executor(n):
            assert n == workers
            return pool

        monkeypatch.setattr(encoders, "_executor", executor)

        def vector_in_task(s, x, i):
            return i, pool.current.task, forward(s, x)[0]

        got = list(encoders.map_documents(state, ids, vector_in_task, ids,
                                          range(len(ids))))
    assert [i for i, _, _ in got] == list(range(len(ids)))
    for (_, _, v), x in zip(got, ids, strict=True):
        assert np.array_equal(v, forward(state, x)[0])
    # tasks take contiguous chunks in document order, none of them empty
    task_of = [t for _, t, _ in got]
    assert task_of == sorted(task_of)
    assert set(task_of) == set(range(pool.tasks))
    assert 1 < pool.tasks <= min(workers, len(ids))
    # no chunk holds more than its share of the work and one document's
    work = [encoders._layer_work(state.config, len(x)) for x in ids]
    for t in range(pool.tasks):
        chunk = sum(w for w, u in zip(work, task_of) if u == t)
        assert chunk <= sum(work) / workers + max(work)


def test_tasks_run_under_the_callers_error_state(monkeypatch):
    monkeypatch.setattr(encoders, "_WORKERS", 2)
    rng = np.random.default_rng(8)
    state = model(corpus(rng, 6, "t"))
    ids = state.vocab.encode_docs([p.statement for p in corpus(rng, 6, "e").pairs])
    with np.errstate(over="raise", invalid="ignore"):
        want = np.geterr()
        got = list(encoders.map_documents(
            state, ids,
            lambda s, x: (np.geterr(), threading.current_thread().name), ids))
    assert want["over"] == "raise" and want["invalid"] == "ignore"
    assert [err for err, _ in got] == [want] * len(ids)
    assert threading.current_thread().name not in {name for _, name in got}


def test_pooled_step_peaks_as_the_serial_step(monkeypatch):
    # Each document's forward cache is freed by its backward on the pool,
    # so a chunk's gradient products never add to every cache at once.
    rng = np.random.default_rng(9)
    train_c = corpus(rng, 60, "t", lengths=(130, 171))
    state = model(train_c)

    def traced_peak(workers: int) -> int:
        monkeypatch.setattr(encoders, "_WORKERS", workers)
        batch_loss_and_grads(state, train_c.pairs, local_loss)  # warm-up
        tracemalloc.start()
        try:
            batch_loss_and_grads(state, train_c.pairs, local_loss)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    serial = traced_peak(1)
    assert traced_peak(2) <= 1.1 * serial


def test_empty_document_raises_from_a_worker(monkeypatch):
    monkeypatch.setattr(encoders, "_WORKERS", 2)
    rng = np.random.default_rng(4)
    test_c = corpus(rng, 12, "e")
    state = model(test_c)
    statements = [p.statement for p in test_c.pairs]
    statements[7] = []
    assert uses_pool(state, statements)
    with pytest.raises(InvalidValue, match="^cannot encode an empty document$"):
        decoding.build_score_matrix(state, statements,
                                    [p.proof for p in test_c.pairs])


def test_eval_reports_an_empty_document_in_one_line(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.setattr(encoders, "_WORKERS", 2)
    rng = np.random.default_rng(5)
    test_c = corpus(rng, 12, "e")
    state = model(test_c)
    save_model(state, tmp_path / "model.pmm")
    test_c.pairs[7].statement.clear()
    assert uses_pool(state, [p.statement for p in test_c.pairs])
    write_corpus(test_c, tmp_path / "test.tsv")
    code = main(["eval", str(tmp_path / "model.pmm"), str(tmp_path / "test.tsv"),
                 "--out-dir", str(tmp_path), "--quiet"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {tmp_path / 'test.tsv'}: pair e7 has no "
                            "tokens in its statement\n")
    assert captured.out == ""


# A self-attentive batch builds the encoder pool, then a 2-level grid forks
# its workers, which encode on a pool of their own.
POOL_THEN_FORK = """
import numpy as np
from proofmatch import CONSERVATION, FULL, encoders
from proofmatch.evalharness import run_grid
from proofmatch.training import Objective, TrainConfig, batch_loss_and_grads, local_loss
from test_pool import corpus, model, uses_pool

encoders._WORKERS = 2
train_c = corpus(np.random.default_rng(6), 6, "t")
state = model(train_c)
batch_loss_and_grads(state, train_c.pairs, local_loss)
assert uses_pool(state, [p.statement for p in train_c.pairs])
report = run_grid(train_c, train_c, train_c, [CONSERVATION, FULL], state.config,
                  TrainConfig(objective=Objective.LOCAL, batch_size=6, epochs=1,
                              eval_every=1))
print(len(report.cells))
"""


def test_a_forked_worker_builds_its_own_pool(tmp_path):
    # a child that inherited the parent's pool would wait forever for its
    # threads, so the run is bounded and its whole process group killed
    tests = Path(__file__).resolve().parent
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    proc = subprocess.Popen([sys.executable, "-c", POOL_THEN_FORK], env=env,
                            cwd=tmp_path, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the grid's workers hung on the inherited encoder pool")
    assert proc.returncode == 0, err
    assert out == "4\n"
