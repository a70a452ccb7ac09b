"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (visible with ``pytest -s`` or in captured output on failure).
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from proofmatch.assignment import prune_topk, solve_dense, solve_sparse
from proofmatch.corpus import PairRecord, math_token, read_corpus, write_corpus
from proofmatch.decoding import decode_global, decode_local
from proofmatch.encoders import (
    EncoderConfig,
    EncoderKind,
    Pooling,
    build_vocab,
    init_model,
    load_model,
    save_model,
)
from proofmatch.evalharness import (
    accuracy_global,
    accuracy_local,
    evaluate_local,
    mrr,
    report_local,
    run_grid,
)
from proofmatch.mathml import linearize_mathml
from proofmatch.symbols import (
    CONSERVATION,
    FULL,
    TRANSPOSITION,
    Level,
    ReplacementLevel,
    SymbolKey,
    build_replacement_map,
    replace_pair,
)
from proofmatch.training import (
    TrainConfig,
    global_loss,
    local_loss,
    structured_cost,
    train,
)
from brute import solve_brute
from conftest import (probability_protected, random_corpus,
                      replacement_grid_corpora, separable_corpus)
from gradcheck import max_gradient_error, random_batch, random_config, random_model
from test_mathml import random_mathml, reference_leaves


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} ({name}): FAIL")
        raise
    print(f"criterion {num:2d} ({name}): PASS")


def test_01_exact_solver_equivalence():
    with criterion(1, "dense solver matches brute force"):
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            m = rng.integers(-50, 51, size=(n, n)).astype(np.float64)
            _, dense_val = solve_dense(m)
            _, brute_val = solve_brute(m)
            assert dense_val == brute_val
        assert time.perf_counter() - start < 10.0


def test_02_sparse_solver_consistency():
    with criterion(2, "sparse solver consistency"):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(5, 61))
            m = rng.normal(size=(n, n))
            _, sparse_val, padded = solve_sparse(prune_topk(m, n))
            _, dense_val = solve_dense(m)
            assert not padded
            assert abs(sparse_val - dense_val) <= 1e-9
        for _ in range(50):
            n = int(rng.integers(5, 20))
            m = rng.normal(size=(n, n))
            values = []
            for k in range(1, n + 1):
                _, val, padded = solve_sparse(prune_topk(m, k))
                if not padded:
                    values.append(val)
            assert values == sorted(values)


def test_03_gradient_correctness():
    with criterion(3, "analytic gradients vs finite differences"):

        def global_fn(m):
            loss, grad, _ = global_loss(m)
            return loss, grad

        rng = np.random.default_rng(2)
        draws = 0
        for loss_fn in (local_loss, global_fn):
            for _ in range(50):
                config = random_config(rng)
                state = random_model(rng, config)
                batch = random_batch(rng)
                assert max_gradient_error(state, batch, loss_fn) < 1e-4
                draws += 1
        assert draws >= 100


def test_04_loss_sanity():
    with criterion(4, "loss closed-form checks"):
        loss, _ = local_loss(np.zeros((2, 2)))
        assert abs(loss - 2 * math.log(2)) <= 1e-9
        assert structured_cost(np.arange(9)) == 0
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 10))
            perm = rng.permutation(n)
            a_mat = np.zeros((n, n))
            a_mat[np.arange(n), perm] = 1.0
            formula = np.maximum(a_mat - np.eye(n), 0.0).sum()
            assert structured_cost(perm) == int(round(formula))


def test_05_memorization_run():
    with criterion(5, "separable corpus memorization"):
        start = time.perf_counter()
        corpus = separable_corpus(8)
        vocab = build_vocab(corpus, 1)
        config = TrainConfig(batch_size=4, epochs=200, lr=5e-3,
                             lr_decay=0.996, eval_every=20, seed=0)

        def run():
            state = init_model(vocab, EncoderConfig(EncoderKind.POOLED, d=16),
                               seed=0)
            best, history = train(corpus, corpus, state, config)
            return evaluate_local(best, corpus), [r.loss for r in history.steps]

        report, losses = run()
        assert report.accuracy == 1.0
        assert report.mrr == 1.0
        report2, losses2 = run()
        assert report2.accuracy == 1.0 and report2.mrr == 1.0
        assert losses == losses2
        assert time.perf_counter() - start < 30.0


def test_06_local_vs_global_decoding():
    with criterion(6, "global decoding beats duplicate-prone local"):
        # one proof dominates every statement's ranking
        n = 6
        rng = np.random.default_rng(4)
        m = 0.1 * rng.normal(size=(n, n)) + np.eye(n)
        m[:, 2] += 100.0
        local_acc = accuracy_local(decode_local(m))
        global_acc = accuracy_global(decode_global(m))
        assert local_acc < global_acc

        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m = rng.normal(size=(30, 30)) + 3.5 * np.eye(30)
            la = accuracy_local(decode_local(m))
            ga = accuracy_global(decode_global(m))
            if ga >= la:
                wins += 1
        assert wins >= 95


def test_07_cross_replacement_grid():
    with criterion(7, "symbol-renaming transfer grid"):
        train_c, dev_c, test_c = replacement_grid_corpora()
        config = EncoderConfig(EncoderKind.POOLED, d=16, pooling=Pooling.MEAN)
        tc = TrainConfig(batch_size=4, epochs=400, lr=5e-2, eval_every=50,
                         seed=0)
        report = run_grid(train_c, dev_c, test_c, [CONSERVATION, FULL],
                          config, tc, seed=0)
        cc = report.cells[("conservation", "conservation")].accuracy
        cf = report.cells[("conservation", "full")].accuracy
        fc = report.cells[("full", "conservation")].accuracy
        ff = report.cells[("full", "full")].accuracy
        # models trained without renaming collapse on renamed proofs
        assert cc - cf >= 0.20
        # models trained on renamed proofs never relied on the symbol cue
        assert fc - ff < 0.10


RECURRENCE = [math_token(s) for s in
              ["a", "n", "=", "a", "n", "−", "1", "+", "a", "n", "−", "2"]]


def test_08_replacement_correctness():
    with criterion(8, "symbol replacement invariants"):
        pair = PairRecord("rec", "a1", [], RECURRENCE, RECURRENCE)
        assert replace_pair(pair, CONSERVATION).proof == RECURRENCE
        full = replace_pair(pair, FULL).proof
        x, i = full[0].surface, full[1].surface
        assert x != i and not {x, i} & {"a", "n"}
        assert full == [math_token(s) for s in
                        [x, i, "=", x, i, "−", "1", "+", x, i, "−", "2"]]
        transposed = replace_pair(pair, TRANSPOSITION).proof
        assert [t.surface for t in transposed] == \
            ["n", "a", "=", "n", "a", "−", "1", "+", "n", "a", "−", "2"]

        protected = probability_protected()
        letters = "abcdfghjklmnqrstuwxyz"
        rng = np.random.default_rng(5)
        levels = [FULL, TRANSPOSITION, ReplacementLevel(Level.PARTIAL, 0.5)]
        for trial in range(10000):
            size = int(rng.integers(1, 8))
            picks = rng.choice(len(letters), size, replace=False)
            shared = {SymbolKey(letters[i]) for i in picks
                      if letters[i] not in protected}
            if not shared:
                continue
            level = levels[trial % 3]
            rmap = build_replacement_map(
                shared, level, seed=trial,
                forbidden={k.base for k in shared} | protected)
            targets = list(rmap.entries.values())
            # bijection: distinct sources map to distinct targets
            assert len(set(targets)) == len(targets)
            # no replacement lands on a protected or source symbol
            for src, dst in rmap.entries.items():
                assert dst.base not in protected
                assert dst.base != src.base
            if level is TRANSPOSITION and len({k.base for k in shared}) > 1:
                # derangement stays within the shared set
                assert set(rmap.entries) == shared
                assert {t.base for t in targets} == {k.base for k in shared}


def test_09_metric_identities():
    with criterion(9, "ranking metric identities"):
        assert abs(mrr([1, 2, 4]) - 7.0 / 12.0) <= 1e-9
        rng = np.random.default_rng(6)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            ranks = rng.integers(1, 15, size=n)
            assert mrr(ranks) >= float(np.mean(ranks == 1)) - 1e-12
        for _ in range(100):
            n = int(rng.integers(2, 12))
            m = rng.normal(size=(n, n))
            base = report_local(decode_local(m))
            scale = float(rng.uniform(0.1, 5.0))
            shift = float(rng.normal() * 10)
            moved = report_local(decode_local(scale * m + shift))
            assert moved.accuracy == base.accuracy
            assert abs(moved.mrr - base.mrr) <= 1e-12


def test_10_format_round_trips(tmp_path):
    with criterion(10, "corpus/model/markup round trips"):
        rng = np.random.default_rng(7)
        path = tmp_path / "corpus.tsv"
        for trial in range(800):
            corpus = random_corpus(rng, int(rng.integers(1, 6)))
            write_corpus(corpus, path)
            again = read_corpus(path)
            assert again.pairs == corpus.pairs
            first = path.read_bytes()
            write_corpus(again, path)
            assert path.read_bytes() == first

        model_path = tmp_path / "model.pmm"
        second_path = tmp_path / "model2.pmm"
        for trial in range(200):
            config = random_config(rng)
            state = random_model(rng, config)
            save_model(state, model_path)
            loaded = load_model(model_path)
            save_model(loaded, second_path)
            assert model_path.read_bytes() == second_path.read_bytes()
            for a, b in zip(state.param_arrays(), loaded.param_arrays()):
                assert np.array_equal(a.astype(np.float32), b)

        for seed in range(500):
            tree_rng = np.random.default_rng(seed)
            body = "".join(random_mathml(tree_rng)
                           for _ in range(int(tree_rng.integers(1, 4))))
            fragment = f"<math>{body}</math>"
            assert linearize_mathml(fragment) == reference_leaves(fragment)
