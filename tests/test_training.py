import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from proofmatch.corpus import Corpus, read_corpus
from proofmatch.decoding import decode_global, decode_local
from proofmatch.encoders import (
    EncoderConfig, EncoderKind, Vocabulary, _param_table, apply_gradients,
    build_vocab, init_model)
from proofmatch.errors import InvalidValue, ProofmatchError
from proofmatch.evalharness import evaluate_local
from proofmatch.training import (
    NonFiniteLoss,
    Objective,
    TrainConfig,
    batch_loss_and_grads,
    global_loss,
    local_loss,
    structured_cost,
    train,
    write_history,
    _logsumexp_rows,
)
from brute import solve_brute
from conftest import letter_corpus, separable_corpus
from gradcheck import FD_TOL, max_gradient_error, random_batch, random_config, random_model


def _global_loss_fn(m):
    loss, grad, _ = global_loss(m)
    return loss, grad


class TestLocalLoss:
    def test_zero_matrix_is_uniform_softmax(self):
        loss, _ = local_loss(np.zeros((2, 2)))
        assert loss == pytest.approx(2 * math.log(2), abs=1e-9)

    def test_saturated_diagonal(self):
        m = np.zeros((3, 3))
        np.fill_diagonal(m, 1e6)
        loss, _ = local_loss(m)
        assert 0 <= loss < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4))
        _, grad = local_loss(m)
        h = 1e-6
        for i in range(4):
            for j in range(4):
                up, down = m.copy(), m.copy()
                up[i, j] += h
                down[i, j] -= h
                fd = (local_loss(up)[0] - local_loss(down)[0]) / (2 * h)
                assert fd == pytest.approx(grad[i, j], abs=1e-6)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        _, grad = local_loss(rng.normal(size=(5, 5)))
        assert np.allclose(grad.sum(axis=1), 0.0)

    @settings(max_examples=300, deadline=None)
    @given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
           scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3, 1e300]),
           ties=st.booleans(), specials=st.floats(0, 0.5),
           seed=st.integers(0, 2**32 - 1))
    def test_logsumexp_is_scipys_bit_for_bit(self, shape, scale, ties,
                                              specials, seed):
        # ties (several maxima in a row), overflowing rows and rows with
        # +inf, -inf or NaN entries take scipy's paths, value for value
        rng = np.random.default_rng(seed)
        m = rng.normal(scale=scale, size=shape)
        if ties:
            m = np.round(m)
        draw = rng.random(shape)
        m[draw < specials / 3] = np.inf
        m[(draw >= specials / 3) & (draw < 2 * specials / 3)] = -np.inf
        m[(draw >= 2 * specials / 3) & (draw < specials)] = np.nan
        assert _logsumexp_rows(m).tobytes() == logsumexp(m, axis=1).tobytes()

    def test_logsumexp_special_rows(self):
        inf, nan = np.inf, np.nan
        m = np.array([[inf, 0.0, 1.0], [-inf, -inf, -inf], [nan, 0.0, 1.0],
                      [inf, -inf, 0.0], [inf, inf, 2.0], [-inf, 3.0, 3.0],
                      [1e308, 1e308, 0.0], [nan, nan, nan]])
        # no divide, overflow or invalid warning leaves the function
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = _logsumexp_rows(m)
        assert got.tobytes() == logsumexp(m, axis=1).tobytes()

    def test_degenerate_batch(self):
        with pytest.raises(InvalidValue,
                           match="^local loss needs at least two in-batch pairs$"):
            local_loss(np.zeros((1, 1)))


class TestStructuredCost:
    def test_identity_is_zero(self):
        assert structured_cost(np.arange(7)) == 0

    def test_transposition_costs_two(self):
        a = np.arange(5)
        a[[0, 3]] = a[[3, 0]]
        assert structured_cost(a) == 2

    def test_full_derangement(self):
        assert structured_cost(np.array([1, 2, 3, 4, 5, 0])) == 6

    def test_equals_matrix_formula(self):
        # independent oracle: sum of positive cells of (A_hat - I)
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            perm = rng.permutation(n)
            a_mat = np.zeros((n, n))
            a_mat[np.arange(n), perm] = 1.0
            formula = np.maximum(a_mat - np.eye(n), 0.0).sum()
            assert structured_cost(perm) == int(formula)

    def test_never_exactly_one_misplaced(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            assert structured_cost(rng.permutation(n)) != 1


class TestGlobalLoss:
    def test_dominant_diagonal_inactive(self):
        m = np.zeros((4, 4))
        np.fill_diagonal(m, 10.0)
        loss, grad, a_hat = global_loss(m)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros((4, 4)))
        assert np.array_equal(a_hat, np.arange(4))

    def test_worked_two_by_two(self):
        # augmented matrix [[1,2],[2,1]]: the swap wins both permutations
        loss, grad, a_hat = global_loss(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(a_hat, [1, 0])
        assert loss == pytest.approx(4.0)
        assert np.array_equal(grad, [[-1.0, 1.0], [1.0, -1.0]])

    def test_nonnegative_and_hinge_semantics(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            m = rng.normal(size=(n, n))
            loss, _, a_hat = global_loss(m)
            assert loss >= 0.0
            if loss == 0.0:
                rows = np.arange(n)
                margin = structured_cost(a_hat)
                assert np.trace(m) >= m[rows, a_hat].sum() + margin - 1e-12

    def test_augmented_argmax_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            m = rng.normal(size=(n, n))
            _, _, a_hat = global_loss(m)
            brute_perm, brute_val = solve_brute(m + 1.0 - np.eye(n))
            got = (m + 1.0 - np.eye(n))[np.arange(n), a_hat].sum()
            assert got == pytest.approx(brute_val)


class TestGradientsThroughModel:
    @pytest.mark.parametrize("loss_name", ["local", "global"])
    def test_finite_difference_oracle(self, loss_name):
        rng = np.random.default_rng(42 if loss_name == "local" else 43)
        loss_fn = local_loss if loss_name == "local" else _global_loss_fn
        for _ in range(12):
            config = random_config(rng)
            state = random_model(rng, config)
            batch = random_batch(rng)
            assert max_gradient_error(state, batch, loss_fn) < FD_TOL


def generated_batch(tmp_path, n: int, seed: int) -> Corpus:
    """n pairs of the benchmark's synthetic generator (``perfbench/gen.py``),
    written in the corpus format and read back."""
    spec = importlib.util.spec_from_file_location(
        "gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.write_corpus_file(gen.generate_pairs(seed, n, "g"), tmp_path / "g.tsv")
    return read_corpus(tmp_path / "g.tsv")


@pytest.mark.parametrize("loss_fn", [local_loss, _global_loss_fn],
                         ids=["local", "global"])
@pytest.mark.parametrize("kind", list(EncoderKind))
def test_every_parameter_gets_a_gradient(tmp_path, kind, loss_fn):
    # A parameter that no loss can move, such as a constant added to every
    # score, reads at most rounding noise here.
    corpus = generated_batch(tmp_path, 20, seed=1)
    state = init_model(build_vocab(corpus, 1),
                       EncoderConfig(kind, d=16, heads=2, d_k=8), 0)
    _, grads = batch_loss_and_grads(state, corpus.pairs, loss_fn)
    table = _param_table(len(state.vocab), state.config)
    for (name, _), g in zip(table, grads.param_arrays(), strict=True):
        assert np.abs(g).max() > 1e-10, name


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.lists(
           st.lists(st.integers(-512, 512), min_size=n, max_size=n),
           min_size=n, max_size=n)),
       st.integers(-1000, 1000), st.integers(1, 7))
def test_a_constant_added_to_every_score_changes_no_output(cells, c, k):
    # Multiples of 1/64 this small add c exactly, so every difference of
    # two scores is the same bits in m and m + c.
    m = np.array(cells) / 64
    shifted = m + c
    ra, rb = decode_local(m), decode_local(shifted)
    assert np.array_equal(ra.gold_rank, rb.gold_rank)
    assert np.array_equal(ra.top1, rb.top1)
    for top in (None, min(k, len(m))):
        ga, gb = decode_global(m, top), decode_global(shifted, top)
        assert np.array_equal(ga.assignment, gb.assignment)
    (la, da, _), (lb, db, _) = global_loss(m), global_loss(shifted)
    assert la == lb and np.array_equal(da, db)
    (la, da), (lb, db) = local_loss(m), local_loss(shifted)
    assert lb == pytest.approx(la, rel=1e-12, abs=1e-12)
    assert np.abs(db - da).max() <= 1e-12


class TestUpdate:
    @staticmethod
    def model(corpus):
        return init_model(build_vocab(corpus, 1), EncoderConfig(
            EncoderKind.SELF_ATTENTIVE, d=8, heads=2, d_k=3), seed=0)

    def test_rows_absent_from_the_batch_do_not_move(self):
        corpus = separable_corpus(8)  # disjoint vocabulary per pair
        state = self.model(corpus)
        batch = corpus.pairs[:4]
        before = state.embeddings.copy()
        _, grads = batch_loss_and_grads(state, batch, local_loss)
        assert ([g.shape for g in grads.param_arrays()]
                == [p.shape for p in state.param_arrays()])
        apply_gradients(state, grads, 0.1)
        used = set(state.vocab.encode_ids(
            [t for p in batch for t in p.statement + p.proof]).tolist())
        absent = [r for r in range(len(state.vocab)) if r not in used]
        assert len(absent) > len(used) > 0
        assert state.embeddings[absent].tobytes() == before[absent].tobytes()
        assert not np.array_equal(state.embeddings[sorted(used)],
                                  before[sorted(used)])

    def test_clipping_shortens_the_step(self, monkeypatch):
        corpus = separable_corpus(4)
        state = self.model(corpus)
        before = state.copy()
        # the one batch of the first epoch, in train's order
        order = np.random.default_rng(0).permutation(4)
        _, grads = batch_loss_and_grads(
            before, [corpus.pairs[i] for i in order], local_loss)
        norm = grads.global_norm()
        # one epoch: the tail average is the state after its one step
        monkeypatch.setattr(TrainConfig, "clip_norm", norm / 4)
        cfg = quick_config(batch_size=4, epochs=1, eval_every=1, lr=1.0)
        best, history = train(corpus, corpus, state, cfg)
        [step] = history.steps
        assert step.grad_norm == pytest.approx(norm, rel=1e-12)
        factor = cfg.lr * cfg.clip_norm / norm
        for new, old, g in zip(best.param_arrays(), before.param_arrays(),
                               grads.param_arrays(), strict=True):
            moved, want = old - new, factor * g
            assert np.abs(moved - want).max() <= 1e-12 * np.abs(want).max()


def quick_config(**kw):
    defaults = dict(objective=Objective.LOCAL, batch_size=4, epochs=30,
                    lr=5e-3, lr_decay=0.996, eval_every=10, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainLoop:
    def test_memorizes_separable_corpus(self):
        corpus = separable_corpus(8)
        vocab = build_vocab(corpus, 1)
        state = init_model(vocab, EncoderConfig(EncoderKind.POOLED, d=16), 0)
        best, history = train(corpus, corpus, state, quick_config(epochs=200))
        rep = evaluate_local(best, corpus)
        assert rep.accuracy == 1.0 and rep.mrr == 1.0
        assert history.steps[-1].loss < history.steps[0].loss

    def test_deterministic_history(self):
        corpus = separable_corpus(6)
        vocab = build_vocab(corpus, 1)

        def run():
            state = init_model(vocab, EncoderConfig(EncoderKind.POOLED, d=8), 1)
            _, history = train(corpus, corpus, state, quick_config(epochs=5))
            return [(r.loss, r.lr, tuple(r.batch_ids)) for r in history.steps]

        assert run() == run()

    def test_lr_schedule(self):
        corpus = separable_corpus(4)
        vocab = build_vocab(corpus, 1)
        state = init_model(vocab, EncoderConfig(EncoderKind.POOLED, d=8), 0)
        cfg = quick_config(batch_size=2, epochs=5)
        _, history = train(corpus, corpus, state, cfg)
        by_epoch = {}
        for rec in history.steps:
            by_epoch.setdefault(rec.epoch, rec.lr)
        for epoch, lr in by_epoch.items():
            assert lr == pytest.approx(cfg.lr * cfg.lr_decay ** (epoch - 1))

    @pytest.mark.parametrize("objective", list(Objective))
    def test_returned_state_is_the_second_half_average(self, objective):
        # one evaluation, at the last epoch: the returned state is the mean
        # of the raw states after epochs 4, 5 and 6; a fresh run of k
        # epochs leaves the raw state after epoch k in the state it trains
        corpus = separable_corpus(8)
        vocab = build_vocab(corpus, 1)
        epochs = 6

        def run(k):
            state = init_model(vocab, EncoderConfig(EncoderKind.POOLED, d=8), 0)
            best, _ = train(corpus, corpus, state, quick_config(
                objective=objective, epochs=k, eval_every=epochs, lr=0.5))
            return best, state.param_arrays()

        best, _ = run(epochs)
        raw = [run(k)[1] for k in range(epochs // 2 + 1, epochs + 1)]
        assert not np.array_equal(raw[0][0], raw[-1][0])
        for got, *tail in zip(best.param_arrays(), *raw, strict=True):
            want = np.mean(tail, axis=0)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_hybrid_alternates_objectives(self):
        corpus = separable_corpus(8)
        vocab = build_vocab(corpus, 1)
        state = init_model(vocab, EncoderConfig(EncoderKind.POOLED, d=8), 0)
        cfg = quick_config(objective=Objective.HYBRID, batch_size=2, epochs=2)
        _, history = train(corpus, corpus, state, cfg)
        epoch1 = [r.objective for r in history.steps if r.epoch == 1]
        assert epoch1 == ["local", "global", "local", "global"]

    def test_history_log_format(self, tmp_path):
        corpus = separable_corpus(4)
        vocab = build_vocab(corpus, 1)
        state = init_model(vocab, EncoderConfig(EncoderKind.POOLED, d=8), 0)
        _, history = train(corpus, corpus, state, quick_config(epochs=2))
        path = tmp_path / "train.log"
        write_history(history, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(history.steps)
        for line, rec in zip(lines, history.steps):
            epoch, step, objective, loss, lr, grad_norm = line.split("\t")
            assert objective in ("local", "global")
            float(loss), float(lr), int(epoch), int(step)
            assert float(grad_norm) == pytest.approx(rec.grad_norm, rel=1e-9)

    def test_each_corpus_is_turned_into_ids_once(self, monkeypatch):
        corpus, dev = separable_corpus(8), separable_corpus(4)
        state = init_model(build_vocab(corpus, 1),
                           EncoderConfig(EncoderKind.POOLED, d=8), 0)
        calls = []
        encode_ids = Vocabulary.encode_ids

        def counted(self, doc):
            calls.append(len(doc))
            return encode_ids(self, doc)

        monkeypatch.setattr(Vocabulary, "encode_ids", counted)
        _, history = train(corpus, dev, state,
                           quick_config(batch_size=2, epochs=3, eval_every=1))
        assert len(history.steps) == 12 and len(history.dev_accuracy) == 3
        tokens = [sum(len(p.statement) + len(p.proof) for p in c.pairs)
                  for c in (corpus, dev)]
        assert calls == tokens

    def test_step_on_given_ids_equals_step_on_tokens(self):
        corpus = separable_corpus(6)
        state = init_model(build_vocab(corpus, 1),
                           EncoderConfig(EncoderKind.POOLED, d=8), 3)
        batch = corpus.pairs[1:5]
        ids = state.vocab.encode_docs([p.statement for p in corpus.pairs]
                                      + [p.proof for p in corpus.pairs])
        given = ids[1:5] + ids[7:11]
        loss, grads = batch_loss_and_grads(state, batch, local_loss)
        loss_ids, grads_ids = batch_loss_and_grads(state, batch, local_loss, given)
        assert loss_ids == loss
        for a, b in zip(grads_ids.param_arrays(), grads.param_arrays(), strict=True):
            assert np.array_equal(a, b)

    def test_hybrid_on_non_finite_scores_is_non_finite_loss(self):
        # the local step moves the parameters by ~1e300, so the global
        # step's in-batch scores overflow: its batch shares tokens with the
        # local step's
        corpus = letter_corpus(np.random.default_rng(0), 8)
        state = init_model(build_vocab(corpus, 1),
                           EncoderConfig(EncoderKind.POOLED, d=8), 0)
        cfg = quick_config(objective=Objective.HYBRID, lr=1e300, epochs=2)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss) as err:
            train(corpus, corpus, state, cfg)
        assert len(err.value.batch_ids) == 4

    def test_infinite_gradient_norm_is_an_error_before_the_step(self, monkeypatch):
        # at lr 1e100 the first step leaves parameters whose next gradient's
        # sum of squares overflows; clipping by it would take a zero step
        import proofmatch.training as training
        applied = []

        def recording_apply(state, grads, lr):
            applied.append(grads.global_norm())
            apply_gradients(state, grads, lr)

        monkeypatch.setattr(training, "apply_gradients", recording_apply)
        corpus = letter_corpus(np.random.default_rng(0), 8)
        state = init_model(build_vocab(corpus, 1),
                           EncoderConfig(EncoderKind.POOLED, d=8), 0)
        cfg = quick_config(objective=Objective.HYBRID, lr=1e100, epochs=4)
        with np.errstate(all="ignore"), pytest.raises(
                ProofmatchError, match=r"^non-finite gradient norm on batch \[") as err:
            train(corpus, corpus, state, cfg)
        message = str(err.value)
        assert message.startswith("non-finite gradient norm on batch [")
        assert "\n" not in message and message.count("'p") == 4
        assert applied and all(map(math.isfinite, applied))

    @pytest.mark.parametrize("empty", ["train", "dev"])
    def test_empty_train_or_dev_corpus_rejected(self, empty):
        corpus = separable_corpus(4)
        state = init_model(build_vocab(corpus, 1),
                           EncoderConfig(EncoderKind.POOLED, d=8), 0)
        corpora = {"train": corpus, "dev": corpus, empty: Corpus([])}
        with pytest.raises(InvalidValue, match="must be non-empty"):
            train(corpora["train"], corpora["dev"], state,
                  quick_config(epochs=1))

    def test_one_train_pair_is_rejected(self):
        # it has no in-batch negative, so no step could run on it
        corpus = separable_corpus(4)
        state = init_model(build_vocab(corpus, 1),
                           EncoderConfig(EncoderKind.POOLED, d=8), 0)
        with pytest.raises(InvalidValue, match="^the train corpus needs at "
                                               r"least 2 pairs \(in-batch"):
            train(Corpus(corpus.pairs[:1]), corpus, state,
                  quick_config(epochs=1))

    def test_lone_tail_pair_is_skipped(self):
        # 9 pairs at batch 4 make batches of 4, 4 and 1; the lone pair has
        # no in-batch negative, so no step runs on it
        corpus = separable_corpus(9)
        state = init_model(build_vocab(corpus, 1),
                           EncoderConfig(EncoderKind.POOLED, d=8), 0)
        _, history = train(corpus, corpus, state,
                           quick_config(batch_size=4, epochs=3, eval_every=1))
        assert [r.epoch for r in history.steps] == [1, 1, 2, 2, 3, 3]
        assert all(len(r.batch_ids) == 4 for r in history.steps)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=1.5)

    @pytest.mark.parametrize("bad", [dict(lr=math.nan), dict(lr=math.inf),
                                     dict(seed=-1)],
                             ids=["nan_lr", "infinite_lr", "negative_seed"])
    def test_config_rejects_non_finite_lr_and_negative_seed(self, bad):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=f"^{name} must be"):
            TrainConfig(**bad)
