import os

import numpy as np
import pytest

from proofmatch import evalharness, forkmap
from proofmatch.cli import main
from proofmatch.corpus import write_corpus
from proofmatch.decoding import decode_local
from proofmatch.encoders import EncoderConfig, EncoderKind, build_vocab, init_model
from proofmatch.errors import InvalidValue
from proofmatch.evalharness import (
    assignment_distribution,
    evaluate_local,
    mrr,
    report_global,
    report_local,
    run_grid,
)
from proofmatch.forkmap import processes
from proofmatch.symbols import CONSERVATION, FULL
from proofmatch.training import Objective, TrainConfig
from proofmatch.decoding import MatchResult, RankingResult
from conftest import (assert_no_child_left, separable_corpus,
                      symbol_dependent_corpus)


class TestMrr:
    def test_worked_example(self):
        assert mrr([1, 2, 4]) == pytest.approx((1 + 0.5 + 0.25) / 3)

    def test_single_rank_ten(self):
        assert mrr([10]) == pytest.approx(0.1)

    def test_all_rank_one_is_one(self):
        assert mrr([1] * 7) == 1.0

    def test_empty_raises(self):
        with pytest.raises(InvalidValue, match="^mrr over an empty rank list$"):
            mrr([])

    def test_invalid_rank_raises(self):
        with pytest.raises(ValueError):
            mrr([1, 0])

    def test_mrr_at_least_accuracy(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            ranks = rng.integers(1, 12, size=n)
            acc = float(np.mean(ranks == 1))
            assert mrr(ranks) >= acc - 1e-12
            assert 0.0 < mrr(ranks) <= 1.0


class TestReports:
    def test_local_report_fields(self):
        m = np.array([[1.0, 2.0], [0.0, 3.0]])
        rep = report_local(decode_local(m))
        assert rep.n == 2
        assert rep.accuracy == 0.5
        assert rep.mrr == pytest.approx((0.5 + 1.0) / 2)

    def test_global_report_has_no_mrr(self):
        result = MatchResult(np.array([0, 2, 1]), 1.0, False)
        rep = report_global(result)
        assert rep.mrr is None
        assert rep.accuracy == pytest.approx(1 / 3)
        assert rep.n == 3

    def test_affine_invariance_of_local_metrics(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(7, 7))
        base = report_local(decode_local(m))
        scaled = report_local(decode_local(3.5 * m + 11.0))
        assert scaled.mrr == pytest.approx(base.mrr)
        assert scaled.accuracy == base.accuracy


def bucket_counts(result):
    return {label: count for label, count, _ in assignment_distribution(result)}


class TestAssignHistogram:
    def test_dominant_column(self):
        m = np.zeros((6, 6))
        m[:, 3] = 1.0
        counts = bucket_counts(decode_local(m))
        assert counts[">=5"] == 1 and counts[">=2"] == 1
        assert counts["=1"] == 0 and counts["<1"] == 5

    def test_identity_matrix(self):
        counts = bucket_counts(decode_local(np.eye(5)))
        assert counts["=1"] == 5 and counts["<1"] == 0 and counts[">=2"] == 0

    def test_counting_identities(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            counts = bucket_counts(decode_local(rng.normal(size=(n, n))))
            assert counts["=1"] + counts["<1"] + counts[">=2"] == n
            assert (counts[">=20"] <= counts[">=10"] <= counts[">=5"]
                    <= counts[">=2"] <= n)

    def test_rows_percentages(self):
        # of 10 proofs, one is ranked first 5 times, one twice, three once
        top1 = np.array([0, 0, 0, 0, 0, 1, 1, 2, 3, 4])
        rows = assignment_distribution(RankingResult(np.ones(10, int), top1))
        assert rows == [(">=20", 0, 0.0), (">=10", 0, 0.0), (">=5", 1, 10.0),
                        (">=2", 2, 20.0), ("=1", 3, 30.0), ("<1", 5, 50.0)]


def tiny_train_config(epochs=120):
    return TrainConfig(objective=Objective.LOCAL, batch_size=4, epochs=epochs,
                       eval_every=40, seed=0)


class TestGrid:
    def test_single_level_matches_standalone_eval(self):
        corpus = separable_corpus(8)
        cfg = EncoderConfig(EncoderKind.POOLED, d=16)
        report = run_grid(corpus, corpus, corpus, [CONSERVATION], cfg,
                          tiny_train_config(), seed=0)
        cell = report.cells[("conservation", "conservation")]
        # conservation leaves the corpus untouched, so the cell equals a
        # fresh train-and-evaluate run on the raw corpus
        from proofmatch.training import train
        vocab = build_vocab(corpus, 1)
        state = init_model(vocab, cfg, 0)
        best, _ = train(corpus, corpus, state, tiny_train_config())
        standalone = evaluate_local(best, corpus)
        assert cell.accuracy == standalone.accuracy
        assert cell.mrr == pytest.approx(standalone.mrr)

    def test_grid_deterministic_and_complete(self):
        corpus = symbol_dependent_corpus(8)
        cfg = EncoderConfig(EncoderKind.POOLED, d=16)
        levels = [CONSERVATION, FULL]
        a = run_grid(corpus, corpus, corpus, levels, cfg,
                     tiny_train_config(epochs=40), seed=1)
        b = run_grid(corpus, corpus, corpus, levels, cfg,
                     tiny_train_config(epochs=40), seed=1)
        assert set(a.cells) == {(s.level.value, t.level.value)
                                for s in levels for t in levels}
        for key in a.cells:
            assert a.cells[key].accuracy == b.cells[key].accuracy
            assert a.cells[key].mrr == b.cells[key].mrr

    @pytest.mark.parametrize("levels, message", [
        ([], "no replacement levels"),
        ([FULL, CONSERVATION, FULL], r"repeated replacement levels: \['full'\]"),
    ], ids=["empty", "repeated"])
    def test_levels_are_at_least_one_and_named_once(self, levels, message):
        corpus = separable_corpus(4)
        with pytest.raises(InvalidValue, match=f"^{message}$"):
            run_grid(corpus, corpus, corpus, levels,
                     EncoderConfig(EncoderKind.POOLED, d=4),
                     tiny_train_config(epochs=1))

    def test_to_records_format(self):
        corpus = separable_corpus(6)
        cfg = EncoderConfig(EncoderKind.POOLED, d=8)
        report = run_grid(corpus, corpus, corpus, [CONSERVATION], cfg,
                          tiny_train_config(epochs=20), seed=0)
        (line,) = report.to_records()
        src, tgt, mrr_s, acc, n = line.split("\t")
        assert src == tgt == "conservation"
        float(mrr_s), float(acc)
        assert int(n) == 6
        assert "conservation" in report.to_text()

    @pytest.mark.parametrize("kind", list(EncoderKind), ids=lambda k: k.value)
    def test_cells_do_not_depend_on_the_worker_count(self, monkeypatch, kind):
        corpus = symbol_dependent_corpus(8)
        cfg = EncoderConfig(kind, d=16, heads=2, d_k=8)
        levels = [CONSERVATION, FULL]
        cells = []
        for workers in (1, 2):
            monkeypatch.setattr(forkmap, "_WORKERS", workers)
            assert processes(len(levels)) == workers
            cells.append(run_grid(corpus, corpus, corpus, levels, cfg,
                                  tiny_train_config(epochs=40), seed=1).cells)
            assert_no_child_left()
        assert cells[0] == cells[1]

    def test_a_dead_worker_is_one_error_line(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setattr(forkmap, "_WORKERS", 2)
        caller = os.getpid()

        def die(*args, **kwargs):
            if os.getpid() == caller:
                raise AssertionError("a row trained in the calling process")
            os._exit(1)

        monkeypatch.setattr(evalharness, "train", die)
        corpus = tmp_path / "corpus.tsv"
        write_corpus(separable_corpus(6), corpus)
        code = main(["grid", *[str(corpus)] * 3, "--levels",
                     "conservation,full", "--out-dir", str(tmp_path), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: a grid worker process ended before returning its row\n")
        assert_no_child_left()
