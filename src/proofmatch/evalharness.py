"""Evaluation metrics (MRR, accuracy), assignment-distribution statistics,
and the cross-replacement experiment grid.

The grid's rows, one per source level, run in parallel: one row per usable
core, never more worker processes than levels. A row reads no other row's
results, so the cells are the same for any core count. A self-attentive
grid uses up to processes × threads threads, since each worker runs its
own encoder pool. The workers are forked from the caller and inherit the
inputs, which are not pickled; a row's index goes in and its cells come
back. Where ``fork`` is not a start method, the rows run one after another
in the calling process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoders
from .corpus import Corpus
from .decoding import MatchResult, RankingResult, build_score_matrix, decode_local
from .encoders import EncoderConfig, ModelState, build_vocab, init_model
from .errors import InvalidValue, ProofmatchError
from .symbols import ProtectedSet, ReplacementLevel, mix_seed, replace_corpus
from .training import TrainConfig, train


class EmptyInput(ProofmatchError):
    pass


class WorkerDied(ProofmatchError):
    """A grid worker process ended without returning its row."""


@dataclass
class MetricReport:
    mrr: float | None  # None under global decoding
    accuracy: float
    n: int


def mrr(gold_ranks) -> float:
    """Mean reciprocal rank: (1/N) sum of 1/rank."""
    ranks = np.asarray(gold_ranks)
    if ranks.size == 0:
        raise EmptyInput("mrr over an empty rank list")
    if (ranks < 1).any():
        raise InvalidValue("ranks must be >= 1")
    return float(np.mean(1.0 / ranks))


def accuracy_local(result: RankingResult) -> float:
    return float(np.mean(result.gold_rank == 1))


def accuracy_global(result: MatchResult) -> float:
    n = len(result.assignment)
    return float(np.mean(result.assignment == np.arange(n)))


def report_local(result: RankingResult) -> MetricReport:
    return MetricReport(mrr(result.gold_rank), accuracy_local(result),
                        len(result.gold_rank))


def report_global(result: MatchResult) -> MetricReport:
    return MetricReport(None, accuracy_global(result), len(result.assignment))


# ---------------------------------------------------------------------------
# Assignment distribution under local decoding

# The assign.tsv buckets: proofs whose count of statements that rank them
# first passes the comparison; the >= buckets are cumulative.
_BUCKETS = ((">=", 20), (">=", 10), (">=", 5), (">=", 2), ("=", 1), ("<", 1))
_COMPARE = {">=": np.greater_equal, "=": np.equal, "<": np.less}


def assignment_distribution(result: RankingResult) -> list[tuple[str, int, float]]:
    """One ``(label, count, percent of proofs)`` row per bucket."""
    n = len(result.top1)
    chosen = np.bincount(result.top1, minlength=n)
    rows = []
    for op, t in _BUCKETS:
        count = int(np.count_nonzero(_COMPARE[op](chosen, t)))
        rows.append((f"{op}{t}", count, 100.0 * count / n))
    return rows


# ---------------------------------------------------------------------------
# Cross-replacement grid


@dataclass
class GridReport:
    levels: list[ReplacementLevel]
    cells: dict[tuple[str, str], MetricReport]

    def to_text(self) -> str:
        names = [lv.level.value for lv in self.levels]
        width = max(len(n) for n in names) + 2
        lines = ["source\\target".ljust(width)
                 + "".join(n.rjust(width) for n in names)]
        for src in names:
            row = [src.ljust(width)]
            for tgt in names:
                rep = self.cells[(src, tgt)]
                row.append(f"{100 * rep.accuracy:5.1f}".rjust(width))
            lines.append("".join(row))
        return "\n".join(lines)

    def to_records(self) -> list[str]:
        """source<TAB>target<TAB>mrr<TAB>accuracy<TAB>n lines."""
        out = []
        for (src, tgt), rep in sorted(self.cells.items()):
            mrr_s = f"{rep.mrr:.6f}" if rep.mrr is not None else "-"
            out.append(f"{src}\t{tgt}\t{mrr_s}\t{rep.accuracy:.6f}\t{rep.n}")
        return out


def evaluate_local(state: ModelState, corpus: Corpus) -> MetricReport:
    m = build_score_matrix(state,
                           [p.statement for p in corpus.pairs],
                           [p.proof for p in corpus.pairs])
    return report_local(decode_local(m))


def grid_processes(levels: int) -> int:
    """The number of processes that run a grid of ``levels`` source levels:
    one row per usable core, never more workers than rows. It is 1, the
    calling process, where ``fork`` is not a start method."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(levels, encoders._WORKERS)


def run_grid(train_corpus: Corpus, dev_corpus: Corpus, test_corpus: Corpus,
             levels: list[ReplacementLevel], encoder_config: EncoderConfig,
             train_config: TrainConfig,
             protected: ProtectedSet | None = None,
             seed: int = 0, min_freq: int = 1) -> GridReport:
    """For each source level, train one model on the source-replaced train
    split and evaluate it on every target-replaced test split. Replacement
    of each split uses an independent sub-seed, so the grid is deterministic
    for a fixed seed, and a row does not depend on which process runs it or
    on how many do (``grid_processes``)."""
    targets = [replace_corpus(test_corpus, lv, protected,
                              mix_seed(seed, f"test:{lv.level.value}"))
               for lv in levels]

    def row(i: int) -> list[MetricReport]:
        src = levels[i].level.value
        src_train = replace_corpus(train_corpus, levels[i], protected,
                                   mix_seed(seed, f"train:{src}"))
        src_dev = replace_corpus(dev_corpus, levels[i], protected,
                                 mix_seed(seed, f"dev:{src}"))
        vocab = build_vocab(src_train, min_freq)
        state = init_model(vocab, encoder_config, seed)
        best, _ = train(src_train, src_dev, state, train_config)
        return [evaluate_local(best, target) for target in targets]

    rows = _map_rows(row, len(levels))
    return GridReport(list(levels), {
        (src.level.value, tgt.level.value): cell
        for src, cells in zip(levels, rows, strict=True)
        for tgt, cell in zip(levels, cells, strict=True)})


# The row function of the grid that a worker process serves. It is set in
# the worker only, by the pool's initializer.
_row = None


def _serve(row) -> None:
    global _row
    _row = row


def _run_row(i: int) -> list[MetricReport]:
    return _row(i)


def _map_rows(row, n: int) -> list[list[MetricReport]]:
    """``row(i)`` for i in 0..n-1, in order, on ``grid_processes(n)``
    forked worker processes. ``row`` and the corpora it reads reach the
    workers as the initializer's argument, which a forked process inherits
    unpickled (pickling the corpora would take tens of milliseconds each
    way). Only the index goes to a worker and only the row's cells come
    back. Processes, not threads, since pooled training holds the GIL."""
    workers = grid_processes(n)
    if workers < 2:
        return list(map(row, range(n)))
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_serve, initargs=(row,))
    try:
        return list(pool.map(_run_row, range(n)))
    except BrokenProcessPool:
        raise WorkerDied("a grid worker process ended before "
                         "returning its row") from None
    finally:
        # joins every worker, after a failure too
        pool.shutdown(cancel_futures=True)
