"""Evaluation metrics (MRR, accuracy), assignment-distribution statistics,
and the cross-replacement experiment grid.

The grid's rows, one per source level, run in parallel: one row per usable
core, never more worker processes than levels. A row reads no other row's
results, so the cells are the same for any core count. The rows run
through ``forkmap.fork_map``: the workers are forked from the caller and
inherit the inputs, which are not pickled (pickling the benchmark's
553/186/184-pair split takes about 16 ms, and unpickling it 15 ms); a
row's index goes in and its cells come back. Where ``os.fork`` does not
exist, the rows run one after another in the calling process. A row that
runs in a worker encodes its collections in that worker alone
(``forkmap.processes`` is 1 there), a self-attentive one on the worker's
own encoder pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .decoding import MatchResult, RankingResult, build_score_matrix, decode_local
from .encoders import EncoderConfig, ModelState, build_vocab, init_model
from .errors import InvalidValue
from .forkmap import fork_map
from .symbols import ReplacementLevel, mix_seed, replace_corpus
from .training import TrainConfig, train


@dataclass
class MetricReport:
    mrr: float | None  # None under global decoding
    accuracy: float
    n: int


def mrr(gold_ranks) -> float:
    """Mean reciprocal rank: (1/N) sum of 1/rank."""
    ranks = np.asarray(gold_ranks)
    if ranks.size == 0:
        raise InvalidValue("mrr over an empty rank list")
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
            out.append(f"{src}\t{tgt}\t{rep.mrr:.6f}\t{rep.accuracy:.6f}"
                       f"\t{rep.n}")
        return out


def evaluate_local(state: ModelState, corpus: Corpus) -> MetricReport:
    m = build_score_matrix(state,
                           [p.statement for p in corpus.pairs],
                           [p.proof for p in corpus.pairs])
    return report_local(decode_local(m))


def check_levels(levels: list[ReplacementLevel]) -> None:
    """A grid's levels are at least one, and no level is named twice: the
    cells are keyed by name."""
    if not levels:
        raise InvalidValue("no replacement levels")
    names = [lv.level.value for lv in levels]
    if repeated := sorted({name for name in names if names.count(name) > 1}):
        raise InvalidValue(f"repeated replacement levels: {repeated}")


def run_grid(train_corpus: Corpus, dev_corpus: Corpus, test_corpus: Corpus,
             levels: list[ReplacementLevel], encoder_config: EncoderConfig,
             train_config: TrainConfig,
             protected: frozenset[str] | None = None,
             seed: int = 0, min_freq: int = 1) -> GridReport:
    """For each source level, train one model on the source-replaced train
    split and evaluate it on every target-replaced test split. Replacement
    of each split uses an independent sub-seed, so the grid is deterministic
    for a fixed seed, and a row does not depend on which process runs it or
    on how many do (``forkmap.processes``)."""
    check_levels(levels)
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

    rows = fork_map(row, len(levels), "a grid worker", "row")
    return GridReport(list(levels), {
        (src.level.value, tgt.level.value): cell
        for src, cells in zip(levels, rows, strict=True)
        for tgt, cell in zip(levels, cells, strict=True)})
