"""Training: in-batch softmax loss, structured max-margin loss, the hybrid
alternating objective, and the optimization loop.

The local loss is the negative log softmax of the diagonal of an in-batch
score matrix. The global loss is a structured hinge whose margin counts
misassigned rows; the violating assignment is found by cost-augmented
decoding (solve the assignment problem on the scores plus a unit margin on
every off-diagonal cell).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import assignment
from .corpus import Corpus
from .decoding import build_score_matrix, decode_local
from .encoders import (
    ModelState,
    add_grads,
    apply_gradients,
    backward,
    forward,
    map_documents,
    score_matrix,
    score_matrix_backward,
)
from .errors import InvalidValue, ProofmatchError, check_seed


class NonFiniteLoss(ProofmatchError):
    def __init__(self, batch_ids: list[str]):
        super().__init__(f"non-finite loss on batch {batch_ids}")
        self.batch_ids = batch_ids


class Objective(enum.Enum):
    LOCAL = "local"
    HYBRID = "hybrid"


@dataclass
class TrainConfig:
    objective: Objective = Objective.LOCAL
    batch_size: int = 60
    epochs: int = 100
    lr: float = 2.0
    lr_decay: float = 0.996
    eval_every: int = 20
    seed: int = 0
    clip_norm: ClassVar[float] = 5.0

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidValue("epochs must be >= 1")
        if self.batch_size < 2:
            raise InvalidValue("batch_size must be >= 2 (in-batch negatives)")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise InvalidValue(f"lr must be finite and positive, not {self.lr}")
        if not 0 < self.lr_decay <= 1:
            raise InvalidValue("lr_decay must be in (0, 1]")
        if self.eval_every < 1:
            raise InvalidValue("eval_every must be >= 1")
        check_seed(self.seed)


@dataclass
class LossReport:
    epoch: int
    step: int
    objective: str
    loss: float
    lr: float
    grad_norm: float
    batch_ids: list[str]


@dataclass
class TrainHistory:
    steps: list[LossReport] = field(default_factory=list)
    dev_accuracy: list[tuple[int, float]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Losses on an in-batch score matrix


def _logsumexp_rows(m: np.ndarray) -> np.ndarray:
    """log(sum(exp(row))) of each row of a real 2-D array, with the
    operations, and so the bits, of scipy 1.17's ``logsumexp(m, axis=1)``:
    the row's maxima are counted apart from the shifted sum of the other
    terms, and a row whose result is not finite (an infinite or NaN entry)
    takes the direct value instead. Training needs no scipy module for it."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = m.max(axis=1, keepdims=True)
        at_top = m == top
        count = at_top.sum(axis=1, keepdims=True, dtype=m.dtype)
        rest = np.exp(np.where(at_top, -np.inf, m) - top).sum(
            axis=1, keepdims=True)
        out = np.log1p(rest / count) + np.log(count) + top
        direct = np.log(np.exp(m).sum(axis=1, keepdims=True))
        return np.where(np.isfinite(out), out, direct)[:, 0]


def local_loss(m_b: np.ndarray) -> tuple[float, np.ndarray]:
    """Sum over the batch of -log softmax at the diagonal.
    Gradient is softmax(rows) minus the identity."""
    b = m_b.shape[0]
    if b < 2:
        raise InvalidValue("local loss needs at least two in-batch pairs")
    lse = _logsumexp_rows(m_b)
    loss = float(np.sum(lse - np.diag(m_b)))
    probs = np.exp(m_b - lse[:, None])
    grad = probs - np.eye(b)
    return loss, grad


def structured_cost(a_hat: np.ndarray) -> int:
    """Number of misassigned rows; equals the sum of positive cells of the
    assignment-matrix difference with the identity."""
    return int(np.count_nonzero(a_hat != np.arange(len(a_hat))))


def global_loss(m_b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Structured hinge with cost-augmented decoding.

    The violating assignment maximizes score plus a unit margin on every
    off-diagonal cell, so the hinge argument is always >= its value at the
    identity (zero) and the loss is non-negative by construction.
    """
    b = m_b.shape[0]
    augmented = m_b + 1.0 - np.eye(b)
    a_hat, _ = assignment.solve_dense(augmented)
    rows = np.arange(b)
    margin = structured_cost(a_hat)
    value = margin + float(m_b[rows, a_hat].sum()) - float(np.trace(m_b))
    loss = max(0.0, value)
    grad = np.zeros_like(m_b)
    if loss > 0.0:
        grad[rows, a_hat] += 1.0
        grad -= np.eye(b)
    return loss, grad, a_hat


# ---------------------------------------------------------------------------
# Batch forward/backward through encoder + head


def batch_loss_and_grads(state: ModelState, batch_pairs, loss_fn,
                         ids: list[np.ndarray] | None = None
                         ) -> tuple[float, ModelState]:
    """Encode a batch, apply loss_fn to the in-batch score matrix, and
    backpropagate to all parameters. ``ids`` holds the batch's statement
    id arrays, then its proof id arrays, when the caller has them already;
    otherwise statements and proofs go through one ``encode_ids`` call."""
    b = len(batch_pairs)
    if ids is None:
        ids = state.vocab.encode_docs([p.statement for p in batch_pairs]
                                      + [p.proof for p in batch_pairs])
    vecs, caches = zip(*map_documents(state, ids, forward, ids))
    s_vecs = np.stack(vecs[:b])
    p_vecs = np.stack(vecs[b:])
    m_b = score_matrix(state, s_vecs, p_vecs)
    loss, d_m = loss_fn(m_b)
    grads = state.zeros()
    d_s, d_p = score_matrix_backward(state, s_vecs, p_vecs, d_m, grads)
    # Documents backpropagate on the encoder pool; their products are added
    # here in document order, so every sum is the serial one. The map holds
    # the only reference to the caches, so on the pool each is freed once
    # its document's backward has run.
    docs = map_documents(state, ids, backward, caches, itertools.chain(d_s, d_p))
    del caches
    for doc in docs:
        add_grads(grads, doc)
    return loss, grads


def _global(m):
    if not np.isfinite(m).all():
        # no assignment is defined, and ``train`` reports a NaN loss as
        # NonFiniteLoss
        return math.nan, np.zeros_like(m)
    loss, grad, _ = global_loss(m)
    return loss, grad


# ---------------------------------------------------------------------------
# Averaged SGD (Polyak tail averaging)


class _TailAverage:
    def __init__(self):
        self.count = 0
        self.state: ModelState | None = None

    def update(self, state: ModelState) -> None:
        self.count += 1
        if self.state is None:
            self.state = state.copy()
            return
        w = 1.0 / self.count
        avg = self.state
        for a, s in zip(avg.param_arrays(), state.param_arrays(), strict=True):
            a += w * (s - a)


def train(corpus: Corpus, dev_corpus: Corpus, state: ModelState,
          config: TrainConfig) -> tuple[ModelState, TrainHistory]:
    """Averaged SGD with per-epoch exponential learning-rate decay.

    An epoch draws batches uniformly without replacement (reshuffled each
    epoch). The hybrid objective alternates one local and one global step
    on fresh batches, starting each epoch with a local one. Once the second
    half of the epochs begins, evaluation and the returned state use the
    tail average of the parameters over its epochs (Polyak & Juditsky,
    1992); the returned state is the evaluated one with the best dev
    accuracy under local decoding. The train and dev corpora are each
    turned into ids once, by one ``encode_docs`` call over the statements
    then the proofs, and the steps and evaluations read those id arrays.
    """
    if not corpus.pairs or not dev_corpus.pairs:
        raise InvalidValue("train and dev corpora must be non-empty")
    n = len(corpus.pairs)
    if n < 2:
        raise InvalidValue("the train corpus needs at least 2 pairs "
                           "(in-batch negatives)")
    rng = np.random.default_rng(config.seed)
    b = config.batch_size
    lr = config.lr
    losses = [("local", local_loss)]
    if config.objective is Objective.HYBRID:
        losses.append(("global", _global))
    history = TrainHistory()
    tail = _TailAverage()
    tail_start = config.epochs // 2  # averaging over the second half
    best_acc = -1.0  # the first evaluation is always the best so far
    train_ids = state.vocab.encode_docs([p.statement for p in corpus.pairs]
                                        + [p.proof for p in corpus.pairs])
    dev_statements = [p.statement for p in dev_corpus.pairs]
    dev_proofs = [p.proof for p in dev_corpus.pairs]
    dev_ids = state.vocab.encode_docs(dev_statements + dev_proofs)

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        # a lone last pair has no in-batch negative, so no batch starts at n - 1
        for start, (tag, loss_fn) in zip(range(0, n - 1, b),
                                         itertools.cycle(losses)):
            chunk = order[start:start + b]
            batch = [corpus.pairs[i] for i in chunk]
            batch_ids = [p.pair_id for p in batch]
            loss, grads = batch_loss_and_grads(
                state, batch, loss_fn,
                [train_ids[i] for i in chunk] + [train_ids[n + i] for i in chunk])
            if not math.isfinite(loss):
                raise NonFiniteLoss(batch_ids)
            norm = grads.global_norm()
            if not math.isfinite(norm):
                # lr * clip_norm / inf would be a zero step
                raise ProofmatchError(f"non-finite gradient norm on batch {batch_ids}")
            step_size = lr
            if norm > config.clip_norm:
                step_size = lr * config.clip_norm / norm
            apply_gradients(state, grads, step_size)
            history.steps.append(LossReport(
                epoch, len(history.steps) + 1, tag, loss, lr, norm, batch_ids))
        if epoch > tail_start:
            tail.update(state)
        lr *= config.lr_decay
        if epoch % config.eval_every == 0 or epoch == config.epochs:
            eval_state = state if tail.state is None else tail.state
            m = build_score_matrix(eval_state, dev_statements, dev_proofs, dev_ids)
            acc = float(np.mean(decode_local(m).gold_rank == 1))
            history.dev_accuracy.append((epoch, acc))
            if acc > best_acc:
                best_acc = acc
                best_state = eval_state.copy()
    return best_state, history


def write_history(history: TrainHistory, path) -> None:
    """Line-delimited log:
    epoch<TAB>step<TAB>objective<TAB>loss<TAB>lr<TAB>grad_norm, where
    grad_norm is the step's global gradient norm before clipping."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in history.steps:
            fh.write(f"{rec.epoch}\t{rec.step}\t{rec.objective}\t"
                     f"{rec.loss:.10g}\t{rec.lr:.10g}\t{rec.grad_norm:.10g}\n")
