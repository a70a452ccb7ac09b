"""Central finite-difference oracle for the manual backward passes."""

from __future__ import annotations

import numpy as np

from proofmatch.corpus import Corpus, PairRecord, math_token
from proofmatch.encoders import (
    EncoderConfig,
    EncoderKind,
    Pooling,
    build_vocab,
    forward,
    init_model,
    score_matrix,
)
from proofmatch.training import batch_loss_and_grads

FD_STEP = 1e-5
FD_TOL = 1e-4


def random_config(rng: np.random.Generator) -> EncoderConfig:
    kind = EncoderKind.POOLED if rng.random() < 0.5 else EncoderKind.SELF_ATTENTIVE
    pooling = Pooling.MAX if rng.random() < 0.5 else Pooling.MEAN
    d = int(rng.choice([4, 6, 8]))
    heads = 2 if d % 2 == 0 else 1
    return EncoderConfig(kind, d=d, layers=int(rng.integers(1, 3)),
                         heads=heads, d_k=int(rng.integers(2, 4)),
                         pooling=pooling)


def random_batch(rng: np.random.Generator, vocab_size: int = 8,
                 b: int | None = None) -> list[PairRecord]:
    b = b or int(rng.integers(2, 4))
    pairs = []
    for i in range(b):
        n_s, n_p = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        pairs.append(PairRecord(
            f"p{i}", "a", [],
            [math_token(f"v{rng.integers(vocab_size)}") for _ in range(n_s)],
            [math_token(f"v{rng.integers(vocab_size)}") for _ in range(n_p)]))
    return pairs


def random_model(rng: np.random.Generator, config: EncoderConfig,
                 vocab_size: int = 8):
    corpus = Corpus([PairRecord(
        "all", "a", [],
        [math_token(f"v{i}") for i in range(vocab_size)],
        [math_token(f"v{i}") for i in range(vocab_size)])])
    vocab = build_vocab(corpus, 1)
    return init_model(vocab, config, seed=int(rng.integers(1 << 31)))


def max_gradient_error(state, batch, loss_fn,
                       h: float = FD_STEP) -> float:
    """Worst |analytic - central-FD| / max(1, |analytic|) over every
    parameter of the model. The finite differences need only the loss:
    each evaluation encodes the batch, scores it and applies ``loss_fn``,
    with no backward pass, and on the unperturbed model that loss is
    bit-equal to ``batch_loss_and_grads``'s."""
    b = len(batch)
    ids = state.vocab.encode_docs([p.statement for p in batch]
                                  + [p.proof for p in batch])
    loss, grads = batch_loss_and_grads(state, batch, loss_fn, ids)

    def loss_now() -> float:
        vecs = np.stack([forward(state, x)[0] for x in ids])
        return loss_fn(score_matrix(state, vecs[:b], vecs[b:]))[0]

    assert loss_now() == loss

    worst = 0.0
    for arr, analytic in zip(state.param_arrays(), grads.param_arrays(),
                             strict=True):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + h
            up = loss_now()
            arr[idx] = old - h
            down = loss_now()
            arr[idx] = old
            fd = (up - down) / (2 * h)
            err = abs(fd - analytic[idx]) / max(1.0, abs(analytic[idx]))
            worst = max(worst, err)
    return worst
