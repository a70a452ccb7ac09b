"""Dense self-attentive forward and backward: a reference for the
row-restricted ``encoders.backward`` and the in-place softmax.

The forward allocates a fresh array at every softmax step and caches every
row of every layer, and the backward runs every layer over all T rows, so
it reads every row of the last layer's cache even when max pooling gives
gradient to a few of them. Under max pooling ``encoders.forward`` caches
only the pooled rows of the last layer's q, attn and concat, so its cache
feeds ``encoders.backward`` only; under mean pooling the two layouts are
the same. Its caches are types of its own that keep every layer's input,
which ``encoders.forward`` does not keep but rebuilds in ``backward``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from proofmatch.encoders import (
    EncoderKind,
    ModelState,
    Pooling,
    positional_encoding,
)


@dataclass
class DenseLayerCache:
    x_in: np.ndarray          # (T, d)
    q: np.ndarray             # (H, T, d_k)
    k: np.ndarray             # (H, T, d_k)
    v: np.ndarray             # (H, T, d_v)
    attn: np.ndarray          # (H, T, T)
    concat: np.ndarray        # (T, d)


@dataclass
class DenseCache:
    ids: np.ndarray
    x0: np.ndarray
    layers: list[DenseLayerCache]
    pool_idx: np.ndarray | None


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward_dense(state: ModelState,
                  ids: np.ndarray) -> tuple[np.ndarray, DenseCache]:
    cfg = state.config
    x = state.embeddings[ids].astype(np.float64, copy=False)
    if cfg.kind is EncoderKind.SELF_ATTENTIVE and state.layers:
        x = x + positional_encoding(len(ids), cfg.d)
    x0 = x
    caches = []
    for lp in state.layers:
        q = x @ lp.wq
        k = x @ lp.wk
        v = x @ lp.wv
        attn = _softmax_rows(q @ k.transpose(0, 2, 1) / math.sqrt(cfg.d_k))
        concat = (attn @ v).transpose(1, 0, 2).reshape(x.shape[0], cfg.d)
        caches.append(DenseLayerCache(x, q, k, v, attn, concat))
        x = x + concat @ lp.wo
    if cfg.pooling is Pooling.MAX:
        pool_idx = np.argmax(x, axis=0)
        vec = x[pool_idx, np.arange(cfg.d)]
    else:
        pool_idx = None
        vec = x.mean(axis=0)
    return vec, DenseCache(ids, x0, caches, pool_idx)


def backward_dense(state: ModelState, cache: DenseCache,
                   grad_vec: np.ndarray, grads: ModelState) -> None:
    """Add the document's parameter gradients to ``grads``; every layer's
    backward runs over all T rows."""
    cfg = state.config
    t_len = cache.x0.shape[0]
    dx = np.zeros((t_len, cfg.d))
    if cfg.pooling is Pooling.MAX:
        dx[cache.pool_idx, np.arange(cfg.d)] = grad_vec
    else:
        dx += grad_vec[None, :] / t_len
    for lp, lc, lg in zip(reversed(state.layers), reversed(cache.layers),
                          reversed(grads.layers)):
        d_out = dx
        lg.wo += lc.concat.T @ d_out
        d_concat = d_out @ lp.wo.T
        d_heads = d_concat.reshape(t_len, cfg.heads, -1).transpose(1, 0, 2)
        d_attn = d_heads @ lc.v.transpose(0, 2, 1)
        d_v = lc.attn.transpose(0, 2, 1) @ d_heads
        tmp = (d_attn * lc.attn).sum(axis=-1, keepdims=True)
        d_scores = lc.attn * (d_attn - tmp) / math.sqrt(cfg.d_k)
        d_q = d_scores @ lc.k
        d_k = d_scores.transpose(0, 2, 1) @ lc.q
        dx_in = d_out.copy()
        dx_in += (d_q @ lp.wq.transpose(0, 2, 1)).sum(0)
        dx_in += (d_k @ lp.wk.transpose(0, 2, 1)).sum(0)
        dx_in += (d_v @ lp.wv.transpose(0, 2, 1)).sum(0)
        lg.wq += lc.x_in.T @ d_q
        lg.wk += lc.x_in.T @ d_k
        lg.wv += lc.x_in.T @ d_v
        dx = dx_in
    np.add.at(grads.embeddings, cache.ids, dx)
