"""Text encoders and the bilinear score head.

Two trainable encoders: a pooled-embedding encoder, and a self-attentive
encoder (multi-head scaled dot-product attention with a residual
connection around each layer, sinusoidal position encodings, then max or
mean pooling). Gradients are computed manually and are exact for the
implemented forward pass.

Under max pooling only the pooled rows R of the last layer's output carry
gradient. ``forward`` therefore keeps only those rows of that layer's
queries, attention matrix and head outputs, (H, |R|, d_k), (H, |R|, T)
and (|R|, d), and ``backward`` runs the layer on R alone: the residual and
query gradients reach those rows only. Earlier layers and mean pooling
keep and use all T rows. The attention softmax, forward and backward,
works in place in its score array instead of allocating a new one at each
step; the arithmetic is unchanged.

A training step holds every document's cache (``ForwardCache``) from its
forward pass until its backward, so the caches, not the arithmetic, set
the step's memory. A cache keeps only what ``backward`` reads and cannot
rebuild: each layer's q, k, v, attention and head outputs (cut to R at
the last layer under max pooling), and the pooled positions. No (T, d)
layer input or output is kept: ``backward`` rebuilds the inputs bit for
bit (``_layer_inputs``), a ``take`` and an add with one layer and a
(T, d)·(d, d) product for each further layer. A pooled encoder (no
layers) keeps none of a document's gathered rows: under max pooling its
cache is the ids and the d argmax positions, to which ``backward``
scatters the pooled gradient; under mean pooling it is the ids, and
``backward`` scatters grad/T to every cell. ``encode`` gives the pooled
vector alone, bit for bit ``forward``'s, and builds no cache (a pooled
encoder reduces the gathered rows with ``max`` or ``mean``); evaluation
(``decoding.encode_collection``) encodes with it.

``backward`` writes nothing: it returns one document's gradient products
(``DocGrads``), and ``add_grads`` adds them into a model's gradient. The
embedding gradient is a flat index, element ``id·d + column`` of the
embeddings, with one value each, added by one 1-D ``np.add.at``.
Training maps ``forward`` and ``backward``, and
``decoding.encode_collection`` maps ``encode``, over a collection with
``map_documents``. It runs a self-attentive collection worth a hand-off
as one work-balanced chunk per thread of a pool, one thread per usable
core, and anything else on the calling thread, and notes the threads it
ran on in the current ``forkmap.recording``. A training step hands its
caches to the backward map and keeps none, so each cache is freed once
its backward has run. The products are added on the calling thread in
document order, so results do not depend on the core count.

The encoders read documents as int64 id arrays. ``Vocabulary.encode_ids``
turns tokens into ids through a ``corpus.Memo`` that lives for one call:
the vocabulary, whose keys (from ``build_vocab`` or ``load_model``) are
separate objects from a corpus's tokens, is consulted once per distinct
token (see ``corpus`` for why that is faster). A collection's statements
and proofs, and a batch's, are encoded in one ``Vocabulary.encode_docs``
call over the statements, then the proofs, and ``forward`` takes each
document's ids.

The score head is one (d, d) array W, the last of
``ModelState.param_arrays()``. It has no bias: both decoders and both
losses read only differences between scores of one matrix, so a constant
added to every score could change no output and would get no gradient.
Model files are a versioned binary container: magic ``PMM1``, version,
vocabulary, config, seed, the row-major little-endian float32 tensors in
``_param_table`` order, a float32 slot that version 1 reserves (written as
0, and ignored when it is finite), and a trailing SHA-256 checksum. Each
fixed record is one ``struct.Struct`` that both sides use, and neither
copies the body: ``save_model`` writes each record to the file and to a
running checksum as it makes it, and ``load_model`` parses a view of the
bytes it read. What a file cannot store, or no vocabulary holds, is
refused when a ``Vocabulary`` is made.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import itertools
import math
import os
import struct
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import forkmap
from .corpus import Corpus, Font, Memo, Token, TokenKind
from .errors import InvalidValue, ProofmatchError, check_seed


class ModelFormatError(ProofmatchError):
    pass


# ---------------------------------------------------------------------------
# Vocabulary

UNK_ID = 0
# A model file stores min_freq and the encoder's shape as uint32 fields and
# a surface's byte length as a uint16.
_U32_MAX = 2**32 - 1
_SURFACE_MAX = 2**16 - 1


@dataclass
class Vocabulary:
    """Dense token ids; id 0 is UNK. Math and text tokens are distinct
    entries because Token equality includes the kind. ``id_of`` is built
    from ``tokens``: each token's id is its position."""

    tokens: list[Token | None]
    min_freq: int = 1
    id_of: dict[Token, int] = field(init=False)

    def __post_init__(self):
        self.id_of = {t: i for i, t in enumerate(self.tokens) if t is not None}
        # Refused here, so that a vocabulary no model file can store trains
        # nothing, and a file that is not a vocabulary does not load.
        if not self.tokens or self.tokens[0] is not None \
                or len(self.id_of) != len(self.tokens) - 1:
            raise InvalidValue("a vocabulary needs one UNK entry, at id 0, "
                               "and each token once")
        if not 1 <= self.min_freq <= _U32_MAX:
            raise InvalidValue(f"min_freq must be >= 1 and <= {_U32_MAX}, "
                               f"not {self.min_freq}")
        # A surface of n characters has at most 4n UTF-8 bytes.
        for surface in (t.surface for t in self.id_of
                        if len(t.surface) > _SURFACE_MAX // 4):
            if (size := len(surface.encode("utf-8"))) > _SURFACE_MAX:
                raise InvalidValue(f"a token surface of {size} UTF-8 bytes "
                                   f"({surface[:20]!r}...); a model file "
                                   f"stores up to {_SURFACE_MAX}")

    def __len__(self) -> int:
        return len(self.tokens)

    def encode_ids(self, doc: list[Token]) -> np.ndarray:
        """The id of every token of ``doc``, UNK_ID where it has none."""
        memo = Memo(lambda tok: self.id_of.get(tok, UNK_ID))
        return np.fromiter(map(memo.__getitem__, doc), dtype=np.int64,
                           count=len(doc))

    def encode_docs(self, docs: list[list[Token]]) -> list[np.ndarray]:
        """One id array per document, from a single ``encode_ids`` call
        over all of them."""
        ids = self.encode_ids([t for doc in docs for t in doc])
        ends = list(itertools.accumulate(len(doc) for doc in docs))
        return [ids[a:b] for a, b in zip([0] + ends, ends)]


def build_vocab(corpus: Corpus,
                min_freq: int = Vocabulary.min_freq) -> Vocabulary:
    """Tokens with frequency >= min_freq, ids by (frequency desc,
    first occurrence asc); everything else maps to UNK at encode time."""
    if not corpus.pairs:
        raise InvalidValue("cannot build a vocabulary from an empty corpus")
    freq: Counter[Token] = Counter()  # keys in order of first occurrence
    for pair in corpus.pairs:
        freq.update(pair.statement)
        freq.update(pair.proof)
    kept = [t for t, c in freq.items() if c >= min_freq]
    kept.sort(key=lambda t: -freq[t])  # stable: ties keep first occurrence
    return Vocabulary([None, *kept], min_freq)


# ---------------------------------------------------------------------------
# Encoders


class EncoderKind(enum.Enum):
    POOLED = "pooled"
    SELF_ATTENTIVE = "selfattn"


class Pooling(enum.Enum):
    MAX = "max"
    MEAN = "mean"


@dataclass(frozen=True)
class EncoderConfig:
    kind: EncoderKind = EncoderKind.POOLED
    d: int = 64
    layers: int = 1
    heads: int = 2
    d_k: int = 32
    pooling: Pooling = Pooling.MAX

    def __post_init__(self):
        shape = (f"d={self.d}, layers={self.layers}, heads={self.heads}, "
                 f"d_k={self.d_k}")
        if self.d < 1 or min(self.layers, self.heads, self.d_k) < 0:
            raise InvalidValue(f"bad encoder shape: {shape}")
        # d, layers, heads and d_k are unsigned 32-bit checkpoint fields: a
        # larger shape could train, and then never be saved.
        if max(self.d, self.layers, self.heads, self.d_k) > _U32_MAX:
            raise InvalidValue(f"bad encoder shape: {shape}; a model file "
                               f"stores each up to {_U32_MAX}")
        if self.kind is EncoderKind.SELF_ATTENTIVE and (
                self.heads < 1 or self.d % self.heads or self.d_k < 1):
            raise InvalidValue(f"self-attention needs d={self.d} divisible by "
                               f"heads={self.heads} and d_k={self.d_k} >= 1")


# Full-scale reference shape; the desk-scale default is the dataclass default.
REFERENCE_CONFIG = EncoderConfig(EncoderKind.SELF_ATTENTIVE,
                                 d=300, layers=2, heads=4, d_k=128)


@dataclass
class LayerParams:
    wq: np.ndarray  # (H, d, d_k)
    wk: np.ndarray  # (H, d, d_k)
    wv: np.ndarray  # (H, d, d_v)
    wo: np.ndarray  # (d, d)

    def tensors(self) -> tuple[np.ndarray, ...]:
        return (self.wq, self.wk, self.wv, self.wo)


@dataclass
class ModelState:
    vocab: Vocabulary
    config: EncoderConfig
    embeddings: np.ndarray  # (|V|, d)
    layers: list[LayerParams]
    w: np.ndarray  # (d, d), the score head
    rng_seed: int = 0

    def copy(self) -> "ModelState":
        return _assemble(self.vocab, self.config,
                         [a.copy() for a in self.param_arrays()], self.rng_seed)

    def zeros(self) -> "ModelState":
        """Same shape, every parameter zero: the buffer a gradient fills."""
        return _assemble(self.vocab, self.config,
                         [np.zeros(a.shape) for a in self.param_arrays()],
                         self.rng_seed)

    def param_arrays(self) -> list[np.ndarray]:
        """Every parameter of the model: embeddings, each layer's tensors in
        order, then the head's W."""
        return [self.embeddings, *(a for l in self.layers for a in l.tensors()),
                self.w]

    def global_norm(self) -> float:
        """The L2 norm over every parameter."""
        return math.sqrt(sum(float(np.sum(a * a)) for a in self.param_arrays()))


def _param_table(n_tokens: int, config: EncoderConfig):
    """The name and shape of each of ``param_arrays()`` for a model of this
    config, in order."""
    d, h = config.d, config.heads
    yield "embeddings", (n_tokens, d)
    if config.kind is EncoderKind.SELF_ATTENTIVE:
        layer = (("wq", (h, d, config.d_k)), ("wk", (h, d, config.d_k)),
                 ("wv", (h, d, d // h)), ("wo", (d, d)))
        for i in range(config.layers):
            yield from ((f"layers[{i}].{name}", shape) for name, shape in layer)
    yield "w", (d, d)


def _assemble(vocab: Vocabulary, config: EncoderConfig,
              arrays: list[np.ndarray], seed: int) -> ModelState:
    """The model whose ``param_arrays()`` are ``arrays``."""
    embeddings, *layer_arrays, w = arrays
    n = len(fields(LayerParams))
    layers = [LayerParams(*layer_arrays[i:i + n])
              for i in range(0, len(layer_arrays), n)]
    return ModelState(vocab, config, embeddings, layers, w, seed)


def init_model(vocab: Vocabulary, config: EncoderConfig,
               seed: int = 0) -> ModelState:
    """Uniform(-1/sqrt(d), 1/sqrt(d)) embeddings and projections,
    W = I/sqrt(d)."""
    check_seed(seed)
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(config.d)
    emb_shape, *layer_shapes, _ = (s for _, s in _param_table(len(vocab), config))
    # The draw order is part of what a seed means: layers, then embeddings.
    layer_arrays = [rng.uniform(-scale, scale, size=s) for s in layer_shapes]
    embeddings = rng.uniform(-scale, scale, size=emb_shape)
    return _assemble(vocab, config,
                     [embeddings, *layer_arrays, np.eye(config.d) * scale], seed)


# One read-only sinusoid table per width d. Row p does not depend on the
# table length, so a longer document regrows the table and every caller
# gets an exact slice of the same values. Pool threads may regrow it at the
# same time; each slices the table it read or built, so a lost update only
# costs a rebuild.
_POSITION_TABLES: dict[int, np.ndarray] = {}


def positional_encoding(n: int, d: int) -> np.ndarray:
    """Sinusoidal position encodings for positions 0..n-1, shape (n, d).
    The returned array is a read-only view of a shared table."""
    table = _POSITION_TABLES.get(d)
    if table is None or table.shape[0] < n:
        pos = np.arange(n)[:, None]
        i = np.arange(d)[None, :]
        angle = pos / np.power(10000.0, (2 * (i // 2)) / d)
        table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
        table.flags.writeable = False
        _POSITION_TABLES[d] = table
    return table[:n]


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place: returns ``x``."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


@dataclass
class LayerCache:
    """One layer's activations, without its input, which ``backward``
    rebuilds (``_layer_inputs``). Under max pooling the last layer keeps
    only the pooled rows R = ``np.unique(pool_idx)`` of ``q``, ``attn`` and
    ``concat``, the only rows of them that ``backward`` reads."""
    q: np.ndarray             # (H, T, d_k), or (H, |R|, d_k)
    k: np.ndarray             # (H, T, d_k)
    v: np.ndarray             # (H, T, d_v)
    attn: np.ndarray          # (H, T, T), or (H, |R|, T)
    concat: np.ndarray        # (T, d), or (|R|, d)


@dataclass
class ForwardCache:
    """What ``backward`` reads of one document's forward pass. Without
    layers that is the ids and, under max pooling, the argmax positions:
    the (T, d) gather is not kept. With layers it is also each layer's
    cache and the model's embedding table, by reference; the last layer's
    (T, d) output is not kept, since backward starts from the gradient of
    the pooled vector."""
    ids: np.ndarray
    embeddings: np.ndarray | None = None  # with layers: the model's, shared
    layers: list[LayerCache] = field(default_factory=list)
    # Under max pooling: the argmax positions, and with layers R, the
    # distinct ones in ascending order
    pool_idx: np.ndarray | None = None
    pool_rows: np.ndarray | None = None

    @property
    def x0(self) -> np.ndarray | None:
        """With layers, the first layer's input, embeddings + positions,
        built anew on each read by the operations ``forward`` ran, so bit
        for bit its values while the embeddings are unchanged."""
        if self.embeddings is None:
            return None
        return (_embed(self.embeddings, self.ids)
                + positional_encoding(len(self.ids), self.embeddings.shape[1]))


def _embed(embeddings: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The (T, d) embedding rows of a document's ids, gathered with
    ``take``."""
    if len(ids) == 0:
        raise InvalidValue("cannot encode an empty document")
    return embeddings.take(ids, axis=0)


def encode(state: ModelState, ids: np.ndarray) -> np.ndarray:
    """A document's pooled vector, bit for bit ``forward``'s, without the
    cache that only ``backward`` reads. An encoder without layers reduces
    the gathered rows directly: a column's max is its value at the argmax."""
    if state.layers:
        return forward(state, ids)[0]
    x = _embed(state.embeddings, ids)
    return x.max(axis=0) if state.config.pooling is Pooling.MAX else x.mean(axis=0)


def forward(state: ModelState, ids: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Encode a document given as its token ids (``Vocabulary.encode_ids``),
    keeping the activations needed for backward."""
    cfg = state.config
    cache = ForwardCache(ids, state.embeddings if state.layers else None)
    x = cache.x0 if state.layers else _embed(state.embeddings, ids)
    for lp in state.layers:
        q = x @ lp.wq                          # (H, T, d_k)
        k = x @ lp.wk
        v = x @ lp.wv                          # (H, T, d_v)
        scores = q @ k.transpose(0, 2, 1)      # (H, T, T)
        scores /= math.sqrt(cfg.d_k)
        attn = _softmax_rows(scores)
        heads = attn @ v                       # (H, T, d_v)
        concat = heads.transpose(1, 0, 2).reshape(x.shape[0], cfg.d)
        cache.layers.append(LayerCache(q, k, v, attn, concat))
        x = x + concat @ lp.wo                 # residual connection
    if cfg.pooling is Pooling.MEAN:
        return x.mean(axis=0), cache
    cache.pool_idx = np.argmax(x, axis=0)      # ties -> lowest position
    if cache.layers:
        cache.pool_rows = rows = np.unique(cache.pool_idx)
        last = cache.layers[-1]
        last.q, last.attn, last.concat = (last.q[:, rows], last.attn[:, rows],
                                          last.concat[rows])
    return x[cache.pool_idx, np.arange(cfg.d)], cache


def _layer_inputs(state: ModelState, cache: ForwardCache) -> list[np.ndarray]:
    """Each layer's (T, d) input, rebuilt by the operations ``forward`` ran
    on the same arrays, so bit for bit: ``cache.x0``, then x + concat @ wo
    through every layer but the last, whose concat rows are cached whole."""
    if not state.layers:
        return []
    inputs = [cache.x0]
    for lp, lc in zip(state.layers[:-1], cache.layers):
        inputs.append(inputs[-1] + lc.concat @ lp.wo)
    return inputs


# ---------------------------------------------------------------------------
# Gradients


@dataclass
class DocGrads:
    """One document's gradient products, which ``add_grads`` adds into a
    model's gradient: one term per tensor of each layer, in model order,
    and ``emb_values`` to add to the flattened embeddings at ``emb_index``
    (element ``id·d + column``), in token order."""
    layers: list[LayerParams]
    emb_index: np.ndarray     # int64, one entry per value
    emb_values: np.ndarray


def backward(state: ModelState, cache: ForwardCache,
             grad_vec: np.ndarray) -> DocGrads:
    """d(loss)/d(params) for one encoded document, given the gradient with
    respect to its pooled vector. It changes neither the model nor the
    cache, so documents can run on the encoder pool. The model's
    parameters, embeddings included, must be those ``forward`` read: the
    layer inputs are rebuilt from them."""
    cfg = state.config
    columns = np.arange(cfg.d)
    if cfg.pooling is Pooling.MAX and not state.layers:
        # Only the d pooled cells carry gradient; scatter those, not T×d.
        return DocGrads([], cache.ids[cache.pool_idx] * cfg.d + columns,
                        grad_vec)
    t_len = len(cache.ids)
    if cfg.pooling is Pooling.MAX:
        # Only the pooled rows R of the last layer's output carry gradient,
        # so that layer's backward runs on those rows: d_out is (|R|, d).
        rows = cache.pool_rows
        dx = np.zeros((len(rows), cfg.d))
        dx[np.searchsorted(rows, cache.pool_idx), columns] = grad_vec
    else:
        rows = slice(None)
        dx = np.zeros((t_len, cfg.d))
        dx += grad_vec[None, :] / t_len

    inputs = _layer_inputs(state, cache)
    layer_grads = []
    for lp, lc in zip(reversed(state.layers), reversed(cache.layers)):
        x_in = inputs.pop()  # dropped from the list as its layer starts
        # x_out = x_in + concat @ wo, on ``rows``; earlier layers need all T.
        # The cache of q, attn and concat holds ``rows`` only (LayerCache).
        d_out = dx
        g_wo = lc.concat.T @ d_out
        d_concat = d_out @ lp.wo.T
        d_heads = d_concat.reshape(len(d_out), cfg.heads, -1).transpose(1, 0, 2)
        d_attn = d_heads @ lc.v.transpose(0, 2, 1)          # (H, R, T)
        d_v = lc.attn.transpose(0, 2, 1) @ d_heads          # (H, T, d_v)
        # softmax rows backward, in place: d_attn becomes d_scores
        d_attn -= (d_attn * lc.attn).sum(axis=-1, keepdims=True)
        d_attn *= lc.attn
        d_attn /= math.sqrt(cfg.d_k)
        d_q = d_attn @ lc.k                                 # (H, R, d_k)
        d_k = d_attn.transpose(0, 2, 1) @ lc.q              # (H, T, d_k)
        dx_in = np.zeros((t_len, cfg.d))
        # residual branch and queries reach x_in only on ``rows``
        dx_in[rows] = d_out + (d_q @ lp.wq.transpose(0, 2, 1)).sum(0)
        dx_in += (d_k @ lp.wk.transpose(0, 2, 1)).sum(0)
        dx_in += (d_v @ lp.wv.transpose(0, 2, 1)).sum(0)
        layer_grads.append(LayerParams(x_in[rows].T @ d_q,
                                       x_in.T @ d_k, x_in.T @ d_v, g_wo))
        dx = dx_in
        rows = slice(None)
    index = (cache.ids[:, None] * cfg.d + columns).reshape(-1)
    return DocGrads(layer_grads[::-1], index, dx.reshape(-1))


def add_grads(grads: ModelState, doc: DocGrads) -> None:
    """Add one document's ``backward`` products into ``grads``. Adding the
    documents in order gives every parameter the same sequence of
    floating-point additions however the products were computed. The
    embedding gradient goes through one flat ``np.add.at``, which adds to
    each element in the order a 2-D scatter of whole rows would, in about
    a third of its time with the index built in ``backward``."""
    for lg, term in zip(grads.layers, doc.layers, strict=True):
        for g, t in zip(lg.tensors(), term.tensors()):
            g += t
    # a view: ``ModelState.zeros`` makes C-ordered arrays
    np.add.at(grads.embeddings.reshape(-1), doc.emb_index, doc.emb_values)


def score_matrix(state: ModelState, s_vecs: np.ndarray,
                 p_vecs: np.ndarray) -> np.ndarray:
    """All-pairs bilinear scores: m[i][j] = s_i^T W p_j."""
    return s_vecs @ state.w @ p_vecs.T


def score_matrix_backward(state: ModelState, s_vecs: np.ndarray,
                          p_vecs: np.ndarray, d_m: np.ndarray,
                          grads: ModelState) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of a scalar loss through the all-pairs score matrix.
    Returns (d_s_vecs, d_p_vecs) for the encoder backward passes."""
    grads.w += s_vecs.T @ d_m @ p_vecs
    d_s = d_m @ (p_vecs @ state.w.T)
    d_p = d_m.T @ (s_vecs @ state.w)
    return d_s, d_p


def apply_gradients(state: ModelState, grads: ModelState, lr: float) -> None:
    """Plain gradient-descent update (loss minimization)."""
    for p, g in zip(state.param_arrays(), grads.param_arrays(), strict=True):
        p -= lr * g


# ---------------------------------------------------------------------------
# The encoder pool

# One thread per usable core (``forkmap._WORKERS``). A self-attentive
# document spends its time in matmul and in ufunc loops over the attention
# array, where numpy releases the GIL, so long documents run side by side.
# A pooled one does not pay for a hand-off: on 2 cores, d=64, a pooled
# 60-pair ``batch_loss_and_grads`` took 2.8 ms serially and 3.5-4.2 ms on
# 2 threads. A self-attentive map stays serial when a document of its mean
# length costs less than this per layer (``_layer_work``): each numpy call
# on a pool thread waits for the GIL, a fixed cost per document. Pool time
# over serial time of ``batch_loss_and_grads`` on 30 pairs of T tokens, 2
# cores, BLAS on one thread (least..most of 3 medians of 21), with the
# cost per document and layer; the crossover lies between 6.4M and 7.5M:
#   d=64, 2 heads, d_k=32:  T=32 (2.7M) 1.83-1.93, T=64 (3.9M) 1.36-1.76,
#                           T=96 (5.5M) 1.09-1.28, T=112 (6.4M) 1.00-1.10,
#                           T=128 (7.5M) 0.92-1.11, T=144 (8.7M) 0.88-1.07,
#                           T=160 (9.9M) 0.88-1.00, T=192 (12.8M) 0.80-0.85;
#   d=128, 4 heads, d_k=32: T=16 (3.2M) 1.67-1.98, T=32 (4.5M) 1.32-1.52,
#                           T=64 (7.9M) 0.91-0.99;
#   d=8, 2 heads, d_k=3:    T=128 (3.6M) 1.40-1.73, T=192 (5.5M) 1.02-1.18,
#                           T=256 (8.2M) 0.91-1.03, T=320 (11.7M) 0.71-0.88,
#                           T=384 (15.9M) 0.64-0.65.
_MIN_POOL_WORK = 7_000_000


def _layer_work(config: EncoderConfig, t_len):
    """One attention layer's serial time on ``t_len`` tokens (a number or
    an array), in multiply-adds: those of the forward projections, scores
    and weighted values, 40 per cell of the (H, T, T) attention array,
    which the softmax walks element by element, and 2M per document for
    its numpy calls. The weights fit the serial times of the table above;
    by multiply-adds alone, d=128 at T=32 (2.4M) would outweigh d=8 at
    T=320 (1.5M)."""
    d, h, hk = config.d, config.heads, config.heads * config.d_k
    return t_len * d * (2 * hk + 2 * d) + t_len * t_len * (hk + d + 40 * h) + 2_000_000


@functools.cache
def _executor(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="proofmatch-encoder")


# A forked child (a grid worker) has only the thread that forked it. The
# cached pool's threads do not exist there, so its first map would never
# return: the child builds a pool of its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_executor.cache_clear)


def map_documents(state: ModelState, ids: list[np.ndarray], fn, *iterables):
    """``fn(state, *args)`` for each document of ``ids``, with ``args``
    drawn one per document from ``iterables``; the results come in document
    order. On the encoder pool, created on first use, the documents are cut
    into one contiguous chunk per thread, balanced by their ``_layer_work``
    (``balanced_chunks``), and each chunk is one task. A task
    drops each argument tuple as its call starts, and the caller's iterator
    drops each result once it has been read: a caller that keeps no other
    reference to an argument frees it once its document's call returns.
    The map runs on the calling thread instead when the model has no
    attention layers, there is one usable core or one document, or the
    documents are too little work (``_MIN_POOL_WORK``). ``fn`` must not
    write shared state. Tasks run under the caller's numpy error state,
    which is per thread. The map notes the threads it runs on, one per
    chunk or else 1, in the current ``forkmap.recording``."""
    cfg, workers = state.config, forkmap._WORKERS
    if (not state.layers or workers < 2 or len(ids) < 2
            or _layer_work(cfg, sum(map(len, ids)) / len(ids)) < _MIN_POOL_WORK):
        forkmap.note(threads=1)
        return map(fn, itertools.repeat(state), *iterables)
    work = _layer_work(cfg, np.fromiter(map(len, ids), float, len(ids)))
    chunks = balanced_chunks(work, workers)
    forkmap.note(threads=len(chunks))
    args = list(zip(*iterables))
    pool, err = _executor(workers), np.geterr()
    return _in_order([pool.submit(_run_chunk, err, fn, state, deque(args[chunk]))
                      for chunk in chunks])


def balanced_chunks(work: np.ndarray, parts: int) -> list[slice]:
    """At most ``parts`` contiguous, non-empty slices that cover the items
    of ``work`` in order, balanced by it: an item joins the chunk whose
    share of the total holds the item's midpoint."""
    ends = np.cumsum(work)
    cuts = np.searchsorted(ends - work / 2, ends[-1] * np.arange(1, parts) / parts)
    return [slice(a, b) for a, b in
            itertools.pairwise([0, *cuts.tolist(), len(work)]) if a < b]


def _run_chunk(err: dict[str, str], fn, state: ModelState,
               chunk: deque) -> deque:
    """``fn`` over a chunk's argument tuples in order, under the numpy error
    state ``err``; each tuple leaves the chunk as its call starts."""
    with np.errstate(**err):
        return deque(fn(state, *chunk.popleft()) for _ in range(len(chunk)))


def _in_order(tasks: list):
    """The results of each task in turn, each dropped once it is read."""
    for task in tasks:
        results = task.result()
        while results:
            yield results.popleft()


# ---------------------------------------------------------------------------
# Serialization

_MAGIC = b"PMM1"
_VERSION = 1
# The fixed records of the format: the header, a vocabulary entry (then its
# surface), the config and seed, a tensor's rank (then ``_dims`` and values).
_HEADER = struct.Struct("<4sIII")
_ENTRY = struct.Struct("<BBH")
_CONFIG = struct.Struct("<BIIIIBBQ")
_RANK = struct.Struct("<B")
_SLOT = struct.Struct("<f")
# Each coded field's values, indexed by their code; None marks a retired
# code. Code 0 was an untrainable TF-IDF kind; it is no longer accepted.
_KINDS = (None, EncoderKind.POOLED, EncoderKind.SELF_ATTENTIVE)
_POOLS = (Pooling.MAX, Pooling.MEAN)
_TOKEN_KINDS = (TokenKind.TEXT, TokenKind.MATH)
_FONTS = tuple(Font)
# Self-attentive encoders add the sinusoidal position table to the
# embeddings; code 0 (no positions) is no longer accepted.
_POSITION_CODE = 1
_F32_MAX = float(np.finfo(np.float32).max)


def _dims(ndim: int) -> struct.Struct:
    """The shape record of a tensor of rank ``ndim``: a uint32 per axis."""
    return struct.Struct(f"<{ndim}I")


def _in_f32_range(arr: np.ndarray) -> bool:
    return -_F32_MAX <= arr.min() and arr.max() <= _F32_MAX  # NaN is not


def _entry(tok: Token | None) -> bytes:
    if tok is None:  # UNK
        return _ENTRY.pack(255, 0, 0)
    data = tok.surface.encode("utf-8")
    kind, font = _TOKEN_KINDS.index(tok.kind), _FONTS.index(tok.font)
    return _ENTRY.pack(kind, font, len(data)) + data


def save_model(state: ModelState, path) -> None:
    vocab, cfg = state.vocab, state.config
    check_seed(state.rng_seed)
    for (name, _), arr in zip(_param_table(len(vocab), cfg),
                              state.param_arrays(), strict=True):
        if not _in_f32_range(arr):
            raise ModelFormatError(f"tensor {name} has values outside float32's "
                                   "finite range")
    # Write a temporary file beside the target and rename it over the
    # target, so an interrupted save leaves the previous checkpoint intact.
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    checksum = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            def put(data) -> None:
                fh.write(data)
                checksum.update(data)
            put(_HEADER.pack(_MAGIC, _VERSION, len(vocab), vocab.min_freq))
            put(b"".join(map(_entry, vocab.tokens)))
            put(_CONFIG.pack(_KINDS.index(cfg.kind), cfg.d, cfg.layers, cfg.heads,
                             cfg.d_k, _POOLS.index(cfg.pooling), _POSITION_CODE,
                             state.rng_seed))
            for arr in state.param_arrays():
                values = np.ascontiguousarray(arr, dtype="<f4")
                put(_RANK.pack(values.ndim) + _dims(values.ndim).pack(*values.shape))
                put(values)
            put(_SLOT.pack(0.0))
            fh.write(checksum.digest())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_model(path) -> ModelState:
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    if len(blob) < len(_MAGIC) + 32 or blob[:len(_MAGIC)] != _MAGIC:
        raise ModelFormatError("bad magic or truncated model file")
    body, checksum = blob[:-32], blob[-32:]  # the body's SHA-256 follows it
    if hashlib.sha256(body).digest() != checksum:
        raise ModelFormatError("checksum mismatch")
    try:
        state, off = _read_body(body)
    # a short body, bad UTF-8 or config, or a tensor past the address space
    except (struct.error, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model body: {exc}") from exc
    if off != len(body):
        raise ModelFormatError(f"{len(body) - off} bytes after the model body")
    return state


def _decode(values: tuple, code: int, what: str):
    """The value of ``code`` in a coded field's ``values``."""
    if code >= len(values) or values[code] is None:
        raise ModelFormatError(f"unknown {what} code {code}")
    return values[code]


def _read_body(buf: memoryview) -> tuple[ModelState, int]:
    """Parse a checksummed body; returns the model and the end offset."""
    _, version, n_tokens, min_freq = _HEADER.unpack_from(buf)
    if version != _VERSION:
        raise ModelFormatError(f"unsupported model version {version}")
    off = _HEADER.size
    tokens: list[Token | None] = []
    for _ in range(n_tokens):
        kind_c, font_c, length = _ENTRY.unpack_from(buf, off)
        off += _ENTRY.size
        if kind_c == 255:  # UNK
            tokens.append(None)
            continue
        surface = str(buf[off:off + length], "utf-8")
        off += length
        tokens.append(Token(_decode(_TOKEN_KINDS, kind_c, "token kind"),
                            surface, _decode(_FONTS, font_c, "font")))
    vocab = Vocabulary(tokens, min_freq)
    kind_c, d, layers_n, heads, d_k, pool_c, pos_c, seed = \
        _CONFIG.unpack_from(buf, off)
    off += _CONFIG.size
    if pos_c != _POSITION_CODE:
        raise ModelFormatError(f"unknown position code {pos_c}")
    cfg = EncoderConfig(_decode(_KINDS, kind_c, "encoder"), d, layers_n,
                        heads, d_k, _decode(_POOLS, pool_c, "pooling"))
    arrays = []
    # The table is walked as it is read: a corrupt layer count stops at the
    # first tensor that is not there, not after building its whole table.
    for name, shape in _param_table(n_tokens, cfg):
        dims = _dims(_RANK.unpack_from(buf, off)[0])
        if dims.unpack_from(buf, off + _RANK.size) != shape:
            raise ModelFormatError("tensor shapes do not match the model config")
        off += _RANK.size + dims.size
        arr = np.frombuffer(buf, "<f4", math.prod(shape), off).reshape(shape)
        if not _in_f32_range(arr):
            raise ModelFormatError(f"non-finite values in tensor {name}")
        arrays.append(arr.astype(np.float64))
        off += arr.nbytes
    # Older files hold the score head's former bias here. A constant added
    # to every score changes no decoded output, so a finite one is dropped.
    if not math.isfinite(_SLOT.unpack_from(buf, off)[0]):
        raise ModelFormatError("non-finite value in the reserved slot")
    return _assemble(vocab, cfg, arrays, seed), off + _SLOT.size
