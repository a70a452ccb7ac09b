import errno
import hashlib
import functools
import math
import re
import struct
import tempfile
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proofmatch import encoders, forkmap

from proofmatch.corpus import (Corpus, Font, PairRecord, math_token, read_corpus,
                               text_token, write_corpus)
from proofmatch.encoders import (
    EncoderConfig,
    EncoderKind,
    LayerParams,
    ModelFormatError,
    ModelState,
    Pooling,
    UNK_ID,
    Vocabulary,
    add_grads,
    backward,
    build_vocab,
    encode,
    forward,
    init_model,
    load_model,
    positional_encoding,
    save_model,
    score_matrix,
)
from proofmatch.decoding import encode_collection
from proofmatch.errors import InvalidValue
from proofmatch.training import batch_loss_and_grads, local_loss
from attention_reference import backward_dense, forward_dense
from conftest import (MARKER, letter_corpus, random_corpus, rebuilt_tokens,
                      save_marker_as)


def one_pair_corpus(tokens):
    return Corpus([PairRecord("p0", "a", [], list(tokens), list(tokens))])


class TestVocabulary:
    def test_min_freq_threshold(self):
        # "x" appears 5 times in total (statement only), min_freq 6 drops it
        corpus = Corpus([PairRecord("p0", "a", [],
                                    [math_token("x")] * 5,
                                    [text_token("w")] * 6)])
        vocab = build_vocab(corpus, min_freq=6)
        assert vocab.id_of.get(math_token("x")) is None
        assert vocab.encode_ids([math_token("x")])[0] == UNK_ID

    def test_math_text_disjoint_entries(self):
        corpus = one_pair_corpus([math_token("a"), text_token("a")])
        vocab = build_vocab(corpus, 1)
        assert vocab.id_of[math_token("a")] != vocab.id_of[text_token("a")]

    def test_deterministic_order(self):
        rng = np.random.default_rng(4)
        corpus = random_corpus(rng, 20)
        v1 = build_vocab(corpus, 1)
        v2 = build_vocab(corpus, 1)
        assert v1.tokens == v2.tokens

    def test_frequency_then_first_occurrence(self):
        corpus = one_pair_corpus([text_token("rare"), text_token("top"),
                                  text_token("top")])
        vocab = build_vocab(corpus, 1)
        assert vocab.id_of[text_token("top")] == 1
        assert vocab.id_of[text_token("rare")] == 2

    def test_ids_are_the_positions_of_the_tokens(self):
        a, b = math_token("a"), text_token("b")
        vocab = Vocabulary([None, a, b])
        assert vocab.id_of == {a: 1, b: 2}
        assert vocab.min_freq == 1

    def test_empty_corpus(self):
        with pytest.raises(InvalidValue,
                           match="^cannot build a vocabulary from an empty corpus$"):
            build_vocab(Corpus([]), 1)

    def test_equal_tokens_need_not_be_one_object(self, tmp_path):
        # the reader shares one Token per distinct item; a second read of the
        # file, or tokens rebuilt field by field, are equal values but other
        # objects, and every token gets the id a lookup of it gives, UNK
        # and empty documents included
        write_corpus(letter_corpus(np.random.default_rng(6), 20), tmp_path / "c.tsv")
        shared = read_corpus(tmp_path / "c.tsv")
        second = read_corpus(tmp_path / "c.tsv")
        assert shared.pairs[0].proof[0] is not second.pairs[0].proof[0]
        rebuilt = rebuilt_tokens(shared)
        vocab = build_vocab(shared, 27)  # about half the tokens are UNK
        assert build_vocab(rebuilt, 27).tokens == vocab.tokens
        unknown = [text_token("nowhere"), math_token("a", Font.SCRIPT)]
        expected = vocab.encode_docs([p.proof for p in shared.pairs])
        assert any(UNK_ID in ids for ids in expected) and len(vocab) > 2
        for corpus in (shared, second, rebuilt):
            docs = [p.proof for p in corpus.pairs]
            got = vocab.encode_docs(docs)
            assert [a.tolist() for a in got] == [b.tolist() for b in expected]
            for doc in docs + [unknown * 3, [], docs[0] + unknown]:
                ids = vocab.encode_ids(doc)
                assert ids.dtype == np.int64
                assert ids.tolist() == [vocab.id_of.get(t, UNK_ID) for t in doc]

    def test_ids_are_per_occurrence_lookups(self):
        corpus = one_pair_corpus([math_token("a"), text_token("a"),
                                  math_token("b", Font.BOLD)])
        vocab = build_vocab(corpus, 1)
        a, b, unk = math_token("a"), math_token("b", Font.BOLD), text_token("z")
        a_again = math_token("a")  # equal to a, another object
        doc = [a, b, a, unk, a_again, b, unk, a, text_token("a")]
        ids = vocab.encode_ids(doc)
        reference = [vocab.id_of.get(t, UNK_ID) for t in doc]  # per occurrence
        assert ids.dtype == np.int64 and ids.tolist() == reference
        assert ids[3] == UNK_ID and ids[0] == ids[4] != ids[8]

    def test_vocabulary_consulted_once_per_distinct_token_per_call(self):
        class CountingDict(dict):
            def __init__(self, *args):
                super().__init__(*args)
                self.lookups = []

            def get(self, key, default=None):
                self.lookups.append(key)
                return super().get(key, default)

            def __getitem__(self, key):
                self.lookups.append(key)
                return super().__getitem__(key)

            def __contains__(self, key):
                self.lookups.append(key)
                return super().__contains__(key)

        corpus = letter_corpus(np.random.default_rng(8), 12)
        vocab = build_vocab(corpus, 3)
        counted = CountingDict(vocab.id_of)
        vocab.id_of = counted
        rebuilt = rebuilt_tokens(corpus)  # equal values, separate objects
        doc = ([t for p in corpus.pairs for t in p.proof]
               + [t for p in rebuilt.pairs for t in p.statement]
               + [text_token("nowhere")] * 4)
        expected = [dict.get(counted, t, UNK_ID) for t in doc]
        for _ in range(2):  # no lookup is remembered from one call to the next
            counted.lookups.clear()
            assert vocab.encode_ids(doc).tolist() == expected
            assert len(counted.lookups) == len(set(counted.lookups)) == len(set(doc))


def small_state(kind=EncoderKind.POOLED, pooling=Pooling.MAX, layers=1,
                seed=0, **kwargs):
    corpus = one_pair_corpus([math_token(f"v{i}") for i in range(10)])
    vocab = build_vocab(corpus, 1)
    cfg = EncoderConfig(kind, d=8, layers=layers, heads=2, d_k=3,
                        pooling=pooling, **kwargs)
    return init_model(vocab, cfg, seed=seed)


def test_init_model_rejects_a_negative_seed():
    with pytest.raises(InvalidValue, match="seed must be >= 0"):
        small_state(seed=-1)


@pytest.mark.parametrize("kind,layers", [(EncoderKind.POOLED, 1),
                                         (EncoderKind.SELF_ATTENTIVE, 1),
                                         (EncoderKind.SELF_ATTENTIVE, 2)])
def test_every_parameter_is_an_array_of_the_table(kind, layers):
    state = small_state(kind, layers=layers)
    table = list(encoders._param_table(len(state.vocab), state.config))
    arrays = state.param_arrays()
    assert [a.shape for a in arrays] == [shape for _, shape in table]
    assert all(type(a) is np.ndarray for a in arrays)
    assert table[-1] == ("w", (8, 8)) and arrays[-1] is state.w


class TestEncode:
    def test_single_token_max_pool_is_embedding(self):
        state = small_state()
        doc = [math_token("v3")]
        vec = forward(state, state.vocab.encode_ids(doc))[0]
        row = state.vocab.id_of[math_token("v3")]
        assert np.allclose(vec, state.embeddings[row])

    def test_mean_of_identical_tokens(self):
        state = small_state(pooling=Pooling.MEAN)
        one = forward(state, state.vocab.encode_ids([math_token("v1")]))[0]
        two = forward(state, state.vocab.encode_ids([math_token("v1")] * 2))[0]
        assert np.allclose(one, two)

    def test_empty_document_raises(self):
        state = small_state()
        with pytest.raises(InvalidValue, match="^cannot encode an empty document$"):
            forward(state, state.vocab.encode_ids([]))

    def test_zeroed_self_attention_reduces_to_pooled(self):
        # with wo zeroed the residual passes the layer input through, so the
        # encoding is the max-pool of the position-shifted embeddings
        state = small_state(EncoderKind.SELF_ATTENTIVE)
        for lp in state.layers:
            lp.wo[:] = 0.0
        doc = [math_token("v1"), math_token("v5"), math_token("v2")]
        ids = state.vocab.encode_ids(doc)
        x0 = state.embeddings[ids] + positional_encoding(len(ids), state.config.d)
        assert np.allclose(forward(state, ids)[0], x0.max(axis=0))

    def test_max_pool_permutation_invariance(self):
        rng = np.random.default_rng(1)
        for state in (small_state(),
                      small_state(EncoderKind.SELF_ATTENTIVE, layers=0)):
            doc = [math_token(f"v{i}") for i in rng.integers(0, 10, size=6)]
            base = forward(state, state.vocab.encode_ids(doc))[0]
            for _ in range(5):
                perm = [doc[i] for i in rng.permutation(len(doc))]
                assert np.allclose(
                    forward(state, state.vocab.encode_ids(perm))[0], base)

    def test_attention_rows_sum_to_one(self):
        state = small_state(EncoderKind.SELF_ATTENTIVE, layers=2)
        doc = [math_token(f"v{i}") for i in range(5)]
        _, cache = forward(state, state.vocab.encode_ids(doc))
        for lc in cache.layers:
            assert np.allclose(lc.attn.sum(axis=-1), 1.0, atol=1e-6)

    def test_deterministic(self):
        state = small_state(EncoderKind.SELF_ATTENTIVE)
        doc = [math_token("v1"), math_token("v2")]
        ids = state.vocab.encode_ids(doc)
        assert np.array_equal(forward(state, ids)[0], forward(state, ids)[0])


def einsum_forward_backward(state, doc, grad_vec):
    """The self-attentive encoder's forward and backward with the Q/K/V
    projections and their gradients as einsum contractions: the reference
    for the matmul forms in encoders.forward and encoders.backward.
    Returns the pooled vector, per-layer gradients and embedding rows."""
    cfg = state.config
    ids = state.vocab.encode_ids(doc)
    t_len = len(doc)
    x = state.embeddings[ids] + positional_encoding(t_len, cfg.d)
    caches = []
    for lp in state.layers:
        q = np.einsum("td,hdk->htk", x, lp.wq)
        k = np.einsum("td,hdk->htk", x, lp.wk)
        v = np.einsum("td,hdv->htv", x, lp.wv)
        z = q @ k.transpose(0, 2, 1) / math.sqrt(cfg.d_k)
        attn = np.exp(z - z.max(axis=-1, keepdims=True))
        attn /= attn.sum(axis=-1, keepdims=True)
        concat = (attn @ v).transpose(1, 0, 2).reshape(t_len, cfg.d)
        caches.append((x, q, k, v, attn, concat))
        x = x + concat @ lp.wo
    dx = np.zeros_like(x)
    if cfg.pooling is Pooling.MAX:
        pool_idx = np.argmax(x, axis=0)
        vec = x[pool_idx, np.arange(cfg.d)]
        dx[pool_idx, np.arange(cfg.d)] = grad_vec
    else:
        vec = x.mean(axis=0)
        dx += grad_vec / t_len
    layer_grads = []
    for lp, (x_in, q, k, v, attn, concat) in zip(reversed(state.layers),
                                                 reversed(caches)):
        d_heads = (dx @ lp.wo.T).reshape(t_len, cfg.heads, -1).transpose(1, 0, 2)
        d_attn = d_heads @ v.transpose(0, 2, 1)
        d_v = attn.transpose(0, 2, 1) @ d_heads
        d_z = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        d_z /= math.sqrt(cfg.d_k)
        d_q = d_z @ k
        d_k = d_z.transpose(0, 2, 1) @ q
        layer_grads.append(LayerParams(
            wq=np.einsum("td,htk->hdk", x_in, d_q),
            wk=np.einsum("td,htk->hdk", x_in, d_k),
            wv=np.einsum("td,htv->hdv", x_in, d_v),
            wo=concat.T @ dx,
        ))
        dx = (dx + np.einsum("htk,hdk->td", d_q, lp.wq)
              + np.einsum("htk,hdk->td", d_k, lp.wk)
              + np.einsum("htv,hdv->td", d_v, lp.wv))
    rows = {}
    for pos, row in enumerate(ids):
        rows[int(row)] = rows.get(int(row), 0.0) + dx[pos]
    return vec, layer_grads[::-1], rows


def assert_rel_close(actual, expected, rel=1e-12):
    assert np.abs(actual - expected).max() <= rel * np.abs(expected).max()


class TestAttentionMatmul:
    # The benchmark's train-selfattn shape, then four heads with d_k != d_v.
    @pytest.mark.parametrize("d,heads,d_k,layers,pooling", [
        (64, 2, 32, 1, Pooling.MAX),
        (32, 4, 12, 2, Pooling.MEAN),
    ])
    def test_matches_einsum_reference(self, d, heads, d_k, layers, pooling):
        rng = np.random.default_rng(7)
        vocab = build_vocab(one_pair_corpus(
            [math_token(f"v{i}") for i in range(60)]), 1)
        state = init_model(vocab, EncoderConfig(
            EncoderKind.SELF_ATTENTIVE, d=d, layers=layers, heads=heads,
            d_k=d_k, pooling=pooling), seed=3)
        doc = [math_token(f"v{i}") for i in rng.integers(0, 60, size=150)]
        grad_vec = rng.normal(size=d)

        vec, cache = forward(state, state.vocab.encode_ids(doc))
        grads = state.zeros()
        add_grads(grads, backward(state, cache, grad_vec))
        ref_vec, ref_layers, ref_rows = einsum_forward_backward(
            state, doc, grad_vec)

        assert_rel_close(vec, ref_vec)
        for got, want in zip(grads.layers, ref_layers, strict=True):
            for name in ("wq", "wk", "wv", "wo"):
                assert_rel_close(getattr(got, name), getattr(want, name))
        touched = np.flatnonzero(np.any(grads.embeddings != 0, axis=1))
        assert set(touched.tolist()) == ref_rows.keys()
        for row, want in ref_rows.items():
            assert_rel_close(grads.embeddings[row], want)


def attention_state(d, heads, d_k, layers, pooling, n_tokens=50):
    vocab = build_vocab(one_pair_corpus(
        [math_token(f"v{i}") for i in range(n_tokens)]), 1)
    return init_model(vocab, EncoderConfig(
        EncoderKind.SELF_ATTENTIVE, d=d, layers=layers, heads=heads,
        d_k=d_k, pooling=pooling), seed=3)


def gradients(state, cache, grad_vec):
    grads = state.zeros()
    add_grads(grads, backward(state, cache, grad_vec))
    return grads.param_arrays()


def dense_gradients(state, cache, grad_vec):
    grads = state.zeros()
    backward_dense(state, cache, grad_vec, grads)
    return grads.param_arrays()


def assert_matches_dense(got, want, pooling):
    """Mean pooling does the dense arithmetic; max pooling sums the last
    layer's rows in another order."""
    for g, w in zip(got, want, strict=True):
        if pooling is Pooling.MEAN:
            assert np.array_equal(g, w)
        else:
            assert_rel_close(g, w)


class TestPooledRowBackward:
    """``backward`` runs the last layer over the max-pooled rows only and
    the softmax in place; the dense reference runs every row."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([4, 8, 16, 64]), heads=st.sampled_from([1, 2, 4]),
           d_k=st.integers(1, 32), layers=st.integers(1, 2),
           pooling=st.sampled_from(list(Pooling)), t_len=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    @example(d=64, heads=2, d_k=32, layers=1, pooling=Pooling.MAX, t_len=5,
             seed=0)
    @example(d=4, heads=2, d_k=3, layers=2, pooling=Pooling.MAX, t_len=300,
             seed=1)
    def test_matches_dense_reference(self, d, heads, d_k, layers, pooling,
                                     t_len, seed):
        rng = np.random.default_rng(seed)
        state = attention_state(d, heads, d_k, layers, pooling)
        ids = rng.integers(0, len(state.vocab), size=t_len)
        grad_vec = rng.normal(size=d)

        vec, cache = forward(state, ids)
        ref_vec, ref_cache = forward_dense(state, ids)
        assert np.array_equal(vec, ref_vec)
        assert_matches_dense(gradients(state, cache, grad_vec),
                             dense_gradients(state, ref_cache, grad_vec),
                             pooling)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_reads_only_pooled_rows_of_last_layer(self, layers):
        rng = np.random.default_rng(5)
        d, heads, d_k, t_len = 8, 2, 4, 120
        state = attention_state(d, heads, d_k, layers, Pooling.MAX)
        ids = rng.integers(0, len(state.vocab), size=t_len)
        grad_vec = rng.normal(size=d)
        _, cache = forward(state, ids)
        _, ref_cache = forward_dense(state, ids)

        rows = np.unique(cache.pool_idx)
        assert np.array_equal(cache.pool_rows, rows)
        assert len(rows) < t_len
        last = cache.layers[-1]
        assert last.attn.shape == (heads, len(rows), t_len)
        assert last.q.shape == (heads, len(rows), d_k)
        assert last.concat.shape == (len(rows), d)
        ref_last = ref_cache.layers[-1]
        assert np.array_equal(last.attn, ref_last.attn[:, rows])
        assert np.array_equal(last.q, ref_last.q[:, rows])
        assert np.array_equal(last.concat, ref_last.concat[rows])
        for lc in cache.layers[:-1]:  # earlier layers keep every row
            assert lc.attn.shape == (heads, t_len, t_len)
        assert_matches_dense(gradients(state, cache, grad_vec),
                             dense_gradients(state, ref_cache, grad_vec),
                             Pooling.MAX)


def unique_arrays(arrays) -> dict[int, np.ndarray]:
    return {id(a): a for a in arrays if isinstance(a, np.ndarray)}


def held_arrays(cache) -> dict[int, np.ndarray]:
    """Every array a ``ForwardCache`` holds, directly or in a layer."""
    return unique_arrays([*vars(cache).values(), *(
        a for lc in cache.layers for a in vars(lc).values())])


def read_by_backward(cache) -> dict[int, np.ndarray]:
    """The arrays of a ``ForwardCache`` that ``backward`` reads besides the
    ids: the layer caches, the pooled positions, and with layers ``x0``,
    the first layer's input."""
    return unique_arrays([cache.x0, cache.pool_idx, cache.pool_rows, *(
        a for lc in cache.layers for a in vars(lc).values())])


class TestStepMemory:
    """A training step keeps, per document, only the arrays ``backward``
    reads: the embeddings and each layer's cache, not the last layer's
    (T, d) output."""

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("pooling", list(Pooling))
    def test_cache_holds_no_final_activations(self, layers, pooling):
        rng = np.random.default_rng(2)
        state = attention_state(8, 2, 4, layers, pooling)
        ids = rng.integers(0, len(state.vocab), size=40)
        _, cache = forward(state, ids)
        _, ref_cache = forward_dense(state, ids)
        last = ref_cache.layers[-1]
        final = last.x_in + last.concat @ state.layers[-1].wo
        assert final.shape == (40, 8)
        held = held_arrays(cache)
        assert not any(a.shape == final.shape and np.array_equal(a, final)
                       for a in held.values())
        assert held.keys() - {id(cache.ids)} == read_by_backward(cache).keys()
        assert cache.x0 is cache.layers[0].x_in

    @pytest.mark.parametrize("pooling", list(Pooling))
    def test_step_peak_is_the_caches_backward_reads(self, pooling,
                                                     monkeypatch):
        # 100 documents of 60 tokens at d=64. Self-attentive: each final
        # (T, d) output kept until backward would add 30.7 KB a document,
        # 18-23% over the arrays backward reads and the gradient; the
        # step's own temporaries add 5-7%. Pooled: a cache is the ids and
        # at most d argmax positions, so the step's peak, the gradient and
        # its own temporaries (0.45-0.54 MB), is far below the documents'
        # gathered rows (3.1 MB), which caches once held.
        monkeypatch.setattr(forkmap, "_WORKERS", 1)  # one document at a time
        rng = np.random.default_rng(4)
        tokens = [math_token(f"v{i}") for i in range(200)]

        def doc():
            return [tokens[i] for i in rng.integers(0, 200, size=60)]

        pairs = [PairRecord(f"p{i}", "a", [], doc(), doc()) for i in range(50)]
        vocab = build_vocab(Corpus(pairs))
        ids = vocab.encode_docs([p.statement for p in pairs]
                                + [p.proof for p in pairs])
        for kind in EncoderKind:
            state = init_model(vocab, EncoderConfig(
                kind, d=64, layers=1, heads=2, d_k=8, pooling=pooling))
            read = 0
            for doc_ids in ids:
                cache = forward(state, doc_ids)[1]
                read += sum(a.nbytes for a in read_by_backward(cache).values())
            grads = sum(a.nbytes for a in state.param_arrays())
            batch_loss_and_grads(state, pairs, local_loss, ids)  # first-call costs
            tracemalloc.start()
            try:
                batch_loss_and_grads(state, pairs, local_loss, ids)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if kind is EncoderKind.POOLED:
                assert read == (len(ids) * 64 * 8 if pooling is Pooling.MAX
                                else 0)
                assert peak < grads + sum(map(len, ids)) * 64 * 8 / 2
            else:
                assert peak < 1.15 * (read + grads)


def pooled_reference(state, ids, grad_vec):
    """An encoder without layers from its gathered (T, d) rows: the pooled
    vector, and the embedding gradient of ``grad_vec`` scattered to the
    argmax cell of each column (ties to the lowest position), or grad/T to
    every cell under mean pooling."""
    x = state.embeddings[ids]
    grad = np.zeros_like(state.embeddings)
    if state.config.pooling is Pooling.MAX:
        pos = np.argmax(x, axis=0)
        np.add.at(grad, (ids[pos], np.arange(state.config.d)), grad_vec)
        return x.max(axis=0), grad
    np.add.at(grad, ids, np.tile(grad_vec / len(ids), (len(ids), 1)))
    return x.mean(axis=0), grad


class TestPooledCache:
    """An encoder without layers caches the ids and, under max pooling, the
    argmax positions; evaluation builds no cache. Vectors and gradients are
    those of the gathered rows, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(list(EncoderKind)),
           pooling=st.sampled_from(list(Pooling)), d=st.integers(1, 9),
           n_tokens=st.integers(1, 6), t_len=st.integers(1, 30),
           levels=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @example(kind=EncoderKind.POOLED, pooling=Pooling.MAX, d=4, n_tokens=3,
             t_len=1, levels=3, seed=0)
    @example(kind=EncoderKind.POOLED, pooling=Pooling.MAX, d=4, n_tokens=3,
             t_len=12, levels=1, seed=0)
    @example(kind=EncoderKind.POOLED, pooling=Pooling.MEAN, d=4, n_tokens=3,
             t_len=1, levels=3, seed=0)
    def test_matches_gathered_reference(self, kind, pooling, d, n_tokens,
                                        t_len, levels, seed):
        # embeddings drawn from ``levels`` values, so that columns tie
        rng = np.random.default_rng(seed)
        vocab = build_vocab(one_pair_corpus(
            [math_token(f"v{i}") for i in range(n_tokens)]), 1)
        state = init_model(vocab, EncoderConfig(
            kind, d=d, layers=0, heads=1, d_k=1, pooling=pooling), seed=3)
        state.embeddings[:] = rng.normal(size=levels)[
            rng.integers(0, levels, size=state.embeddings.shape)]
        ids = rng.integers(0, len(vocab), size=t_len)
        grad_vec = rng.normal(size=d) * 10.0 ** rng.integers(-8, 8, d)

        vec, cache = forward(state, ids)
        want_vec, want_grad = pooled_reference(state, ids, grad_vec)
        assert vec.tobytes() == want_vec.tobytes()
        assert encode(state, ids).tobytes() == vec.tobytes()
        assert encode_collection(state, [ids, ids])[1].tobytes() == vec.tobytes()
        held = held_arrays(cache)
        assert held.keys() == ({id(cache.ids), id(cache.pool_idx)}
                               if pooling is Pooling.MAX else {id(cache.ids)})
        grads = state.zeros()
        add_grads(grads, backward(state, cache, grad_vec))
        assert grads.embeddings.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("pooling", list(Pooling))
    def test_evaluation_builds_no_cache(self, pooling, monkeypatch):
        state = small_state(pooling=pooling)

        def no_cache(*args):
            raise AssertionError("evaluation built a ForwardCache")

        monkeypatch.setattr(encoders, "ForwardCache", no_cache)
        ids = [state.vocab.encode_ids([math_token(f"v{i}")] * 3) for i in range(4)]
        assert encode_collection(state, ids).shape == (4, 8)


def two_d_scatter(state, cache, doc, grad_vec):
    """The embedding gradient of one document as a 2-D ``np.add.at`` adds
    it: whole rows at the token ids, or, for a pooled max encoder, one cell
    per column at the token of the cached argmax position."""
    d = state.config.d
    if state.config.pooling is Pooling.MAX and not state.layers:
        return (cache.ids[cache.pool_idx], np.arange(d)), grad_vec
    return cache.ids, doc.emb_values.reshape(len(cache.ids), d)


class TestEmbeddingScatter:
    """``add_grads`` adds the embedding gradient through one flat index;
    each element gets the additions a 2-D scatter would make, in its
    order, so the sums are bit-identical."""

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(list(EncoderKind)),
           pooling=st.sampled_from(list(Pooling)),
           lengths=st.lists(st.integers(1, 40), min_size=1, max_size=5),
           n_tokens=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    def test_equals_two_d_add_at(self, kind, pooling, lengths, n_tokens,
                                 seed):
        # a few distinct ids, so every document repeats some, and values
        # of mixed magnitudes, so a different order of additions would
        # round differently
        rng = np.random.default_rng(seed)
        state = attention_state(8, 2, 3, 1, pooling, n_tokens=n_tokens)
        if kind is EncoderKind.POOLED:
            state = init_model(state.vocab, EncoderConfig(
                kind, d=8, pooling=pooling), seed=3)
        got, want = state.zeros(), state.zeros()
        for t_len in lengths:
            ids = rng.integers(0, len(state.vocab), size=t_len)
            grad_vec = rng.normal(size=8) * 10.0 ** rng.integers(-8, 8, 8)
            _, cache = forward(state, ids)
            doc = backward(state, cache, grad_vec)
            add_grads(got, doc)
            np.add.at(want.embeddings, *two_d_scatter(state, cache, doc,
                                                      grad_vec))
        assert got.embeddings.tobytes() == want.embeddings.tobytes()


class TestPositionalEncoding:
    def test_closed_form_across_table_growth(self, monkeypatch):
        monkeypatch.setattr(encoders, "_POSITION_TABLES", {})
        d = 6
        first = positional_encoding(10, d).copy()
        for n in (10, 600, 10):
            table = positional_encoding(n, d)
            assert table.shape == (n, d)
            assert not table.flags.writeable
            for p in (0, 1, n // 2, n - 1):
                for i in range(d):
                    angle = p / 10000.0 ** (2 * (i // 2) / d)
                    want = math.sin(angle) if i % 2 == 0 else math.cos(angle)
                    assert table[p, i] == pytest.approx(want, rel=0, abs=1e-12)
            # growing the table leaves the rows already handed out unchanged
            assert np.array_equal(table[:10], first)


class TestScore:
    def test_identity_w_is_dot(self):
        state = small_state()
        state.w = np.eye(8)
        s = np.arange(8.0)
        p = np.ones(8)
        assert score_matrix(state, s[None], p[None])[0, 0] == pytest.approx(
            float(s @ p))

    def test_zero_statement_scores_zero(self):
        assert score_matrix(small_state(), np.zeros((1, 8)),
                            np.ones((1, 8)))[0, 0] == 0.0

    def test_worked_two_dim_example(self):
        corpus = one_pair_corpus([math_token("v0")])
        vocab = build_vocab(corpus, 1)
        state = init_model(vocab, EncoderConfig(EncoderKind.POOLED, d=2,
                                                heads=1, d_k=2), seed=0)
        state.w = np.eye(2)
        assert score_matrix(state, np.array([[1.0, 2.0]]),
                            np.array([[3.0, 4.0]]))[0, 0] == pytest.approx(11.0)


class TestSerialization:
    @pytest.mark.parametrize("kind,layers", [(EncoderKind.POOLED, 0),
                                             (EncoderKind.SELF_ATTENTIVE, 2)])
    def test_round_trip_exact(self, tmp_path, kind, layers):
        state = small_state(kind, layers=max(layers, 1), seed=5)
        path = tmp_path / "m.pmm"
        save_model(state, path)
        loaded = load_model(path)
        # a second write of the loaded state is byte-identical
        path2 = tmp_path / "m2.pmm"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()
        again = load_model(path2)
        for a, b in zip(loaded.param_arrays(), again.param_arrays()):
            assert np.array_equal(a, b)
        assert loaded.vocab.tokens == state.vocab.tokens
        assert loaded.config == state.config

    def test_checksum_detects_corruption(self, tmp_path):
        from proofmatch.encoders import ModelFormatError
        state = small_state()
        path = tmp_path / "m.pmm"
        save_model(state, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_interrupted_save_keeps_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "m.pmm"
        save_model(small_state(seed=1), path)
        before = path.read_bytes()

        def full_disk(_body):
            raise OSError(errno.ENOSPC, "No space left on device")

        # the checksum is written after the body, so this fails mid-file
        monkeypatch.setattr(encoders, "hashlib",
                            types.SimpleNamespace(sha256=full_disk))
        with pytest.raises(OSError):
            save_model(small_state(seed=2), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.pmm"]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_a_seed_outside_the_uint64_field_writes_no_file(self, tmp_path,
                                                            seed):
        state = small_state()
        state.rng_seed = seed
        with pytest.raises(InvalidValue, match=f"^seed must be >= 0 and "
                                               f"< 2\\*\\*64, not {seed}$"):
            save_model(state, tmp_path / "m.pmm")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name,cell", [
        ("embeddings", lambda s: (s.embeddings, (1, 0))),
        ("layers[1].wk", lambda s: (s.layers[1].wk, (0, 2, 1))),
        ("w", lambda s: (s.w, (3, 4))),
    ], ids=["embeddings", "layer1_wk", "head_w"])
    def test_non_finite_tensor_is_a_format_error(self, tmp_path, value,
                                                 name, cell):
        state = small_state(EncoderKind.SELF_ATTENTIVE, layers=2)
        arr, idx = cell(state)
        arr[idx] = MARKER
        path = tmp_path / "m.pmm"
        save_marker_as(state, path, value)
        with pytest.raises(ModelFormatError,
                           match=rf"non-finite values in tensor {re.escape(name)}$"):
            load_model(path)

    def test_non_finite_reserved_slot_is_a_format_error(self, tmp_path):
        path = tmp_path / "m.pmm"
        save_model(small_state(), path)
        write_slot(path, float("nan"))
        with pytest.raises(ModelFormatError,
                           match="^non-finite value in the reserved slot$"):
            load_model(path)

    def test_a_finite_slot_is_ignored_and_written_back_as_zero(self, tmp_path):
        # files written while the score head had a bias hold it in the slot
        state = small_state(seed=3)
        path = tmp_path / "m.pmm"
        save_model(state, path)
        write_slot(path, 0.25)
        loaded = load_model(path)
        s, p = loaded.embeddings[:3], loaded.embeddings[3:6]
        assert np.array_equal(score_matrix(loaded, s, p), s @ loaded.w @ p.T)
        save_model(loaded, path)
        assert path.read_bytes()[-36:-32] == struct.pack("<f", 0.0)

    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1e39])
    @pytest.mark.parametrize("name,put", [
        ("embeddings", lambda s, v: s.embeddings.__setitem__((1, 0), v)),
        ("layers[1].wk", lambda s, v: s.layers[1].wk.__setitem__((0, 2, 1), v)),
        ("w", lambda s, v: s.w.__setitem__((3, 4), v)),
    ], ids=["embeddings", "layer1_wk", "head_w"])
    def test_save_refuses_values_outside_float32_and_keeps_checkpoint(
            self, tmp_path, value, name, put):
        state = small_state(EncoderKind.SELF_ATTENTIVE, layers=2)
        path = tmp_path / "m.pmm"
        save_model(state, path)
        before = path.read_bytes()
        put(state, value)
        with pytest.raises(ModelFormatError,
                           match=rf"^tensor {re.escape(name)} has values outside "):
            save_model(state, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.pmm"]


def arange_state(kind, layers):
    """A model whose tensors are filled from np.arange, so its file does
    not depend on any random draw."""
    state = small_state(kind, layers=layers, seed=9)
    for i, a in enumerate(state.param_arrays()):
        a[...] = (np.arange(a.size).reshape(a.shape) % 17 - 8) / 16 + i
    return state


class TestCheckpointBytes:
    # Pinned SHA-256 of each file: any change to the bytes a checkpoint is
    # written with, tensor order included, shows here.
    @pytest.mark.parametrize("kind,layers,digest", [
        (EncoderKind.POOLED, 1,
         "97378c8905a851e8c94021c3c83d21c0d545a5ec58ca8e470430dc04c2b748f2"),
        (EncoderKind.SELF_ATTENTIVE, 2,
         "bb43486b70e9635af84ff719b0c0d6af945dee7a607e06c03a29c6df3d5d163c"),
    ])
    def test_pinned_digest(self, tmp_path, kind, layers, digest):
        path = tmp_path / "m.pmm"
        save_model(arange_state(kind, layers), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@functools.cache
def model_body() -> tuple[bytes, tuple[int, ...], tuple[int, ...]]:
    """A self-attentive model's checksummed body, the offsets of its code
    bytes (token kind, font, encoder, pooling, positions) and of its config
    integers."""
    state = small_state(EncoderKind.SELF_ATTENTIVE, seed=4)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.pmm"
        save_model(state, path)
        body = path.read_bytes()[:-32]
    codes, off = [], 16
    for _ in state.vocab.tokens:
        codes += [off, off + 1]
        off += 4 + struct.unpack_from("<H", body, off + 2)[0]
    codes += [off, off + 17, off + 18]
    return body, tuple(codes), (off + 1, off + 5, off + 9, off + 13)


def resigned(body: bytes) -> bytes:
    return body + hashlib.sha256(body).digest()


def write_slot(path, value: float) -> None:
    """Put ``value`` in a checkpoint's reserved slot and sign it again."""
    body = path.read_bytes()[:-36] + struct.pack("<f", value)
    path.write_bytes(resigned(body))


@st.composite
def mutated_bodies(draw):
    body, codes, fields = model_body()
    how = draw(st.sampled_from(("truncate", "extend", "code", "field")))
    if how == "truncate":
        return how, body[:draw(st.integers(0, len(body) - 1))]
    if how == "extend":
        return how, body + draw(st.binary(min_size=1, max_size=16))
    out = bytearray(body)
    if how == "code":
        out[draw(st.sampled_from(codes))] = draw(st.integers(0, 255))
    else:
        struct.pack_into("<I", out, draw(st.sampled_from(fields)),
                         draw(st.integers(0, 2**32 - 1)))
    return how, bytes(out)


class TestMalformedBody:
    @settings(max_examples=300, deadline=None)
    @given(mutated_bodies())
    def test_load_returns_or_raises_format_error(self, mutation):
        how, body = mutation
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.pmm"
            path.write_bytes(resigned(body))
            try:
                state = load_model(path)
            except ModelFormatError:
                return
        assert how in ("code", "field")
        assert isinstance(state, ModelState)

    def test_retired_encoder_code_zero(self, tmp_path):
        path = tmp_path / "m.pmm"
        save_model(arange_state(EncoderKind.POOLED, 1), path)
        body = bytearray(path.read_bytes()[:-32])
        # kind, d, layers, heads, d_k, pooling, positions
        kind_at = body.index(struct.pack("<BIIIIBB", 1, 8, 1, 2, 3, 0, 1))
        body[kind_at] = 0
        path.write_bytes(resigned(bytes(body)))
        with pytest.raises(ModelFormatError, match="unknown encoder code 0"):
            load_model(path)

    def test_layer_count_near_two_to_the_32(self, tmp_path):
        body, _, fields = model_body()
        bad = bytearray(body)
        struct.pack_into("<I", bad, fields[1], 2**32 - 1)  # layers
        path = tmp_path / "m.pmm"
        path.write_bytes(resigned(bytes(bad)))
        with pytest.raises(ModelFormatError,
                           match="tensor shapes do not match the model config"):
            load_model(path)

    def test_unsupported_version(self, tmp_path):
        body, _, _ = model_body()
        path = tmp_path / "m.pmm"
        path.write_bytes(resigned(body[:4] + struct.pack("<I", 2) + body[8:]))
        with pytest.raises(ModelFormatError, match="unsupported model version 2"):
            load_model(path)

    @pytest.mark.parametrize("code", [0, 2])
    def test_unknown_position_code(self, tmp_path, code):
        body, codes, _ = model_body()
        bad = bytearray(body)
        bad[codes[-1]] = code
        path = tmp_path / "m.pmm"
        path.write_bytes(resigned(bytes(bad)))
        with pytest.raises(ModelFormatError, match=f"unknown position code {code}"):
            load_model(path)

    def test_unknown_token_kind_and_trailing_bytes(self, tmp_path):
        body, codes, _ = model_body()
        bad_kind = bytearray(body)
        bad_kind[codes[2]] = 7  # first real token's kind byte
        path = tmp_path / "m.pmm"
        for bad in (bytes(bad_kind), body + b"\0"):
            path.write_bytes(resigned(bad))
            with pytest.raises(ModelFormatError):
                load_model(path)
