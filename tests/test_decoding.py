import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import proofmatch.decoding as decoding
from proofmatch import forkmap
from proofmatch.decoding import (
    build_score_matrix,
    decode_global,
    decode_local,
    encode_collection,
)
from proofmatch.encoders import (
    EncoderConfig,
    EncoderKind,
    Pooling,
    UNK_ID,
    Vocabulary,
    build_vocab,
    forward,
    init_model,
    score_matrix,
)
from proofmatch.corpus import Corpus, PairRecord, math_token, text_token
from proofmatch.errors import InvalidValue, ProofmatchError
from brute import solve_brute
from conftest import assert_no_child_left, separable_corpus, topic_corpus


def small_state(n_pairs=8, d=8, seed=0):
    corpus = separable_corpus(n_pairs)
    vocab = build_vocab(corpus, 1)
    state = init_model(vocab, EncoderConfig(EncoderKind.POOLED, d=d), seed)
    return state, corpus


class TestBuildScoreMatrix:
    def test_cell_values(self):
        state, corpus = small_state(5)
        statements = [p.statement for p in corpus.pairs]
        proofs = [p.proof for p in corpus.pairs]
        m = build_score_matrix(state, statements, proofs)
        vocab = state.vocab
        for i in (0, 2, 4):
            for j in (1, 3):
                expected = (forward(state, vocab.encode_ids(statements[i]))[0]
                            @ state.w
                            @ forward(state, vocab.encode_ids(proofs[j]))[0])
                assert m[i, j] == pytest.approx(expected)

    def test_each_text_encoded_once(self, monkeypatch):
        # One encode_ids call over both collections, covering each token
        # once, then one encode per text on that text's ids.
        state, corpus = small_state(10)
        lookups, encoded = [], []
        real_encode_ids = Vocabulary.encode_ids
        real_encode = decoding.encode

        def counting_encode_ids(vocab, doc):
            lookups.append(len(doc))
            return real_encode_ids(vocab, doc)

        def counting_encode(model, ids):
            encoded.append(ids)
            return real_encode(model, ids)

        monkeypatch.setattr(Vocabulary, "encode_ids", counting_encode_ids)
        monkeypatch.setattr(decoding, "encode", counting_encode)
        statements = [p.statement for p in corpus.pairs]
        proofs = [p.proof for p in corpus.pairs]
        build_score_matrix(state, statements, proofs)
        assert lookups == [sum(map(len, statements + proofs))]
        assert len(encoded) == 20
        for ids, doc in zip(encoded, statements + proofs, strict=True):
            assert np.array_equal(ids, real_encode_ids(state.vocab, doc))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_identical_documents_tie_exactly(self, sign):
        # Scored as one product, ten copies of one statement and one proof
        # at d=64 read 5.6e-17 lower on the last two rows and columns than
        # elsewhere, so one sign of W ranked gold 1st on rows 8 and 9.
        d, n = 64, 10
        tokens = [math_token(f"v{i}") for i in range(12)]
        state = init_model(build_vocab(Corpus([PairRecord(
            "p", "a", [], tokens, tokens)])), EncoderConfig(d=d))
        state.w = sign * np.random.default_rng(0).normal(size=(d, d))
        m = build_score_matrix(state, [tokens[:5]] * n, [tokens[5:]] * n)
        assert (m == m[0, 0]).all()
        assert decode_local(m).gold_rank.tolist() == list(range(1, n + 1))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=12),
           st.lists(st.integers(0, 3), min_size=1, max_size=12))
    def test_duplicates_score_as_their_first_copy(self, s_docs, p_docs):
        # each cell is its documents' first copies' cell, bit for bit, and
        # the whole product's value up to rounding
        n = min(len(s_docs), len(p_docs))
        s_docs, p_docs = s_docs[:n], p_docs[:n]
        state, corpus = small_state(4, d=16)
        statements = [corpus.pairs[i].statement for i in s_docs]
        proofs = [corpus.pairs[i].proof for i in p_docs]
        m = build_score_matrix(state, statements, proofs)
        s_first = [s_docs.index(i) for i in s_docs]
        p_first = [p_docs.index(j) for j in p_docs]
        assert np.array_equal(m, m[np.ix_(s_first, p_first)])
        vocab = state.vocab
        whole = score_matrix(
            state, np.stack([forward(state, vocab.encode_ids(x))[0]
                             for x in statements]),
            np.stack([forward(state, vocab.encode_ids(x))[0] for x in proofs]))
        assert np.allclose(m, whole, rtol=1e-12, atol=0)

    def test_size_mismatch(self):
        state, corpus = small_state(3)
        with pytest.raises(InvalidValue, match="^3 statements vs 1 proofs$"):
            build_score_matrix(state, [p.statement for p in corpus.pairs],
                               [corpus.pairs[0].proof])

    def test_empty_collection(self):
        state, _ = small_state(2)
        with pytest.raises(InvalidValue,
                           match="^empty statement or proof collection$"):
            build_score_matrix(state, [], [])


class TestForkedEncoding:
    """A large pooled collection is encoded in chunks, the first by the
    calling process and the others by forked workers; every score and
    error is the serial path's."""

    @staticmethod
    def collection(n=12):
        # statements three times as long as proofs, so that the cuts fall
        # among the statements, and statement 0 repeated as the last one
        corpus = topic_corpus(3, n, "f")
        statements = [p.statement * 3 for p in corpus.pairs[:-1]]
        statements.append(statements[0])
        return build_vocab(corpus), statements, [p.proof for p in corpus.pairs]

    @pytest.mark.parametrize("pooling", list(Pooling), ids=lambda p: p.value)
    def test_forked_scores_are_the_serial_bits(self, monkeypatch, pooling):
        vocab, statements, proofs = self.collection()
        state = init_model(vocab, EncoderConfig(d=16, pooling=pooling), 5)
        docs = [*statements, *proofs]
        serial = build_score_matrix(state, statements, proofs)
        monkeypatch.setattr(decoding, "_MIN_FORK_TOKENS", 1)
        for workers in (1, 2, 3):
            monkeypatch.setattr(forkmap, "_WORKERS", workers)
            chunks = decoding._encode_chunks(state, docs)
            assert len(chunks) == workers
            if workers > 1:  # the two copies are in different chunks
                assert chunks[0].stop <= len(statements) - 1
            m = build_score_matrix(state, statements, proofs)
            assert m.tobytes() == serial.tobytes()
            assert np.array_equal(m[0], m[-1])  # the copies tie exactly
            assert_no_child_left()

    def test_small_and_self_attentive_collections_are_one_chunk(self,
                                                               monkeypatch):
        vocab, statements, proofs = self.collection()
        docs = [*statements, *proofs]
        monkeypatch.setattr(forkmap, "_WORKERS", 2)
        pooled = init_model(vocab, EncoderConfig(d=8), 0)
        assert decoding._encode_chunks(pooled, docs) == [slice(0, len(docs))]
        monkeypatch.setattr(decoding, "_MIN_FORK_TOKENS", 1)
        assert len(decoding._encode_chunks(pooled, docs)) == 2
        attentive = init_model(vocab, EncoderConfig(
            EncoderKind.SELF_ATTENTIVE, d=8, heads=2, d_k=4), 0)
        assert decoding._encode_chunks(attentive, docs) == [slice(0, len(docs))]

    @pytest.mark.parametrize("empty", ["statement 0", "last proof"])
    def test_an_empty_document_raises_the_serial_error(self, monkeypatch,
                                                       empty):
        # statement 0 is in the caller's chunk, the last proof in a worker's
        vocab, statements, proofs = self.collection()
        if empty == "statement 0":
            statements[0] = []
        else:
            proofs[-1] = []
        state = init_model(vocab, EncoderConfig(d=8), 0)
        monkeypatch.setattr(decoding, "_MIN_FORK_TOKENS", 1)
        for workers in (1, 2):
            monkeypatch.setattr(forkmap, "_WORKERS", workers)
            with pytest.raises(InvalidValue,
                               match="^cannot encode an empty document$"):
                build_score_matrix(state, statements, proofs)
            assert_no_child_left()

    def test_a_dead_worker_is_one_error(self, monkeypatch):
        vocab, statements, proofs = self.collection()
        state = init_model(vocab, EncoderConfig(d=8), 0)
        caller, real = os.getpid(), decoding.encode_collection

        def die_in_a_worker(state, ids):
            if os.getpid() != caller:
                os._exit(1)
            return real(state, ids)

        monkeypatch.setattr(decoding, "encode_collection", die_in_a_worker)
        monkeypatch.setattr(decoding, "_MIN_FORK_TOKENS", 1)
        monkeypatch.setattr(forkmap, "_WORKERS", 2)
        with pytest.raises(ProofmatchError, match="^an encode worker process "
                           "ended before returning its vectors$"):
            build_score_matrix(state, statements, proofs)
        assert_no_child_left()


_VOCAB_SURFACES = [f"v{i}" for i in range(8)]


def three_encoders():
    """Pooled max, pooled mean and self-attentive models over v0..v7 (math
    and text), so that u-prefixed surfaces are UNK."""
    tokens = ([math_token(s) for s in _VOCAB_SURFACES]
              + [text_token(s) for s in _VOCAB_SURFACES])
    vocab = build_vocab(Corpus([PairRecord("p0", "a", [], tokens, tokens)]))
    configs = [EncoderConfig(EncoderKind.POOLED, d=8, pooling=Pooling.MAX),
               EncoderConfig(EncoderKind.POOLED, d=8, pooling=Pooling.MEAN),
               EncoderConfig(EncoderKind.SELF_ATTENTIVE, d=8, layers=2,
                             heads=2, d_k=3)]
    return [init_model(vocab, cfg, seed=5) for cfg in configs]


# An occurrence: (surface index, math or text, reuse the shared object?).
# Surfaces 8..10 are not in the vocabulary.
_occurrence = st.tuples(st.integers(0, 10), st.booleans(), st.booleans())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_occurrence, min_size=1, max_size=12),
                min_size=1, max_size=8))
def test_encode_collection_matches_per_document_forward(layout):
    """Equal tokens arrive as shared and as distinct objects, some UNK; the
    one-lookup-per-collection encoding gives the per-document vectors bit
    for bit."""
    surfaces = _VOCAB_SURFACES + ["u0", "u1", "u2"]

    def make(i, is_math):
        return math_token(surfaces[i]) if is_math else text_token(surfaces[i])

    shared = {(i, m): make(i, m) for i in range(len(surfaces))
              for m in (True, False)}
    docs = [[shared[i, m] if reuse else make(i, m) for i, m, reuse in doc]
            for doc in layout]
    for state in three_encoders():
        vocab = state.vocab
        for d in docs:  # the per-occurrence lookup is the reference
            assert vocab.encode_ids(d).tolist() == [
                vocab.id_of.get(t, UNK_ID) for t in d]
        per_doc = np.stack([forward(state, vocab.encode_ids(d))[0]
                            for d in docs])
        assert np.array_equal(encode_collection(state, vocab.encode_docs(docs)),
                              per_doc)


class TestDecodeLocal:
    def test_worked_gold_ranks(self):
        m = np.array([[1.0, 2.0], [3.0, 0.0]])
        result = decode_local(m)
        assert list(result.gold_rank) == [2, 2]
        assert list(result.top1) == [1, 0]

    def test_tie_rank_counts_earlier_equal_columns(self):
        # row 0: gold ties with a later column, keeps rank 1
        # row 1: gold ties with an earlier column, drops to rank 2
        m = np.array([[5.0, 5.0, 0.0],
                      [4.0, 4.0, 0.0],
                      [0.0, 0.0, 1.0]])
        result = decode_local(m)
        assert list(result.gold_rank) == [1, 2, 1]

    def test_rankings_sorted_desc_with_index_ties(self):
        # top1 heads the (score desc, index asc) order, ties included
        rng = np.random.default_rng(0)
        m = rng.integers(0, 3, size=(6, 6)).astype(float)
        result = decode_local(m)
        for i in range(6):
            assert result.top1[i] == np.argsort(-m[i], kind="stable")[0]

    def test_gold_rank_consistent_with_ranking_position(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            n = int(rng.integers(1, 9))
            if trial % 2:
                m = rng.integers(0, 3, size=(n, n)).astype(float)
            else:
                m = rng.normal(size=(n, n))
            result = decode_local(m)
            assert result.gold_rank.dtype == result.top1.dtype == np.int64
            for i in range(n):
                order = list(np.argsort(-m[i], kind="stable"))
                assert result.gold_rank[i] == order.index(i) + 1
                assert result.top1[i] == order[0]


def lexsort_ranks(m: np.ndarray) -> tuple[list[int], list[int]]:
    """Gold rank and top-1 from each row's full (score desc, index asc)
    order."""
    n = m.shape[1]
    orders = [np.lexsort((np.arange(n), -row)).tolist() for row in m]
    return ([order.index(i) + 1 for i, order in enumerate(orders)],
            [order[0] for order in orders])


def assert_ranks_match_lexsort(m: np.ndarray) -> None:
    result = decode_local(m)
    gold_rank, top1 = lexsort_ranks(m)
    assert result.gold_rank.dtype == result.top1.dtype == np.int64
    assert result.gold_rank.tolist() == gold_rank
    assert result.top1.tolist() == top1


class TestDecodeLocalTies:
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_constant_matrix_ranks_by_index(self, n):
        m = np.full((n, n), 0.25)
        assert decode_local(m).gold_rank.tolist() == list(range(1, n + 1))
        assert_ranks_match_lexsort(m)

    @pytest.mark.parametrize("values", [2, 3, 5])
    def test_small_integer_matrices_match_lexsort(self, values):
        rng = np.random.default_rng(values)
        for n in (1, 2, 5, 16, 60):
            assert_ranks_match_lexsort(
                rng.integers(0, values, size=(n, n)).astype(float))

    def test_ties_on_some_rows_only(self):
        # most rows have distinct scores; a few have gold tied with columns
        # before and after it
        rng = np.random.default_rng(9)
        m = rng.normal(size=(40, 40))
        for i in (0, 7, 39):
            m[i, [0, 20, 39]] = m[i, i]
        m[12, 12] = m[12, 3]
        assert_ranks_match_lexsort(m)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([-1.5, 0.0, 0.0, 2.0, 1e300, -0.0]),
             min_size=n, max_size=n), min_size=n, max_size=n)))
def test_decode_local_matches_lexsort(rows):
    assert_ranks_match_lexsort(np.array(rows))


class TestDecodeGlobal:
    def test_dense_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = rng.normal(size=(n, n))
            result = decode_global(m)
            _, brute_val = solve_brute(m)
            assert not result.padded_flag
            assert result.objective == pytest.approx(brute_val, abs=1e-9)

    def test_pruned_matches_dense_when_k_is_n(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(8, 8))
        dense = decode_global(m)
        pruned = decode_global(m, k=8)
        assert pruned.objective == pytest.approx(dense.objective, abs=1e-9)

    def test_dominant_column(self):
        # one proof beats everything for every statement: local decoding
        # picks it n times, global still returns a bijection
        n = 5
        rng = np.random.default_rng(4)
        m = rng.normal(size=(n, n)) * 0.1
        m[:, 2] += 100.0
        local = decode_local(m)
        assert list(local.top1) == [2] * n
        glob = decode_global(m)
        assert sorted(glob.assignment) == list(range(n))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("decode", [
    decode_local, decode_global, lambda m: decode_global(m, 2)],
    ids=["local", "global", "global_k2"])
def test_non_finite_matrix_is_a_decoding_error(value, decode):
    m = np.random.default_rng(5).normal(size=(4, 4))
    m[2, 1] = value
    with pytest.raises(ProofmatchError, match="^non-finite scores in 1 of 16 cells$"):
        decode(m)


class TestEndToEnd:
    def test_trained_model_global_decode(self):
        from proofmatch.training import TrainConfig, Objective, train
        corpus = separable_corpus(6)
        state, _ = small_state(6)
        cfg = TrainConfig(objective=Objective.LOCAL, batch_size=3, epochs=150,
                          eval_every=50, seed=0)
        best, _ = train(corpus, corpus, best_state := state, cfg)
        m = build_score_matrix(best, [p.statement for p in corpus.pairs],
                               [p.proof for p in corpus.pairs])
        result = decode_global(m)
        assert np.array_equal(result.assignment, np.arange(6))
