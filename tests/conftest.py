"""Shared builders for synthetic corpora and random inputs."""

from __future__ import annotations

import hashlib
import math
import os
import struct

import numpy as np
import pytest

from proofmatch.corpus import (
    Corpus,
    Font,
    PairRecord,
    Token,
    TokenKind,
    math_token,
    text_token,
)
from proofmatch.encoders import ModelState, save_model

FONTS = list(Font)
SURFACE_ALPHABET = (
    "abcxyzXYZ0123456789αβπ∑∫=+−×√"
    "%#:, \t"  # characters that must survive percent-encoding
)


def random_token(rng: np.random.Generator) -> Token:
    length = int(rng.integers(1, 6))
    chars = [SURFACE_ALPHABET[i]
             for i in rng.integers(0, len(SURFACE_ALPHABET), size=length)]
    surface = "".join(c for c in chars if not c.isspace()) or "x"
    if rng.random() < 0.5:
        return Token(TokenKind.TEXT, surface)
    font = FONTS[int(rng.integers(0, len(FONTS)))]
    return Token(TokenKind.MATH, surface, font)


def random_pair(rng: np.random.Generator, pair_id: str,
                article_id: str = "a1") -> PairRecord:
    n_s = int(rng.integers(1, 8))
    n_p = int(rng.integers(1, 8))
    return PairRecord(
        pair_id=pair_id,
        article_id=article_id,
        categories=[f"cat{int(rng.integers(0, 3))}"],
        statement=[random_token(rng) for _ in range(n_s)],
        proof=[random_token(rng) for _ in range(n_p)],
    )


def random_corpus(rng: np.random.Generator, n_pairs: int,
                  n_articles: int = 3) -> Corpus:
    return Corpus([
        random_pair(rng, f"p{i}", f"art{int(rng.integers(0, n_articles))}")
        for i in range(n_pairs)
    ])


def letter_corpus(rng: np.random.Generator, n_pairs: int) -> Corpus:
    """Pairs drawn from a few letters in two fonts plus a few words, so
    that statements and proofs share symbols that replacement renames."""
    pool = ([math_token(c, f) for c in "abxyAB" for f in (Font.NORMAL, Font.BOLD)]
            + [math_token("="), text_token("so"), text_token("let")])

    def doc():
        return [pool[i] for i in rng.integers(0, len(pool), size=10)]

    return Corpus([PairRecord(f"p{i}", f"a{i % 3}", [], doc(), doc())
                   for i in range(n_pairs)])


def rebuilt_tokens(corpus: Corpus) -> Corpus:
    """``corpus`` with every token occurrence a new object, rebuilt field
    by field: equal tokens are equal values but never the same object."""
    def rebuild(doc):
        return [Token(t.kind, t.surface, t.font) for t in doc]
    return Corpus([PairRecord(p.pair_id, p.article_id, list(p.categories),
                              rebuild(p.statement), rebuild(p.proof))
                   for p in corpus.pairs])


def probability_protected() -> frozenset[str]:
    """The paper's probability-theory protected set: P, E, V, sigma, rho."""
    return frozenset("pevσρ")


def repeated_token_pair(i: int, n_tokens: int = 20) -> PairRecord:
    """One separable pair: statement and proof each repeat a private token."""
    return PairRecord(
        pair_id=f"pair{i}", article_id=f"art{i}", categories=[],
        statement=[math_token(f"S{i}")] * n_tokens,
        proof=[math_token(f"P{i}")] * n_tokens,
    )


def separable_corpus(n_pairs: int = 8) -> Corpus:
    """Disjoint per-pair vocabulary; the matching must be memorizable."""
    return Corpus([repeated_token_pair(i) for i in range(n_pairs)])


def symbol_dependent_pair(i: int, letter: str) -> PairRecord:
    """A pair matchable only through one shared single-letter symbol."""
    filler = [text_token(w) for w in ("let", "the", "be", "then")] * 4
    return PairRecord(
        pair_id=f"sym{i}", article_id=f"art{i}", categories=[],
        statement=[math_token(letter)] * 12 + filler,
        proof=[math_token(letter)] * 12 + filler,
    )


def symbol_dependent_corpus(n_pairs: int = 8) -> Corpus:
    letters = "abcdefgh"
    return Corpus([symbol_dependent_pair(i, letters[i]) for i in range(n_pairs)])


TOPIC_WORDS = 400


def topic_corpus(seed: int, n_pairs: int, prefix: str) -> Corpus:
    """Pairs whose statement and proof share four topic words and two
    letters, each twice, among 24 filler words drawn with Zipf weights from
    a shared vocabulary: a model must learn to weigh the shared tokens
    above the filler to match the pairs."""
    rng = np.random.default_rng(seed)
    zipf = 1.0 / np.arange(1, TOPIC_WORDS + 1)
    zipf /= zipf.sum()

    def doc(shared):
        filler = [text_token(f"w{i}") for i in rng.choice(TOPIC_WORDS, 24, p=zipf)]
        words = filler + shared * 2
        return [words[i] for i in rng.permutation(len(words))]

    pairs = []
    for i in range(n_pairs):
        topics = rng.choice(np.arange(50, TOPIC_WORDS), 4, replace=False)
        letters = rng.choice(list("abcdfghijklmnpqrstuvwxyz"), 2, replace=False)
        shared = ([text_token(f"w{t}") for t in topics]
                  + [math_token(c) for c in letters])
        pairs.append(PairRecord(f"{prefix}{i}", f"a{i}", [], doc(shared),
                                doc(shared)))
    return Corpus(pairs)


GRID_LETTERS = "abcdfghjklmnqrst"


def replacement_grid_corpora() -> tuple[Corpus, Corpus, Corpus]:
    """Train/dev/test triple whose only pair-identifying signals are a
    per-pair statement word and the proof's single-letter symbol.

    Every statement carries one copy of every base letter, so raw letter
    overlap is uniform across statements and only the learned word-letter
    association can match a pair. Renaming the proof symbols therefore
    wipes out a model trained on unmodified proofs, while a model trained
    on renamed proofs never had a usable symbol cue to lose. The statement
    soup also keeps fresh names disjoint from the base letters.
    """
    sfill = [text_token(w) for w in ("let", "the")] * 2
    pfill = [text_token(w) for w in ("be", "then")] * 2
    soup = [math_token(c) for c in GRID_LETTERS]

    def stmt(i):
        return list(soup) + [text_token(f"w{i}")] * 12 + sfill

    def prf(letter):
        return [math_token(letter)] * 12 + pfill

    def corpus(suffix):
        return Corpus([PairRecord(f"s{i}{suffix}", f"a{i}", [],
                                  stmt(i), prf(letter))
                       for i, letter in enumerate(GRID_LETTERS)])

    return corpus("t"), corpus("d"), corpus("")


# A float32 value that no drawn parameter takes.
MARKER = 1234.5


def save_marker_as(state: ModelState, path, value: float) -> None:
    """Save ``state``, one of whose parameters holds ``MARKER``, with that
    parameter written as ``value`` and the file signed again: a checkpoint
    that ``save_model`` refuses to write when ``value`` is not finite."""
    save_model(state, path)
    body = path.read_bytes()[:-32]
    marker = np.float32(MARKER).tobytes()
    assert body.count(marker) == 1
    body = body.replace(marker, np.float32(value).tobytes())
    path.write_bytes(body + hashlib.sha256(body).digest())


# Vocabulary entries of a model file: a kind, font and byte-length record,
# then the UTF-8 surface.
UNK_ENTRY = struct.pack("<BBH", 255, 0, 0)
TEXT_A_ENTRY = struct.pack("<BBH", 0, 0, 1) + b"a"  # t:a


def write_pooled_model(path, entries: list[bytes], d: int = 4) -> None:
    """A signed PMM1 file of a pooled max model with these vocabulary
    entries and zero tensors, written without ``Vocabulary``'s checks."""
    def tensor(*shape):
        return (struct.pack(f"<B{len(shape)}I", len(shape), *shape)
                + bytes(4 * math.prod(shape)))

    body = (struct.pack("<4sIII", b"PMM1", 1, len(entries), 1)
            + b"".join(entries)
            + struct.pack("<BIIIIBBQ", 1, d, 1, 2, 32, 0, 1, 0)
            + tensor(len(entries), d) + tensor(d, d) + struct.pack("<f", 0))
    path.write_bytes(body + hashlib.sha256(body).digest())


def assert_no_child_left() -> None:
    """No child process of this one is left to reap: every worker that a
    ``fork_map`` forked has been waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
