"""Local (per-statement ranking) and global (bipartite matching) decoding.

Both decode a score matrix from ``build_score_matrix``, which encodes each
text once. The statements, then the proofs, are cut into contiguous
chunks balanced by token count (``_encode_chunks``): one per usable core
(``forkmap.processes``) with at least ``_MIN_FORK_TOKENS`` tokens each.
The calling process encodes the first chunk and one forked worker each of
the others (``forkmap.fork_map``). The vectors come back in document
order, so every score is bit for bit the one-process score, and the first
empty document in collection order raises the one-process error once
every worker has been reaped. On 2 cores a 2000-pair collection (616K
tokens) is two chunks, and encoding it takes 21-35 ms less than in one
process; the crossover lies between 122K and 152K tokens (the table at
``_MIN_FORK_TOKENS``). A self-attentive encoder's collection is one
chunk, since it runs on the encoder's thread pool, and nothing forks in a
``fork_map`` worker, on one core or without ``os.fork``. Each chunk's
tokens are mapped to ids by value in one ``Vocabulary.encode_docs`` call,
and one ``encode_collection`` call runs ``encode`` on each document's id
slice. A caller that scores one collection repeatedly (the dev set during
training) passes the id arrays it made once instead, and they are encoded
in the calling process.
Identical pooled vectors get identical scores: when a collection has
duplicates, each distinct vector is scored once and the matrix expanded,
so their ties are broken by index like any other.

``decode_local`` ranks without sorting: a gold rank is one plus the proofs
scoring above gold plus the lower-index proofs tied with it. Ties are
counted only on the rows that have one, so a matrix without ties costs two
comparisons per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assignment
from .corpus import Token
from .encoders import (
    ModelState,
    balanced_chunks,
    encode,
    map_documents,
    score_matrix,
)
from .errors import InvalidValue, ProofmatchError
from .forkmap import fork_map, processes


@dataclass
class RankingResult:
    """Per statement, the 1-based rank of the gold (same-index) proof and the
    index of the top-ranked proof, under (score desc, index asc) order."""

    gold_rank: np.ndarray
    top1: np.ndarray


@dataclass
class MatchResult:
    assignment: np.ndarray
    objective: float
    padded_flag: bool


def encode_collection(state: ModelState, ids: list[np.ndarray]) -> np.ndarray:
    """One pooled vector per document: ``encode`` runs on each document's
    id array and builds no backward cache."""
    return np.fromiter(map_documents(state, ids, encode, ids),
                       np.dtype((np.float64, state.config.d)), len(ids))


# A pooled collection is encoded in one chunk per usable core, of at least
# this many tokens each; a smaller one is encoded by the calling process
# alone. Time saved by 2 chunks on 2 cores (the caller and one forked
# worker) over the caller alone, by the collection's tokens, in a process
# that holds a 2000x2000 matrix (least..most of 3 medians of 20, d=64,
# gen.py documents, BLAS on 1 thread):
#   31K -1.7..-1.4 ms, 61K -4.3..0.0, 122K -3.6..-2.9, 152K +3.9..+7.3,
#   184K +0.3..+6.7, 214K +4.2..+9.4, 244K +7.1..+18.7, 307K +5.9..+17.5,
#   616K (2000 pairs) +20.9..+34.7.
# The crossover lies between 122K and 152K tokens; 2 chunks start at 256K,
# past the noise of the gains just above it.
_MIN_FORK_TOKENS = 1 << 17


def _encode_chunks(state: ModelState, docs: list[list[Token]]) -> list[slice]:
    """The contiguous chunks of ``docs`` that ``build_score_matrix`` encodes,
    one per process: ``processes`` of the collection's tokens over
    ``_MIN_FORK_TOKENS``, balanced by token count; one chunk for a model
    with attention layers, which runs on the encoder's thread pool."""
    parts = 1 if state.layers else processes(sum(map(len, docs)) // _MIN_FORK_TOKENS)
    if parts < 2:
        return [slice(0, len(docs))]
    return balanced_chunks(np.fromiter(map(len, docs), np.int64, len(docs)), parts)


def _encode_documents(state: ModelState, docs: list[list[Token]]) -> np.ndarray:
    """``encode_collection`` of ``docs``, each chunk of ``_encode_chunks``
    turned into ids and encoded by one process: the calling process takes
    the first, forked workers the others. No name holds a chunk's ids, so
    they are freed once its vectors are made."""
    chunks = _encode_chunks(state, docs)
    vecs = fork_map(
        lambda i: encode_collection(state, state.vocab.encode_docs(docs[chunks[i]])),
        len(chunks), "an encode worker", "vectors", caller=True)
    return vecs[0] if len(vecs) == 1 else np.concatenate(vecs)


def _distinct_rows(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the first occurrence of each distinct row of
    ``vecs``, ascending, and the index of each row among them. Rows are
    equal when their bytes are."""
    keys = vecs.view(np.dtype((np.void, vecs.itemsize * vecs.shape[1])))
    first: dict[bytes, int] = {}
    of_row = [first.setdefault(key, i) for i, key in enumerate(keys.ravel().tolist())]
    rows = np.fromiter(first.values(), np.intp, len(first))
    return rows, np.searchsorted(rows, of_row)


def build_score_matrix(state: ModelState,
                       statements: list[list[Token]],
                       proofs: list[list[Token]],
                       ids: list[np.ndarray] | None = None) -> np.ndarray:
    """m[i][j] = s_i^T W p_j (``score_matrix``), where s_i encodes
    statement i and p_j proof j; each text is encoded exactly once, a
    large pooled collection in chunks on several processes
    (``_encode_chunks``). ``ids``, the statements' id arrays then the
    proofs', lets a caller that scores one collection many times turn it
    into ids once; they are encoded in the calling process."""
    if not statements or not proofs:
        raise InvalidValue("empty statement or proof collection")
    if len(statements) != len(proofs):
        raise InvalidValue(
            f"{len(statements)} statements vs {len(proofs)} proofs")
    vecs = (encode_collection(state, ids) if ids is not None
            else _encode_documents(state, [*statements, *proofs]))
    s_vecs, p_vecs = vecs[:len(statements)], vecs[len(statements):]
    (s_rows, s_of), (p_rows, p_of) = map(_distinct_rows, (s_vecs, p_vecs))
    if len(s_rows) == len(s_vecs) and len(p_rows) == len(p_vecs):
        return score_matrix(state, s_vecs, p_vecs)
    # Identical documents must tie exactly, and the product's rounding can
    # differ between rows and columns of equal vectors: score each distinct
    # vector once and copy its scores to its duplicates.
    return score_matrix(state, s_vecs[s_rows], p_vecs[p_rows])[np.ix_(s_of, p_of)]


def decode_local(m: np.ndarray) -> RankingResult:
    """Gold rank and top-1 proof of every statement, ranking proofs by
    (score desc, index asc); gold is the same-index proof."""
    _check_finite(m)
    gold = np.diag(m)[:, None]
    gold_rank = 1 + (m > gold).sum(1)
    tied = np.flatnonzero((m == gold).sum(1) > 1)  # gold's own cell counts 1
    gold_rank[tied] += ((m[tied] == gold[tied])
                        & (np.arange(m.shape[1]) < tied[:, None])).sum(1)
    return RankingResult(gold_rank.astype(np.int64),
                         np.argmax(m, axis=1).astype(np.int64))


def decode_global(m: np.ndarray, k: int | None = None) -> MatchResult:
    """One-to-one matching maximizing the total score; k prunes each row to
    its k best proofs before the sparse solve, None solves densely."""
    _check_finite(m)
    if k is None:
        proof_of, objective = assignment.solve_dense(m)
        return MatchResult(proof_of, objective, False)
    sparse = assignment.prune_topk(m, k)
    proof_of, objective, padded = assignment.solve_sparse(sparse)
    return MatchResult(proof_of, objective, padded)


def _check_finite(m: np.ndarray) -> None:
    """Ranks and matchings are undefined on NaN, and the solvers' reduced
    costs turn an infinite score into NaN."""
    bad = m.size - int(np.count_nonzero(np.isfinite(m)))
    if bad:
        raise ProofmatchError(f"non-finite scores in {bad} of {m.size} cells")
