"""Local (per-statement ranking) and global (bipartite matching) decoding.

Both decode a score matrix from ``build_score_matrix``, which encodes each
text once: one ``Vocabulary.encode_pairs`` call maps the tokens of the
statements and the proofs to ids by value, then ``encode`` runs on each
document's id slice. A caller that scores one collection repeatedly (the
dev set during training) passes the id arrays it made once instead.
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
from .encoders import ModelState, encode, map_documents, score_matrix
from .errors import ProofmatchError


class DecodingError(ProofmatchError):
    pass


class SizeMismatch(DecodingError):
    pass


class EmptyCollection(DecodingError):
    pass


class NonFiniteScores(DecodingError):
    pass


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
    return np.stack(list(map_documents(state, ids, encode, ids)))


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
                       ids: tuple[list[np.ndarray], list[np.ndarray]] | None = None
                       ) -> np.ndarray:
    """m[i][j] = s_i^T W p_j + b (``score_matrix``), where s_i encodes
    statement i and p_j proof j; each text is encoded exactly once.
    ``ids``, the statements' and the proofs' id arrays, lets a caller that
    scores one collection many times turn it into ids once."""
    if not statements or not proofs:
        raise EmptyCollection("empty statement or proof collection")
    if len(statements) != len(proofs):
        raise SizeMismatch(
            f"{len(statements)} statements vs {len(proofs)} proofs")
    # No name holds the ids made here, so they are freed before the n×n
    # matrix is allocated.
    s_vecs, p_vecs = (encode_collection(state, c)
                      for c in ids or state.vocab.encode_pairs(statements, proofs))
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
        raise NonFiniteScores(f"non-finite scores in {bad} of {m.size} cells")
