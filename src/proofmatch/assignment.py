"""Maximization linear assignment: an exact dense solver and a sparse
solver over top-k-pruned score matrices.

The public contract is maximization of the summed scores of a perfect
matching; negation to a minimization problem is an internal detail of the
library solvers. When the retained edges of a pruned matrix admit no
perfect matching, the sparse solver returns the highest-scoring among
maximum-cardinality matchings of the retained edges, completed to a
permutation with pruned cells (uncovered statements take the unused proofs
in descending order); it never builds an n×n matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (
    breadth_first_order,
    maximum_bipartite_matching,
    min_weight_full_bipartite_matching,
)

from .errors import ProofmatchError


class AssignmentError(ProofmatchError):
    pass


class BadK(AssignmentError):
    pass


@dataclass
class SparseScores:
    """Top-k-pruned score matrix as two (n, k) arrays: per row, retained
    columns sorted by descending score (ties by lower column index)."""

    cols: np.ndarray
    vals: np.ndarray


def solve_dense(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Optimal maximization assignment of a dense score matrix."""
    rows, cols = linear_sum_assignment(m, maximize=True)
    return cols.astype(np.int64), float(m[rows, cols].sum())


def prune_topk(m: np.ndarray, k: int) -> SparseScores:
    """Retain each row's k highest-scoring columns (ties by lower index)."""
    n = m.shape[0]
    if not 1 <= k <= n:
        raise BadK(f"k={k} outside [1, {n}]")
    kth = np.argpartition(-m, k - 1, axis=1)[:, k - 1, None]
    threshold = np.take_along_axis(m, kth, 1)
    above = m > threshold
    tied = m == threshold
    # Of the columns tied at the k-th value, keep the lowest-indexed ones.
    keep = above | (tied & (np.cumsum(tied, axis=1)
                            <= k - above.sum(1, keepdims=True)))
    cols = np.nonzero(keep)[1].reshape(n, k)
    vals = np.take_along_axis(m, cols, 1).astype(np.float64)
    order = np.argsort(-vals, axis=1, kind="stable")
    return SparseScores(np.take_along_axis(cols, order, 1),
                        np.take_along_axis(vals, order, 1))


def solve_sparse(sparse: SparseScores) -> tuple[np.ndarray, float, bool]:
    """Optimal assignment over the retained edges.

    When the retained edges admit no perfect matching, the padded flag is set
    and the assignment is the highest-scoring among maximum-cardinality
    matchings of the retained edges; the statements it leaves uncovered take
    the unused proofs in descending order (the lowest-numbered uncovered
    statement gets the highest-numbered unused proof), so at most one
    completion can land on the diagonal. The reported objective covers
    retained edges only.
    """
    n, k = sparse.cols.shape
    # Shift to strictly positive minimization weights; the full matchings of
    # one graph all have the same number of edges, so a constant shift
    # preserves the argmax.
    weights = (sparse.vals.max() - sparse.vals) + 1.0
    graph = csr_matrix((weights.ravel(),
                        (np.repeat(np.arange(n), k), sparse.cols.ravel())),
                       shape=(n, n))
    row_of = maximum_bipartite_matching(graph, perm_type="row")
    padded = bool((row_of < 0).any())
    proof_of = _best_maximum_matching(graph, row_of)
    objective = float(sparse.vals[sparse.cols == proof_of[:, None]].sum())
    return proof_of, objective, padded


def _best_maximum_matching(graph: csr_matrix, row_of: np.ndarray) -> np.ndarray:
    """Least-weight maximum-cardinality matching of ``graph``, given one
    maximum matching (``row_of[c]`` is the row matched to column c, or -1),
    with the uncovered rows taking the unused columns in descending order.
    With no uncovered column, C_V and R_V are empty and the one remaining
    part is the whole graph.

    Dulmage–Mendelsohn: let C_V be the columns reachable from the uncovered
    ones along alternating paths (column → row over any edge, row → its
    matched column) and R_V the rows matched to them. Every neighbour of C_V
    is in R_V and |C_V| = |R_V| + (uncovered columns), so every maximum
    matching matches R_V into C_V and covers every column outside C_V. The
    two parts are independent full matchings of rectangular subgraphs.
    """
    n = graph.shape[0]
    covered = row_of >= 0
    col_of = np.full(n, -1)
    col_of[row_of[covered]] = np.flatnonzero(covered)
    free = np.flatnonzero(~covered)
    # Column graph with a super-source n: column c → col_of[r] for each edge
    # (r, c) with r matched, and n → each uncovered column.
    edges = graph.tocoo()
    step = col_of[edges.row]
    keep = step >= 0
    src = np.concatenate([edges.col[keep], np.full(free.size, n)])
    dst = np.concatenate([step[keep], free])
    reach = csr_matrix((np.ones(src.size), (src, dst)), shape=(n + 1, n + 1))
    in_cv = np.zeros(n, dtype=bool)
    in_cv[breadth_first_order(reach, n, return_predecessors=False)[1:]] = True
    in_rv = np.zeros(n, dtype=bool)
    in_rv[row_of[in_cv & covered]] = True

    proof_of = np.full(n, -1, dtype=np.int64)
    for part in (True, False):
        rows, cols = np.flatnonzero(in_rv == part), np.flatnonzero(in_cv == part)
        if rows.size and cols.size:
            i, j = min_weight_full_bipartite_matching(graph[rows][:, cols])
            proof_of[rows[i]] = cols[j]
    uncovered = proof_of < 0
    unused = np.ones(n, dtype=bool)
    unused[proof_of[~uncovered]] = False
    # Descending, so that a completion cannot follow the input order: the
    # pairs (uncovered row, unused column) include at most one (i, i).
    proof_of[uncovered] = np.flatnonzero(unused)[::-1]
    return proof_of
