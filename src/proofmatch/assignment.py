"""Maximization linear assignment: an exact dense solver and a sparse
solver over top-k-pruned score matrices.

The public contract is maximization of the summed scores of a perfect
matching; negation to a minimization problem is an internal detail of the
library solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .errors import ProofmatchError


class AssignmentError(ProofmatchError):
    pass


class BadK(AssignmentError):
    pass


# Gap below the smallest retained score used for cells removed by pruning.
SENTINEL_GAP = 1e6


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

    When the retained edges admit no perfect matching, the missing cells are
    treated as a large negative sentinel (min retained score - 1e6) and the
    padded flag is set; the reported objective covers genuine edges only.
    """
    n, k = sparse.cols.shape
    # Shift to strictly positive minimization weights; perfect matchings all
    # have n edges, so a constant shift preserves the argmax.
    weights = (sparse.vals.max() - sparse.vals) + 1.0
    graph = csr_matrix((weights.ravel(),
                        (np.repeat(np.arange(n), k), sparse.cols.ravel())),
                       shape=(n, n))
    try:
        rows, cols = min_weight_full_bipartite_matching(graph)
    except ValueError:
        proof_of, padded = _solve_padded(sparse), True
    else:
        proof_of = np.empty(n, dtype=np.int64)
        proof_of[rows] = cols
        padded = False
    objective = float(sparse.vals[sparse.cols == proof_of[:, None]].sum())
    return proof_of, objective, padded


def _solve_padded(sparse: SparseScores) -> np.ndarray:
    n = sparse.cols.shape[0]
    dense = np.full((n, n), sparse.vals.min() - SENTINEL_GAP)
    np.put_along_axis(dense, sparse.cols, sparse.vals, 1)
    return solve_dense(dense)[0]
