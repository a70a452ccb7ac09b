"""Maximization linear assignment: an exact dense solver and a sparse
solver over top-k-pruned score matrices.

The public contract is maximization of the summed scores of a perfect
matching; negation to a minimization problem is an internal detail of the
library solvers. When the retained edges of a pruned matrix admit no
perfect matching, the sparse solver returns the highest-scoring among
maximum-cardinality matchings of the retained edges, completed to a
permutation with pruned cells (uncovered statements take the unused proofs
in descending order); it never builds an n×n matrix.

Both solvers minimize reduced costs (Jonker & Volgenant 1987): a constant
subtracted from one row, or from one column, changes the cost of every
matching that covers that row or column by the same amount, so it changes
no optimal matching. The dense solver subtracts the row minima, then the
column minima, of the negated scores. The sparse solver measures each
row's retained weights from that row's best score wherever every row is
matched, and then each column's from its least weight wherever every
column is matched. Skewed scores, where a few "hub" proofs score high for
many statements, are what make the unreduced problem slow. The reported
objective is always summed from the scores themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidValue

# scipy is imported by the functions that call it: importing it takes about
# half a second, and the corpus subcommands never solve an assignment.
if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


@dataclass
class SparseScores:
    """Top-k-pruned score matrix as two (n, k) arrays: per row, retained
    columns sorted by descending score (ties by lower column index)."""

    cols: np.ndarray
    vals: np.ndarray


def solve_dense(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Optimal maximization assignment of a dense score matrix; ``m`` is
    read, never written."""
    from scipy.optimize import linear_sum_assignment
    cost = np.negative(m, dtype=np.float64)
    # Rows first, then columns. At n=2000 on eval-n2000 score matrices this
    # took the solve to 0.65x its unreduced time at the median (0.77x at
    # worst), and on a column-biased matrix from 4.59 to 0.54 s; columns
    # first was 2.1x slower than rows first.
    cost -= cost.min(axis=1, keepdims=True)
    cost -= cost.min(axis=0)
    rows, cols = linear_sum_assignment(cost)
    return cols.astype(np.int64), float(m[rows, cols].sum())


# prune_topk partitions this many cells of the matrix at a time (4 MB of
# float64): np.partition copies what it partitions, and a whole-matrix copy
# would be 32 MB at n=2000 and 3.2 GB at n=20000.
_PRUNE_BLOCK_CELLS = 1 << 19


def prune_topk(m: np.ndarray, k: int) -> SparseScores:
    """Retain each row's k highest-scoring columns (ties by lower index)."""
    n = m.shape[0]
    if not 1 <= k <= n:
        raise InvalidValue(f"k={k} outside [1, {n}]")
    height = max(1, _PRUNE_BLOCK_CELLS // n)
    cols = np.concatenate([_top_columns(m[a:a + height], k)
                           for a in range(0, n, height)])
    vals = np.take_along_axis(m, cols, 1).astype(np.float64)
    order = np.argsort(-vals, axis=1, kind="stable")
    return SparseScores(np.take_along_axis(cols, order, 1),
                        np.take_along_axis(vals, order, 1))


def _top_columns(block: np.ndarray, k: int) -> np.ndarray:
    """Each row's k highest-scoring columns, ascending (ties by lower
    index)."""
    n = block.shape[1]
    # Each row's k-th highest value, copied out so that the partitioned
    # block is freed at once.
    threshold = np.partition(block, n - k, axis=1)[:, [n - k]]
    keep = block >= threshold
    # A row keeps more than k columns only when several tie at its k-th
    # value; of those, the highest-indexed ones go.
    excess = keep.sum(1) - k
    rows = np.flatnonzero(excess)
    if rows.size:
        tied = block[rows] == threshold[rows]
        from_right = np.cumsum(tied[:, ::-1], axis=1)[:, ::-1]
        keep[rows] &= ~(tied & (from_right <= excess[rows, None]))
    return np.nonzero(keep)[1].reshape(-1, k)


def solve_sparse(sparse: SparseScores) -> tuple[np.ndarray, float, bool]:
    """Optimal assignment over the retained edges.

    When the retained edges admit no perfect matching, the padded flag is set
    and the assignment is the highest-scoring among maximum-cardinality
    matchings of the retained edges; the statements it leaves uncovered take
    the unused proofs in descending order (the lowest-numbered uncovered
    statement gets the highest-numbered unused proof), so at most one
    completion can land on the diagonal. The reported objective covers
    retained edges only.

    Dulmage–Mendelsohn: let C_V be the columns reachable from the uncovered
    ones along alternating paths (column → row over any edge, row → its
    matched column) and R_V the rows matched to them. Every neighbour of C_V
    is in R_V and |C_V| = |R_V| + (uncovered columns), so every maximum
    matching matches R_V into C_V and covers every column outside C_V. The
    two parts are independent full matchings of rectangular subgraphs. With
    no uncovered column, C_V and R_V are empty and the one remaining part is
    the whole graph.
    """
    from scipy.sparse.csgraph import maximum_bipartite_matching
    n = sparse.cols.shape[0]
    # Minimization weights of at least 1, each row's measured from its best
    # retained score: exact wherever every row is matched.
    graph = _graph(sparse, sparse.vals.max(1, keepdims=True))
    row_of = maximum_bipartite_matching(graph, perm_type="row")
    padded = bool((row_of < 0).any())
    in_rv, in_cv = _dulmage_mendelsohn(graph, row_of)
    proof_of = np.full(n, -1, dtype=np.int64)
    # R_V × C_V matches every row of R_V.
    _match_part(graph, in_rv, in_cv, proof_of)
    # The rest matches every column outside C_V, so a column shift is exact
    # there. When padded, it leaves rows unmatched, where a row shift is
    # inexact; the column shift then follows a common one.
    rest = _graph(sparse, sparse.vals.max()) if padded else graph
    _match_part(rest, ~in_rv, ~in_cv, proof_of, shift_columns=True)
    uncovered = proof_of < 0
    unused = np.ones(n, dtype=bool)
    unused[proof_of[~uncovered]] = False
    # Descending, so that a completion cannot follow the input order: the
    # pairs (uncovered row, unused column) include at most one (i, i).
    proof_of[uncovered] = np.flatnonzero(unused)[::-1]
    objective = float(sparse.vals[sparse.cols == proof_of[:, None]].sum())
    return proof_of, objective, padded


def _graph(sparse: SparseScores, top: np.ndarray | float) -> csr_matrix:
    """The retained edges weighted (top - score) + 1, which stays >= 1 while
    ``top`` is at least each row's best retained score."""
    from scipy.sparse import csr_matrix
    n, k = sparse.cols.shape
    weights = (top - sparse.vals) + 1.0
    return csr_matrix((weights.ravel(),
                       (np.repeat(np.arange(n), k), sparse.cols.ravel())),
                      shape=(n, n))


def _dulmage_mendelsohn(graph: csr_matrix, row_of: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Masks of R_V and C_V, given one maximum matching of ``graph``
    (``row_of[c]`` is the row matched to column c, or -1)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order
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
    return in_rv, in_cv


def _match_part(graph: csr_matrix, row_mask: np.ndarray, col_mask: np.ndarray,
                proof_of: np.ndarray, shift_columns: bool = False) -> None:
    """Least-weight full matching of the rows and columns selected by the
    masks, written into ``proof_of``. With ``shift_columns``, which is exact
    only where the matching covers every column of the part, each column's
    weights are first measured from its least one, staying >= 1."""
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching
    rows, cols = np.flatnonzero(row_mask), np.flatnonzero(col_mask)
    if rows.size and cols.size:
        part = graph[rows][:, cols]
        if shift_columns:
            least = np.full(cols.size, np.inf)
            np.minimum.at(least, part.indices, part.data)
            part.data = (part.data - least[part.indices]) + 1.0
        i, j = min_weight_full_bipartite_matching(part)
        proof_of[rows[i]] = cols[j]
