"""Dense sentinel solve of a pruned matrix: a reference for the padded
``solve_sparse``.

Pruned cells get one sentinel score far below every retained score, and the
full n×n matrix goes to scipy's dense solver, so it shares no matching code
with the implementation it checks. It finds the maximum-cardinality, then
maximum-score matching only while n times the spread of the retained scores
stays well below ``SENTINEL_GAP``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from proofmatch.assignment import SparseScores

SENTINEL_GAP = 1e6


def solve_padded_reference(sparse: SparseScores) -> tuple[np.ndarray, float]:
    """Assignment and retained-edge objective of the dense sentinel solve."""
    n = sparse.cols.shape[0]
    dense = np.full((n, n), sparse.vals.min() - SENTINEL_GAP)
    np.put_along_axis(dense, sparse.cols, sparse.vals, 1)
    proof_of = linear_sum_assignment(dense, maximize=True)[1]
    return proof_of, float(sparse.vals[sparse.cols == proof_of[:, None]].sum())
