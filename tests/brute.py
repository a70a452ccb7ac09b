"""Brute-force assignment oracle for the exact solvers."""

from __future__ import annotations

import itertools

import numpy as np

from proofmatch.assignment import SparseScores
from proofmatch.errors import ProofmatchError


class TooLarge(ProofmatchError):
    pass


_BRUTE_LIMIT = 9


def solve_brute(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Exhaustive maximum over all permutations; ties break to the
    lexicographically smallest permutation. Only for n <= 9."""
    n = m.shape[0]
    if n > _BRUTE_LIMIT:
        raise TooLarge(f"brute-force enumeration limited to n <= {_BRUTE_LIMIT}")
    best_perm = None
    best = -np.inf
    rows = np.arange(n)
    for perm in itertools.permutations(range(n)):
        total = float(m[rows, perm].sum())
        if total > best:
            best = total
            best_perm = perm
    return np.array(best_perm, dtype=np.int64), best


def solve_brute_padded(sparse: SparseScores) -> tuple[int, float]:
    """Exhaustive padded optimum of a pruned matrix: the largest number of
    retained edges any permutation uses, then the largest retained-score sum
    among the permutations that use that many. Only for n <= 9."""
    n = sparse.cols.shape[0]
    if n > _BRUTE_LIMIT:
        raise TooLarge(f"brute-force enumeration limited to n <= {_BRUTE_LIMIT}")
    retained = np.zeros((n, n), dtype=bool)
    score = np.zeros((n, n))
    rows = np.arange(n)[:, None]
    retained[rows, sparse.cols] = True
    score[rows, sparse.cols] = sparse.vals
    perms = np.array(list(itertools.permutations(range(n))))
    used = retained[np.arange(n), perms].sum(axis=1)
    sums = score[np.arange(n), perms].sum(axis=1)
    most = int(used.max())
    return most, float(sums[used == most].max())
