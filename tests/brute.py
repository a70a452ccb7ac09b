"""Brute-force assignment oracle for the exact solvers."""

from __future__ import annotations

import itertools

import numpy as np

from proofmatch.assignment import AssignmentError


class TooLarge(AssignmentError):
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
