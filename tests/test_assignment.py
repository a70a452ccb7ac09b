import numpy as np
import pytest

from proofmatch.assignment import (
    BadK,
    SparseScores,
    prune_topk,
    solve_dense,
    solve_sparse,
)
from brute import TooLarge, solve_brute


def assert_permutation(assignment, n):
    assert sorted(assignment) == list(range(n))


class TestBruteForce:
    def test_worked_two_by_two(self):
        perm, val = solve_brute(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert np.array_equal(perm, [1, 0])
        assert val == 4.0

    def test_tie_breaks_lexicographically(self):
        perm, val = solve_brute(np.ones((3, 3)))
        assert np.array_equal(perm, [0, 1, 2])
        assert val == 3.0

    def test_single_cell(self):
        perm, val = solve_brute(np.array([[-7.0]]))
        assert np.array_equal(perm, [0]) and val == -7.0

    def test_rejects_large_input(self):
        with pytest.raises(TooLarge):
            solve_brute(np.zeros((10, 10)))


class TestDense:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            m = rng.normal(size=(n, n))
            d_perm, d_val = solve_dense(m)
            b_perm, b_val = solve_brute(m)
            assert_permutation(d_perm, n)
            assert d_val == pytest.approx(b_val, abs=1e-9)

    def test_negative_scores(self):
        m = np.array([[-1.0, -5.0], [-5.0, -2.0]])
        perm, val = solve_dense(m)
        assert np.array_equal(perm, [0, 1])
        assert val == -3.0

    def test_shift_invariance_of_argmax(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = rng.normal(size=(n, n))
            _, val = solve_dense(m)
            _, val_shifted = solve_dense(m + 13.25)
            assert val_shifted == pytest.approx(val + 13.25 * n, abs=1e-9)


class TestPrune:
    def test_keeps_top_k_by_value(self):
        m = np.array([[3.0, 1.0, 2.0], [0.0, 0.0, 5.0], [9.0, 8.0, 7.0]])
        sp = prune_topk(m, 2)
        assert list(sp.cols[0]) == [0, 2]
        assert list(sp.cols[2]) == [0, 1]
        assert list(sp.vals[1]) == [5.0, 0.0]

    def test_tie_prefers_lower_column(self):
        sp = prune_topk(np.array([[1.0, 1.0, 1.0]] * 3), 2)
        assert list(sp.cols[0]) == [0, 1]

    def test_k_equals_n_keeps_everything(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(5, 5))
        sp = prune_topk(m, 5)
        for i in range(5):
            assert sorted(sp.cols[i]) == list(range(5))

    def test_matches_stable_argsort_on_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            m = rng.integers(0, 3, size=(n, n)).astype(float)
            order = np.argsort(-m, axis=1, kind="stable")
            for k in range(1, n + 1):
                sp = prune_topk(m, k)
                assert sp.cols.shape == sp.vals.shape == (n, k)
                assert np.array_equal(sp.cols, order[:, :k])
                assert np.array_equal(sp.vals,
                                      np.take_along_axis(m, order[:, :k], 1))

    def test_bad_k(self):
        m = np.zeros((3, 3))
        with pytest.raises(BadK):
            prune_topk(m, 0)
        with pytest.raises(BadK):
            prune_topk(m, 4)

    def test_row_counts_on_large_matrix(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(700, 700))
        sp = prune_topk(m, 500)
        assert all(len(c) == 500 for c in sp.cols)
        # row maxima always survive pruning
        for i in range(0, 700, 97):
            assert int(np.argmax(m[i])) in sp.cols[i]


class TestSparse:
    def test_unpruned_matches_dense(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            m = rng.normal(size=(n, n))
            perm, val, padded = solve_sparse(prune_topk(m, n))
            _, dense_val = solve_dense(m)
            assert not padded
            assert_permutation(perm, n)
            assert val == pytest.approx(dense_val, abs=1e-9)

    def test_objective_monotone_in_k(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(3, 10))
            m = rng.normal(size=(n, n))
            values = []
            for k in range(1, n + 1):
                perm, val, padded = solve_sparse(prune_topk(m, k))
                assert_permutation(perm, n)
                if not padded:
                    values.append(val)
            assert values == sorted(values)
            assert values  # k = n is always feasible

    def test_pigeonhole_padding(self):
        # every row retains only column 0, so no perfect matching exists
        n = 4
        m = np.zeros((n, n))
        m[:, 0] = 1.0
        perm, val, padded = solve_sparse(prune_topk(m, 1))
        assert padded
        assert_permutation(perm, n)
        # exactly one genuine edge (value 1) can be used
        assert val == 1.0

    def test_padded_objective_excludes_sentinels(self):
        sp = SparseScores(np.array([[1], [1], [2]]),
                          np.array([[5.0], [4.0], [3.0]]))
        perm, val, padded = solve_sparse(sp)
        assert padded
        assert_permutation(perm, 3)
        # best completion keeps edges (0,1) and (2,2); row 1 falls off-graph
        assert val == pytest.approx(8.0)

    def test_large_instance_feasible_k(self):
        rng = np.random.default_rng(6)
        n = 300
        m = rng.normal(size=(n, n))
        perm, val, padded = solve_sparse(prune_topk(m, 40))
        assert_permutation(perm, n)
        _, exact = solve_dense(m)
        assert val <= exact + 1e-9
