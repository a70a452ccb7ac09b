import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from proofmatch import assignment
from proofmatch.assignment import (
    SparseScores,
    prune_topk,
    solve_dense,
    solve_sparse,
)
from proofmatch.errors import InvalidValue
from brute import TooLarge, solve_brute, solve_brute_padded
from padded_reference import solve_padded_reference


def assert_permutation(assignment, n):
    assert sorted(assignment) == list(range(n))


def hub_matrix(rng, n):
    """Normal scores plus a large bias on a few "hub" proofs, which score
    high for every statement."""
    m = rng.normal(size=(n, n))
    hubs = rng.choice(n, size=max(1, n // 10), replace=False)
    m[:, hubs] += 2.0 + 3.0 * rng.random(hubs.size)
    return m


def low_rank_matrix(rng, n):
    """Rank-2 scores with a little noise: some proofs are everyone's
    favourite."""
    return (rng.normal(size=(n, 2)) @ rng.normal(size=(2, n))
            + 0.01 * rng.normal(size=(n, n)))


SKEWED = [hub_matrix, low_rank_matrix]


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

    @pytest.mark.parametrize("make", SKEWED)
    def test_skewed_matrices_match_brute_force(self, make):
        rng = np.random.default_rng(11)
        for _ in range(150):
            n = int(rng.integers(1, 8))
            m = make(rng, n)
            perm, val = solve_dense(m)
            b_perm, b_val = solve_brute(m)
            assert np.array_equal(perm, b_perm)
            assert val == b_val

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("make", SKEWED)
    def test_the_row_reduced_cost_is_that_of_the_negated_scores(
            self, monkeypatch, make, dtype):
        # each row's maximum minus its scores: the bits of the negated
        # scores minus their row minima, which the solver used to build
        m = (make(np.random.default_rng(13), 200) * 100).astype(dtype)
        negated = np.negative(m, dtype=np.float64)
        negated -= negated.min(axis=1, keepdims=True)
        negated -= negated.min(axis=0)
        costs = []

        def solve(cost):
            costs.append(cost.copy())
            return linear_sum_assignment(cost)

        monkeypatch.setattr("scipy.optimize.linear_sum_assignment", solve)
        solve_dense(m)
        assert costs[0].dtype == np.float64
        assert costs[0].tobytes() == negated.tobytes()

    @pytest.mark.parametrize("make", SKEWED)
    def test_skewed_matrices_match_scipy_and_leave_scores_unwritten(self, make):
        m = make(np.random.default_rng(12), 300)
        before = m.copy()
        m.flags.writeable = False
        perm, val = solve_dense(m)
        rows, cols = linear_sum_assignment(m, maximize=True)
        assert np.array_equal(perm, cols)
        assert val == float(m[rows, cols].sum())
        assert np.array_equal(m, before)


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

    @pytest.mark.parametrize("k", [1, 7, 50, 200])
    def test_matches_stable_argsort_with_ties_at_the_kth_place(self, k):
        n = 200
        m = np.random.default_rng(k).integers(0, 3, size=(n, n)).astype(float)
        order = np.argsort(-m, axis=1, kind="stable")
        sp = prune_topk(m, k)
        assert np.array_equal(sp.cols, order[:, :k])
        assert np.array_equal(sp.vals, np.take_along_axis(m, order[:, :k], 1))
        if k < n:  # most rows tie across the k-th place
            kth, next_ = np.take_along_axis(m, order[:, k - 1:k + 1], 1).T
            assert (kth == next_).sum() > n // 2

    def test_builds_no_n_by_n_index_arrays(self):
        # Past the partitioned copy of a row block, only the kept mask (1
        # byte a cell) and (n, k) arrays remain; an n×n index, cumulative
        # sum or negated copy (8 bytes a cell each) would break the bound.
        n = 1000
        m = np.random.default_rng(9).normal(size=(n, n))
        tracemalloc.start()
        try:
            prune_topk(m, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * m.nbytes

    def test_partitions_in_row_blocks(self):
        # np.partition copies what it partitions: over the whole matrix
        # that copy set the traced peak, 30.5 MB at this size
        n = 2000
        m = np.random.default_rng(10).normal(size=(n, n))
        tracemalloc.start()
        try:
            prune_topk(m, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m.nbytes / 2

    @pytest.mark.parametrize("height", [1, 7, 199])
    def test_row_blocks_match_one_block(self, monkeypatch, height):
        n, k = 200, 50
        m = np.random.default_rng(height).integers(0, 3, size=(n, n)).astype(float)
        want = prune_topk(m, k)  # 200 rows fit one block
        monkeypatch.setattr(assignment, "_PRUNE_BLOCK_CELLS", height * n)
        got = prune_topk(m, k)
        assert np.array_equal(got.cols, want.cols)
        assert np.array_equal(got.vals, want.vals)

    def test_bad_k(self):
        m = np.zeros((3, 3))
        with pytest.raises(InvalidValue, match=r"^k=0 outside \[1, 3\]$"):
            prune_topk(m, 0)
        with pytest.raises(InvalidValue, match=r"^k=4 outside \[1, 3\]$"):
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

    def test_uncovered_statements_take_unused_proofs_in_descending_order(self):
        # rows 0-2 retain only proof 0 and row 3 only proof 3
        sp = SparseScores(np.array([[0], [0], [0], [3]]),
                          np.array([[1.0], [5.0], [2.0], [4.0]]))
        perm, val, padded = solve_sparse(sp)
        assert padded
        assert np.array_equal(perm, [2, 0, 1, 3])
        assert val == 9.0

    @pytest.mark.parametrize("n,k", [(8, 1), (40, 1), (40, 3), (200, 5)])
    def test_completions_add_at_most_one_diagonal_hit(self, n, k):
        # Gold is the diagonal and every gold cell is pruned, so any hit
        # comes from a pruned-cell completion.
        rng = np.random.default_rng(n + k)
        m = rng.normal(size=(n, n))
        m[:, :2] += 5.0  # two favoured proofs, so most statements pad
        m[np.arange(n), np.arange(n)] = m.min() - 1.0
        sp = prune_topk(m, k)
        assert not (sp.cols == np.arange(n)[:, None]).any()
        perm, _, padded = solve_sparse(sp)
        assert padded
        assert_permutation(perm, n)
        assert int((perm == np.arange(n)).sum()) <= 1

    def test_padded_objective_matches_dense_reference(self):
        rng = np.random.default_rng(8)
        padded_cases = 0
        for n in (50, 120, 300):
            for k in (1, 2, 3, 5, 10):
                # low rank makes some proofs everyone's favourite
                m = (rng.normal(size=(n, 4)) @ rng.normal(size=(4, n))
                     + 3.0 * np.eye(n) + 0.1 * rng.normal(size=(n, n)))
                sp = prune_topk(m, k)
                perm, val, padded = solve_sparse(sp)
                ref_perm, ref = solve_padded_reference(sp)
                assert_permutation(perm, n)
                assert (int((sp.cols == perm[:, None]).sum())
                        == int((sp.cols == ref_perm[:, None]).sum()))
                assert val == pytest.approx(ref, rel=1e-9)
                padded_cases += padded
        assert padded_cases >= 10


def rv_nonempty(sp, perm):
    """Whether R_V is non-empty: some row retains a column that the maximum
    matching of retained edges in ``perm`` leaves uncovered."""
    covered = np.zeros(len(perm), dtype=bool)
    covered[perm[(sp.cols == perm[:, None]).any(1)]] = True
    return bool((~covered[sp.cols]).any())


def two_block_matrix(rng, n):
    """Statements [0, n/2) score high only on proofs [0, n/3), and the other
    statements only on the other proofs. Top-k pruning with k <= n/3 then
    pads the first block and leaves the second with spare proofs, so R_V is
    non-empty."""
    m = rng.normal(size=(n, n))
    m[:n // 2, :n // 3] += 10.0
    m[n // 2:, n // 3:] += 10.0
    return m


def test_sparse_matches_padded_reference_on_skewed_matrices():
    rng = np.random.default_rng(13)
    cases = {"feasible": 0, "padded": 0, "rv_nonempty": 0}
    for make in (*SKEWED, two_block_matrix):
        for n in (30, 80, 150):
            for k in (1, 2, 4, 8, n // 2):
                sp = prune_topk(make(rng, n), k)
                perm, val, padded = solve_sparse(sp)
                ref_perm, ref = solve_padded_reference(sp)
                assert_permutation(perm, n)
                # Generic scores have one best matching of retained edges.
                on_edge = sp.cols == perm[:, None]
                assert np.array_equal(on_edge, sp.cols == ref_perm[:, None])
                assert padded == (not on_edge.any(1).all())
                assert val == pytest.approx(ref, rel=1e-12)
                if not padded:
                    cases["feasible"] += 1
                else:
                    cases["padded"] += 1
                    cases["rv_nonempty"] += rv_nonempty(sp, ref_perm)
    assert min(cases.values()) >= 8, cases


@st.composite
def pruned_grids(draw):
    """A top-k-pruned n×n grid of few distinct values, so ties abound."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    cells = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    m = 0.5 * np.array(cells, dtype=float).reshape(n, n)
    # Statements compete for a favoured prefix of proofs, so most grids pad.
    m[:, :draw(st.integers(0, n))] += 3.0
    return prune_topk(m, k)


@settings(max_examples=300, deadline=None)
@given(pruned_grids())
def test_sparse_objective_matches_padded_brute_force(sp):
    n = sp.cols.shape[0]
    perm, val, padded = solve_sparse(sp)
    most, best = solve_brute_padded(sp)
    assert_permutation(perm, n)
    assert padded == (most < n)
    assert int((sp.cols == perm[:, None]).sum()) == most
    assert val == pytest.approx(best, abs=1e-9)


class TestSparseScale:
    def test_padded_solve_needs_no_dense_solver(self, monkeypatch):
        def refuse(m):
            raise AssertionError("solve_sparse called the dense solver")
        monkeypatch.setattr(assignment, "solve_dense", refuse)
        m = np.zeros((6, 6))
        m[:, 0] = 1.0
        perm, val, padded = solve_sparse(prune_topk(m, 2))
        assert padded
        assert_permutation(perm, 6)
        assert val == 1.0

    @pytest.mark.parametrize("span", [5000, 2500])
    def test_padded_memory_stays_linear_in_retained_edges(self, span):
        # Built without a dense matrix: a dense n×n float64 copy is 200 MB.
        # Every statement retains proofs among the first ``span`` only.
        n, k = 5000, 5
        rng = np.random.default_rng(span)
        cols = (rng.integers(0, span, n)[:, None] + 7 * np.arange(k)) % span
        vals = -np.sort(-rng.normal(size=(n, k)), axis=1)
        tracemalloc.start()
        try:
            perm, _, padded = solve_sparse(SparseScores(cols, vals))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert padded
        assert_permutation(perm, n)
        assert peak < 50 * 2**20


class TestColumnShift:
    """``solve_sparse`` measures each column of the part that every maximum
    matching covers from that column's least weight."""

    def test_assignment_is_the_one_from_unshifted_weights(self, monkeypatch):
        rng = np.random.default_rng(23)
        instances = [prune_topk(make(rng, n), k)
                     for make in (*SKEWED, two_block_matrix)
                     for n in (40, 120) for k in (2, 5, n // 3)]
        shifted = [solve_sparse(sp) for sp in instances]
        match_part = assignment._match_part
        monkeypatch.setattr(assignment, "_match_part",
                            lambda *args, shift_columns=False: match_part(*args))
        padded = 0
        for sp, (perm, val, pad) in zip(instances, shifted):
            ref_perm, ref_val, ref_pad = solve_sparse(sp)
            assert np.array_equal(perm, ref_perm)
            assert (val, pad) == (ref_val, ref_pad)
            padded += pad
        assert 0 < padded < len(instances)

    def test_objective_matches_brute_force(self):
        rng = np.random.default_rng(29)
        padded_seen = set()
        for _ in range(80):
            n = int(rng.integers(2, 8))
            m = rng.normal(size=(n, n))
            m[:, :int(rng.integers(0, n))] += 3.0
            sp = prune_topk(m, int(rng.integers(1, n + 1)))
            perm, val, padded = solve_sparse(sp)
            most, best = solve_brute_padded(sp)
            assert_permutation(perm, n)
            assert padded == (most < n)
            assert val == pytest.approx(best, abs=1e-9)
            padded_seen.add(padded)
        assert padded_seen == {False, True}
