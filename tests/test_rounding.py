import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import netalign.rounding as rounding
from netalign.align import build_operator
from netalign.graphs import Permutation
from netalign.harness import make_instance
from netalign.rounding import greedy_round, max_weight_matching
from netalign.spectral import top_eigenvector

import oracles


class TestMaxWeightMatching:
    def test_identity_scores(self):
        sigma = max_weight_matching(np.eye(4))
        assert sigma == Permutation.identity(4)

    def test_forced_swap_2x2(self):
        scores = -np.eye(2) + np.ones((2, 2))
        sigma = max_weight_matching(scores)
        assert sigma == Permutation([1, 0])
        assert scores[0, sigma(0)] + scores[1, sigma(1)] == 2.0

    def test_exhaustive_oracle_200_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            scores = rng.standard_normal((6, 6))
            sigma = max_weight_matching(scores)
            total = float(scores[np.arange(6), sigma.map].sum())
            assert total == oracles.best_assignment_weight(scores)

    def test_rejects_nan(self):
        scores = np.ones((3, 3))
        scores[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            max_weight_matching(scores)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            max_weight_matching(np.ones((2, 3)))


class TestGreedyRound:
    def test_worked_example_identity(self):
        # picks 0.9 at (0,0), eliminates row 0 / col 0, then 0.1 at (1,1)
        sigma = greedy_round(np.array([[0.9, 0.5], [0.8, 0.1]]))
        assert sigma == Permutation([0, 1])

    def test_worked_example_swap(self):
        # picks 0.9 at (0,1), then 0.8 at (1,0)
        sigma = greedy_round(np.array([[0.1, 0.9], [0.8, 0.7]]))
        assert sigma == Permutation([1, 0])

    def test_fixed_point_on_all_size4_permutation_matrices(self):
        for pi in itertools.permutations(range(4)):
            matrix = np.zeros((4, 4))
            matrix[np.arange(4), pi] = 1.0
            assert greedy_round(matrix) == Permutation(list(pi))

    def test_tie_break_smallest_linear_index(self):
        sigma = greedy_round(np.ones((3, 3)))
        assert sigma == Permutation.identity(3)

    def test_matches_hand_execution_on_random_draws(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            scores = rng.standard_normal((5, 5))
            assert np.array_equal(greedy_round(scores).map,
                                  oracles.greedy_round_by_hand(scores))

    def test_rejects_infinity(self):
        scores = np.ones((2, 2))
        scores[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            greedy_round(scores)


class TestSharedProperties:
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_both_return_bijections(self, n, seed):
        rng = np.random.default_rng(seed)
        # duplicated values on purpose: quantized scores force ties
        scores = np.round(rng.standard_normal((n, n)), 1)
        for result in (max_weight_matching(scores), greedy_round(scores)):
            assert sorted(result.map.tolist()) == list(range(n))

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_exact_dominates_greedy(self, n, seed):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal((n, n))
        exact_total = scores[np.arange(n), max_weight_matching(scores).map].sum()
        greedy_total = scores[np.arange(n), greedy_round(scores).map].sum()
        assert exact_total >= greedy_total - 1e-12

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_greedy_equivariance_distinct_entries(self, n, seed):
        rng = np.random.default_rng(seed)
        scores = rng.permutation(n * n).reshape(n, n).astype(float)  # all distinct
        rho = Permutation(rng.permutation(n))
        tau = Permutation(rng.permutation(n))
        relabeled = np.empty_like(scores)
        relabeled[np.ix_(rho.map, tau.map)] = scores  # S'[rho(i), tau(j)] = S[i, j]
        sigma = greedy_round(scores)
        sigma_relabeled = greedy_round(relabeled)
        # assignment pairs transform as (i, j) -> (rho(i), tau(j))
        assert np.array_equal(sigma_relabeled.map[rho.map], tau.map[sigma.map])

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31),
           st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_positive_scaling_invariance(self, n, seed, c):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal((n, n))
        assert greedy_round(scores) == greedy_round(c * scores)
        assert max_weight_matching(scores) == max_weight_matching(c * scores)


@pytest.fixture(scope="class")
def reduced_at_every_n():
    """Solve every exact assignment on column-reduced scores."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rounding, "REDUCE_MIN_N", 1)
        yield


@pytest.mark.usefixtures("reduced_at_every_n")
class TestMaxWeightMatchingReduced(TestMaxWeightMatching):
    """TestMaxWeightMatching, and the exact route's exhaustive checks from
    TestSharedProperties, with every assignment solved on column-reduced
    scores."""

    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_quantized_ties_give_an_optimal_bijection(self, n, seed):
        rng = np.random.default_rng(seed)
        # duplicated values force ties; integral values make every sum exact
        scores = np.round(10 * rng.standard_normal((n, n)))
        mapping = max_weight_matching(scores).map
        assert sorted(mapping.tolist()) == list(range(n))
        assert scores[np.arange(n), mapping].sum() == oracles.best_assignment_weight(scores)

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_exact_dominates_greedy(self, n, seed):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal((n, n))
        exact_total = scores[np.arange(n), max_weight_matching(scores).map].sum()
        greedy_total = scores[np.arange(n), greedy_round(scores).map].sum()
        assert exact_total >= greedy_total - 1e-12


# EigenAlign scores above REDUCE_MIN_N: planted instances at p = 0.2 over
# several noise levels and two seeds, and one sparse pair. Above
# SORT_DUALS_MIN_N: planted n = 60, 100 and 200, and match-sparse's instance
# (n = 600, mean degree 7.5) on its six audit seeds.
EIGEN_SCORE_INSTANCES = [(n, 0.2, lam, seed) for n in (30, 40, 50)
                         for lam in (0.0, 0.05, 0.1, 0.3) for seed in (3, 7)]
EIGEN_SCORE_INSTANCES.append((200, 0.02, 0.001, 7))
EIGEN_SCORE_INSTANCES += [(n, 0.2, lam, 3) for n in (60, 100, 200) for lam in (0.0, 0.1, 0.5)]
EIGEN_SCORE_INSTANCES += [(600, 0.0125, 0.001, seed) for seed in (1, 2, 3, 5, 6, 4242)]


def eigen_result(n, p, lam, seed):
    g1, g2, _ = make_instance(n, p, lam, 0, seed)
    return top_eigenvector(build_operator(g1, g2))


def eigen_scores(n, p, lam, seed):
    return eigen_result(n, p, lam, seed).vector.reshape(n, n)


@pytest.mark.parametrize("n, p, lam, seed", EIGEN_SCORE_INSTANCES)
def test_reduced_path_loses_no_exact_total(n, p, lam, seed, monkeypatch):
    """The reduced solve may break a tie differently from the raw one; the
    permutation it returns never has a smaller exact total. Above
    SORT_DUALS_MIN_N it is solved on sort-matching duals, and its exact total
    equals the column-reduced solve's."""
    assert n >= rounding.REDUCE_MIN_N
    scores = eigen_scores(n, p, lam, seed)
    mapping = max_weight_matching(scores).map
    total = oracles.assignment_score_exact(scores, mapping)
    _, raw = linear_sum_assignment(scores, maximize=True)
    if not np.array_equal(mapping, raw):
        assert total >= oracles.assignment_score_exact(scores, raw)
    if n >= rounding.SORT_DUALS_MIN_N:
        assert rounding._sort_duals(scores, scores.sum(axis=0) / n) is not None
        monkeypatch.setattr(rounding, "SORT_DUALS_MIN_N", n + 1)
        column_reduced = max_weight_matching(scores).map
        assert total == oracles.assignment_score_exact(scores, column_reduced)


def has_bit_equal_lines(scores):
    n = scores.shape[0]
    return any(len({line.tobytes() for line in lines}) < n for lines in (scores, scores.T))


@pytest.mark.parametrize("n, p, lam, seed", [case for case in EIGEN_SCORE_INSTANCES
                                              if case[0] >= rounding.SORT_DUALS_MIN_N])
def test_sort_duals_from_factors_same_bytes(n, p, lam, seed):
    """Above n = 50 the eigenvector comes with the Krylov factors it was
    built from, scores = P Q^T. The products, norm and column means taken
    from them round differently from passes over the scores, but give the
    same order here, so the same (u, v, r, c) bit for bit; where score lines
    are bit-equal (two instances here) they defer to the passes."""
    eig = eigen_result(n, p, lam, seed)
    scores = eig.vector.reshape(n, n)
    left, right = eig._factors
    assert (left @ right.T).tobytes() == scores.tobytes()
    from_passes = rounding._sort_duals(scores, scores.sum(axis=0) / n)
    from_factors = rounding._sort_duals(scores, None, eig._factors)
    if has_bit_equal_lines(scores):
        assert from_factors is None
        return
    for got, expected in zip(from_factors, from_passes, strict=True):
        assert got.tobytes() == expected.tobytes()


def test_near_tied_factor_keys_defer_to_the_passes():
    """Bit-equal score columns (here G2's six isolated vertices) come from
    bit-equal rows of Q, so their sort keys from the factors tie, while a
    pass over the scores can round one of them apart (on this instance one
    does, with OpenBLAS's SkylakeX core) and so order the tied columns
    otherwise. The factors then leave the order to the passes, and the
    rounding keeps their bytes."""
    n = 51
    eig = eigen_result(n, 0.05, 0.0, 1)
    scores = eig.vector.reshape(n, n)
    assert has_bit_equal_lines(scores)
    assert rounding._sort_duals(scores, None, eig._factors) is None
    own = rounding._max_weight_matching(np.array(scores), factors=eig._factors)
    assert own == max_weight_matching(scores)


def test_guard_rejection_from_factors_keeps_column_reduced_bytes(monkeypatch):
    """When the guard rejects duals read off the factors, the passes decide
    again, and on their rejection the column means are the passes' too: the
    costs are the column reduction's, bit for bit, also written in place."""
    n = 200
    eig = eigen_result(n, 0.02, 0.001, 7)
    scores = eig.vector.reshape(n, n)
    monkeypatch.setattr(rounding, "SORT_DUALS_MIN_SHARE", 2.0)  # above any share
    calls = spy_costs(monkeypatch)
    s = np.array(scores)
    rounding._max_weight_matching(s, out=s, factors=eig._factors)
    [(cost, maximize)] = calls
    assert cost is s and not maximize
    assert cost.tobytes() == (scores.sum(axis=0) / n - scores).tobytes()


def test_factors_checked_finite():
    """With factors only the factors are scanned for NaN and infinity."""
    eig = eigen_result(60, 0.1, 0.05, 1)
    left, right = eig._factors
    bad = np.array(left)
    bad[3, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        rounding._max_weight_matching(np.array(eig.vector.reshape(60, 60)),
                                      factors=(bad, right))


@pytest.mark.parametrize("case", ["eigen-n24", "eigen-n25", "eigen-n50", "eigen-n51",
                                  "normal-n60"])
def test_leaves_its_input_unchanged(case):
    """In every regime, the guard's fallback included, the public solve
    writes nothing to a writable input (EigenAlign's in-place rounding is a
    private path)."""
    n = int(case.rsplit("n", 1)[1])
    if case.startswith("eigen"):
        scores = np.array(eigen_scores(n, 0.2, 0.05, 11))
    else:
        scores = np.random.default_rng(60).standard_normal((n, n))
        assert rounding._sort_duals(scores, scores.sum(axis=0) / n) is None
    before = scores.tobytes()
    max_weight_matching(scores)
    assert scores.tobytes() == before


def spy_costs(monkeypatch):
    """Record the (cost, maximize) of every `linear_sum_assignment` call."""
    calls = []

    def spy(cost, maximize=False):
        calls.append((cost, maximize))
        return linear_sum_assignment(cost, maximize=maximize)

    monkeypatch.setattr(rounding, "linear_sum_assignment", spy)
    return calls


@pytest.mark.parametrize("n, reduced", [(rounding.REDUCE_MIN_N - 1, False),
                                        (rounding.REDUCE_MIN_N, True)])
def test_reduction_chosen_from_n(monkeypatch, n, reduced):
    calls = spy_costs(monkeypatch)
    scores = np.random.default_rng(n).standard_normal((n, n))
    max_weight_matching(scores)
    [(cost, maximize)] = calls
    assert maximize is not reduced
    expected = scores.mean(axis=0) - scores if reduced else scores
    assert np.allclose(cost, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", ["eigen-n50", "eigen-n51", "normal-n60"])
def test_sort_duals_chosen_from_n_and_scores(monkeypatch, case):
    """At n = 50 and for scores far from rank one the costs are the column
    reduction bit for bit; EigenAlign scores at n = 51 take the duals of the
    sort matching, which pairs rows and columns in the order of the centred
    scores' leading singular vectors (oracle: a dense SVD)."""
    n = int(case.rsplit("n", 1)[1])
    if case.startswith("eigen"):
        scores = eigen_scores(n, 0.2, 0.05, 11)
    else:
        scores = np.random.default_rng(60).standard_normal((n, n))
    calls = spy_costs(monkeypatch)
    max_weight_matching(scores)
    [(cost, maximize)] = calls
    assert not maximize
    column_reduced = scores.sum(axis=0) / n - scores
    if case != "eigen-n51":
        assert cost.tobytes() == column_reduced.tobytes()
        return
    assert n == rounding.SORT_DUALS_MIN_N
    # cost = u_i + v_j - s_ij, and not the column reduction (u constant).
    shifts = cost + scores
    np.testing.assert_allclose(shifts, shifts[:, :1] + shifts[:1] - shifts[0, 0],
                               rtol=0, atol=1e-15)
    assert np.ptp(shifts[:, 0]) > 1e-6 * np.abs(scores).max()
    # Exactly zero on one permutation, which is monotone in the leading
    # singular vectors.
    rows, cols = linear_sum_assignment(cost != 0)
    assert not cost[rows, cols].any()
    centred = scores - scores.mean(axis=0) - scores.mean(axis=1)[:, None] + scores.mean()
    left, _, right = np.linalg.svd(centred)
    x, y = left[:, 0], right[0]
    order = np.argsort(x)
    assert np.all(np.diff(x[order]) > 0) and np.all(np.diff(y[cols[order]]) > 0)


def with_offsets(matrix, rng):
    """`matrix` plus large row and column offsets, which change no
    permutation's rank."""
    n = matrix.shape[0]
    return matrix + 100.0 * rng.standard_normal((n, 1)) + 100.0 * rng.standard_normal(n) + 1e3


def test_sort_duals_feasible_on_monge_scores():
    """On scores that are rank one plus offsets, sorted by the factors they
    are a Monge matrix, and the closed-form duals are feasible (reduced costs
    nonnegative to rounding) and tight on the sort matching: there the costs,
    formed as the solver's are, (v - s) + u, are exactly 0, which the sort
    matching's certificate rests on."""
    rng = np.random.default_rng(61)
    n = 60
    scores = with_offsets(np.outer(rng.standard_normal(n), rng.standard_normal(n)), rng)
    u, v, r, c = rounding._sort_duals(scores, scores.sum(axis=0) / n)
    assert sorted(r.tolist()) == sorted(c.tolist()) == list(range(n))
    cost = np.subtract(v, scores)
    cost += u[:, None]
    assert cost.min() >= -1e-9
    assert not cost[r, c].any()
    # Zero on the sort matching (k, k) and, by the telescoping, on (k, k-1).
    assert np.count_nonzero(np.abs(cost) <= 1e-9) == 2 * n - 1
    assert cost[np.arange(n), max_weight_matching(scores).map].sum() <= 1e-9


def solve_path(calls, n):
    """Which route the sort-duals branch took, from the `spy_costs` record."""
    sizes = [cost.shape[0] for cost, _ in calls]
    if not sizes:
        return "certified"
    return "full" if sizes == [n] else "repaired"


# Sparse planted pairs, whose sorted scores are Monge up to rounding:
# match-sparse's instance on 40 seeds, and a sparser n = 200 draw.
SPARSE_INSTANCES = ([(600, 0.0125, 0.001, seed) for seed in range(40)]
                    + [(200, 0.02, 0.001, seed) for seed in range(20)])


@pytest.mark.parametrize("n, p, lam, seed", SPARSE_INSTANCES)
def test_sort_matching_loses_no_exact_total(n, p, lam, seed, monkeypatch):
    """On sparse pairs the sort matching is certified or repaired in
    blocks, never solved whole, and its exact total equals the full solve's
    and the column-reduced solve's, and is at least scipy's raw solve's."""
    scores = eigen_scores(n, p, lam, seed)
    calls = spy_costs(monkeypatch)
    total = oracles.assignment_score_exact(scores, max_weight_matching(scores).map)
    assert solve_path(calls, n) != "full"
    u, v, _, _ = rounding._sort_duals(scores, scores.sum(axis=0) / n)
    _, full = oracles.full_solve_on_duals(scores, u, v)
    assert total == oracles.assignment_score_exact(scores, full)
    _, column_reduced = linear_sum_assignment(scores.sum(axis=0) / n - scores)
    assert total == oracles.assignment_score_exact(scores, column_reduced)
    _, raw = linear_sum_assignment(scores, maximize=True)
    assert total >= oracles.assignment_score_exact(scores, raw)


@pytest.mark.parametrize("seed, path", [(1, "certified"), (2, "repaired"), (9, "repaired")])
def test_match_sparse_seed_path(seed, path, monkeypatch):
    """Match-sparse's seed 1 has no negative cost, so no solve runs; seeds 2
    and 9 have 1-ulp negatives, and only small blocks are solved."""
    scores = eigen_scores(600, 0.0125, 0.001, seed)
    calls = spy_costs(monkeypatch)
    max_weight_matching(scores)
    assert solve_path(calls, 600) == path
    assert all(cost.shape[0] <= 10 for cost, _ in calls)


@pytest.mark.parametrize("seed", [2, 5, 8, 9])
def test_one_pass_repair_keeps_the_two_pass_blocks(seed, monkeypatch):
    """The repair takes its candidates in one pass over the scores less v,
    against a floor per row. On match-sparse's repaired seeds it solves the
    same blocks, with the same cost bytes, and returns the same mapping as
    the earlier rule's two passes over the costs (oracle)."""
    n = 600
    scores = eigen_scores(n, 0.0125, 0.001, seed)
    u, v, r, c = rounding._sort_duals(scores, scores.sum(axis=0) / n)
    cost = np.subtract(v, scores)
    cost += u[:, None]
    blocks, expected = oracles.two_pass_block_repair(cost, u, v, r, c)
    calls = spy_costs(monkeypatch)
    mapping = max_weight_matching(scores).map
    assert solve_path(calls, n) == "repaired"
    assert [block.tobytes() for block in blocks] == [got.tobytes() for got, _ in calls]
    assert mapping.tobytes() == expected.tobytes()


@given(st.integers(min_value=51, max_value=80), st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_block_repair_equals_full_solve(n, seed, violations):
    """Rank-one-plus-offset scores with a few entries raised until their
    cost is about -1 ulp of max(|u|, |v|): the sort matching is repaired in
    blocks, and its exact cost total equals the full solve's. (The cost
    totals are what both solves minimize; two permutations of equal cost
    total can differ in exact score total by the costs' rounding.)"""
    rng = np.random.default_rng(seed)
    monge = with_offsets(np.outer(rng.standard_normal(n), rng.standard_normal(n)), rng)
    u, v, r, c = rounding._sort_duals(monge, monge.sum(axis=0) / n)
    cost, _ = oracles.full_solve_on_duals(monge, u, v)
    ulp = np.spacing(max(np.abs(u).max(), np.abs(v).max()))
    scores = monge.copy()
    for _ in range(violations):
        # Off the staircase (k, k), (k, k - 1), which the duals are read from.
        k = int(rng.integers(0, n))
        l = int(rng.choice([j for j in range(max(0, k - 4), min(n, k + 5))
                            if j not in (k, k - 1)]))
        i, j = r[k], c[l]
        scores[i, j] = monge[i, j] + cost[i, j] + ulp
    u2, v2, r2, c2 = rounding._sort_duals(scores, scores.sum(axis=0) / n)
    assume(np.array_equal(r, r2) and np.array_equal(c, c2))
    assert u2.tobytes() == u.tobytes() and v2.tobytes() == v.tobytes()
    cost, full = oracles.full_solve_on_duals(scores, u, v)
    assume(cost.min() < 0)
    with pytest.MonkeyPatch.context() as patch:
        calls = spy_costs(patch)
        mapping = max_weight_matching(scores).map
    assert solve_path(calls, n) == "repaired"
    assert (oracles.assignment_score_exact(cost, mapping)
            == oracles.assignment_score_exact(cost, full))


# Rounds two seeded n = 80 score matrices on sort-matching duals into a
# buffer, checks the buffer against numpy's formulas and prints its route,
# its hash and the mapping, with the OpenBLAS core it ran on.
WRITTEN_ARRAYS_SCRIPT = """
import hashlib, json
import numpy as np
from netalign import rounding
from blas_core import openblas_core
rng = np.random.default_rng(63)
n = 80
x, y = rng.standard_normal(n), rng.standard_normal(n)
report = {"core": openblas_core()}
for name, noise in (("monge", 0.0), ("noisy", 0.3)):
    s = (np.outer(x, y) + noise * rng.standard_normal((n, n))
         + 100.0 * rng.standard_normal((n, 1)) + 100.0 * rng.standard_normal(n))
    u, v, _, _ = rounding._sort_duals(s, s.sum(axis=0) / n)
    cost = np.subtract(v, s)
    cost += u[:, None]
    formulas = {"s - v": np.subtract(s, v).tobytes(), "(v - s) + u": cost.tobytes()}
    out = np.empty_like(s)
    mapping = rounding._max_weight_matching(s, out=out).map
    [route] = [key for key, value in formulas.items() if value == out.tobytes()]
    report[name] = [route, hashlib.sha256(out.tobytes()).hexdigest(), mapping.tolist()]
print(json.dumps(report))
"""


def test_written_arrays_independent_of_the_blas_core():
    """The scores less v and the full solve's costs come from numpy's
    elementwise subtractions, which round each entry once on any kernel: on
    OpenBLAS's Prescott core they are the default core's bytes, and equal
    numpy's s - v and (v - s) + u."""
    tests = Path(__file__).resolve().parent
    paths = [str(tests.parent / "src"), str(tests)]
    reports = []
    for core in (None, "Prescott"):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(paths)
        if core:
            env["OPENBLAS_CORETYPE"] = core
        result = subprocess.run([sys.executable, "-c", WRITTEN_ARRAYS_SCRIPT],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        reports.append(json.loads(result.stdout))
    default, prescott = reports
    assert default["monge"][0] == "s - v" and default["noisy"][0] == "(v - s) + u"
    cores = default.pop("core"), prescott.pop("core")
    assert default == prescott, f"cores {cores}"


# EigenAlign scores of denser pairs, whose sorted scores are far from Monge
# (most negative costs of 1e6-1e11 ulps).
DENSE_INSTANCES = [(n, p, 0.05, 1) for n in (60, 100, 200) for p in (0.05, 0.2)]
DENSE_INSTANCES.append((400, 0.2, 0.05, 1))


@pytest.mark.parametrize("n, p, lam, seed", DENSE_INSTANCES)
def test_dense_scores_take_the_full_solve_bit_for_bit(n, p, lam, seed, monkeypatch):
    """Dense inputs fail the certificate and are solved whole: the costs
    handed to the solver and the permutation are the full solve's, byte for
    byte."""
    scores = eigen_scores(n, p, lam, seed)
    u, v, _, _ = rounding._sort_duals(scores, scores.sum(axis=0) / n)
    expected_cost, expected = oracles.full_solve_on_duals(scores, u, v)
    calls = spy_costs(monkeypatch)
    mapping = max_weight_matching(scores).map
    [(cost, maximize)] = calls
    assert not maximize
    assert cost.tobytes() == expected_cost.tobytes()
    assert mapping.tobytes() == expected.tobytes()


@pytest.mark.parametrize("share, accepted", [(0.3, False), (0.9, True)])
def test_guard_reads_the_centred_share(share, accepted):
    """The guard compares the leading singular pair's share of the
    double-centred scores' squared Frobenius norm with 1/2, whatever the row
    and column offsets."""
    rng = np.random.default_rng(62)
    n = 80
    centre = np.eye(n) - 1.0 / n
    x, _ = np.linalg.qr(centre @ rng.standard_normal((n, 4)))
    y, _ = np.linalg.qr(centre @ rng.standard_normal((n, 4)))
    sigma2 = np.array([share, *[(1 - share) / 3] * 3])
    scores = with_offsets(x @ np.diag(np.sqrt(sigma2)) @ y.T, rng)
    assert (rounding._sort_duals(scores, scores.sum(axis=0) / n) is not None) is accepted


@pytest.fixture
def sort_duals_at_every_matrix(monkeypatch):
    """Solve every exact assignment from n = 1 on sort-matching duals, with
    the guard off."""
    monkeypatch.setattr(rounding, "REDUCE_MIN_N", 1)
    monkeypatch.setattr(rounding, "SORT_DUALS_MIN_N", 1)
    monkeypatch.setattr(rounding, "SORT_DUALS_MIN_SHARE", 0.0)


@pytest.mark.usefixtures("sort_duals_at_every_matrix")
class TestMaxWeightMatchingSortDuals(TestMaxWeightMatching):
    """TestMaxWeightMatching, and exact totals on integral scores at
    n = 51-80, with every assignment solved on sort-matching duals."""

    @given(st.integers(min_value=51, max_value=80), st.integers(min_value=0, max_value=2**31),
           st.sampled_from(["integral", "tied", "rank-one-ties", "constant"]))
    @settings(max_examples=40, deadline=None)
    def test_exact_total_equals_raw_solve(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "integral":
            scores = np.round(10 * rng.standard_normal((n, n)))
        elif kind == "tied":
            scores = rng.integers(0, 3, (n, n)).astype(float)
        elif kind == "rank-one-ties":
            # few distinct factors, so whole rows and columns tie, and small
            # integral noise that makes the scores only nearly Monge
            x, y = rng.integers(1, 4, n), rng.integers(1, 4, n)
            scores = (np.outer(x, y) * 100 + rng.integers(0, 2, (n, n))).astype(float)
        else:
            scores = np.full((n, n), 7.0)
        mapping = max_weight_matching(scores).map
        assert sorted(mapping.tolist()) == list(range(n))
        _, raw = linear_sum_assignment(scores, maximize=True)
        assert (oracles.assignment_score_exact(scores, mapping)
                == oracles.assignment_score_exact(scores, raw))
