import itertools

import numpy as np
import pytest
from hypothesis import given, settings
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


@pytest.mark.parametrize("n, reduced", [(rounding.REDUCE_MIN_N - 1, False),
                                        (rounding.REDUCE_MIN_N, True)])
def test_reduction_chosen_from_n(monkeypatch, n, reduced):
    calls = []

    def spy(cost, maximize=False):
        calls.append((cost, maximize))
        return linear_sum_assignment(cost, maximize=maximize)

    monkeypatch.setattr(rounding, "linear_sum_assignment", spy)
    scores = np.random.default_rng(n).standard_normal((n, n))
    max_weight_matching(scores)
    [(cost, maximize)] = calls
    assert maximize is not reduced
    expected = scores.mean(axis=0) - scores if reduced else scores
    assert np.allclose(cost, expected, rtol=0, atol=1e-12)


# EigenAlign scores above REDUCE_MIN_N: planted instances at p = 0.2 over
# several noise levels and two seeds, and one sparse pair.
EIGEN_SCORE_INSTANCES = [(n, 0.2, lam, seed) for n in (30, 40, 50)
                         for lam in (0.0, 0.05, 0.1, 0.3) for seed in (3, 7)]
EIGEN_SCORE_INSTANCES.append((200, 0.02, 0.001, 7))


@pytest.mark.parametrize("n, p, lam, seed", EIGEN_SCORE_INSTANCES)
def test_reduced_path_loses_no_exact_total(n, p, lam, seed):
    """The reduced solve may break a tie differently from the raw one; the
    permutation it returns never has a smaller exact total."""
    assert n >= rounding.REDUCE_MIN_N
    g1, g2, _ = make_instance(n, p, lam, 0, seed)
    scores = top_eigenvector(build_operator(g1, g2)).vector.reshape(n, n)
    mapping = max_weight_matching(scores).map
    _, raw = linear_sum_assignment(scores, maximize=True)
    if not np.array_equal(mapping, raw):
        assert (oracles.assignment_score_exact(scores, mapping)
                >= oracles.assignment_score_exact(scores, raw))
