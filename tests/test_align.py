import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

import netalign.align as align
import netalign.rounding as rounding
from netalign.align import (AlignConfig, build_operator, eigen_align,
                            projected_power_align)
from netalign.estimators import EigenAlign, ProjectedPowerAlignment
from netalign.graphs import (Graph, RngSeed, generate_er, matched_edges,
                             permute, random_permutation)
from netalign.harness import make_instance
from netalign.operator import (DegenerateBalanceError, dense_alignment_matrix,
                               quadratic_form)
from netalign.rounding import greedy_round, max_weight_matching
from netalign.spectral import DENSE_MAX_N, top_eigenvector

import oracles
from blas_core import openblas_core

P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def empty_graph(n):
    return Graph(np.zeros((n, n), dtype=bool))


def brute_force_best_matched(g1, g2):
    import itertools
    best = -1
    for pi in itertools.permutations(range(g1.n)):
        from netalign.graphs import Permutation
        best = max(best, matched_edges(g1, g2, Permutation(list(pi))))
    return best


class TestPipelinesOnPath:
    def test_eigen_align_p4_perfect(self):
        result = eigen_align(P4, P4)
        assert result.matched_edges == 3
        assert result.matched_edges == brute_force_best_matched(P4, P4)
        assert result.converged

    def test_ppa_p4_perfect_fixed_point(self):
        result = projected_power_align(P4, P4)
        assert result.matched_edges == 3
        assert result.converged

    def test_empty_pair_degenerate(self):
        with pytest.raises(DegenerateBalanceError):
            eigen_align(empty_graph(3), empty_graph(3))
        with pytest.raises(DegenerateBalanceError):
            projected_power_align(empty_graph(3), empty_graph(3))


class TestEigenAlignBuildsNoCsrAtSmallN:
    """Up to n = 50 EigenAlign runs the dense `apply` loop and counts matched
    edges from g1's upper-triangle pairs, so neither graph builds its CSR
    arrays or a CSR matrix."""

    @pytest.mark.parametrize("n", [10, 30, 50])
    def test_no_csr_built(self, n, monkeypatch):
        g1, g2, _ = make_instance(n, 0.2, 0.1, 0, 11)

        def refuse(self):
            raise AssertionError("a CSR matrix was built")
        monkeypatch.setattr(Graph, "csr", refuse)
        result = eigen_align(g1, g2)
        assert g1._csr is None and g2._csr is None
        assert result.matched_edges == oracles.count_matched_edges_loop(
            np.array(g1.adjacency), np.array(g2.adjacency), result.permutation.map)


class TestNoiselessRecovery:
    @pytest.mark.parametrize("runner", [eigen_align, projected_power_align])
    def test_matches_every_edge_of_planted_copy(self, runner):
        for seed in range(20):
            g1 = generate_er(20, 0.2, RngSeed(seed, 500))
            planted = random_permutation(20, RngSeed(seed, 501))
            g2 = permute(g1, planted)
            result = runner(g1, g2)
            assert result.matched_edges == g1.edge_count


class TestDeterminismAndSoundness:
    def test_bitwise_repeatability(self):
        g1 = generate_er(15, 0.3, RngSeed(600, 1))
        g2 = generate_er(15, 0.3, RngSeed(600, 2))
        for runner in (eigen_align, projected_power_align):
            a = runner(g1, g2)
            b = runner(g1, g2)
            assert a.permutation == b.permutation
            assert a.objective == b.objective
            assert a.iterations == b.iterations

    def test_ppa_fixed_point_reproduces_itself(self):
        g1 = generate_er(12, 0.3, RngSeed(601, 1))
        noisy_planted = permute(g1, random_permutation(12, RngSeed(601, 2)))
        result = projected_power_align(g1, noisy_planted,
                                       AlignConfig(return_best=False))
        if not result.converged:
            pytest.skip("no fixed point within the cap for this draw")
        op = build_operator(g1, noisy_planted)
        y = oracles.permutation_vector(op.n, result.permutation.map)
        replayed = greedy_round(op.apply(y).reshape(op.n, op.n))
        assert replayed == result.permutation

    def test_objective_matches_result_permutation(self):
        g1 = generate_er(10, 0.4, RngSeed(602, 1))
        g2 = generate_er(10, 0.4, RngSeed(602, 2))
        op = build_operator(g1, g2)
        for runner in (eigen_align, projected_power_align):
            result = runner(g1, g2)
            expected = quadratic_form(op, result.permutation)
            assert result.objective == pytest.approx(expected, rel=1e-9)


class TestObjectiveAgainstDenseOracle:
    @pytest.mark.parametrize("n,seed", [(4, 610), (5, 611), (6, 612), (6, 613)])
    def test_reported_objective_and_brute_force_bound(self, n, seed):
        g1 = generate_er(n, 0.5, RngSeed(seed, 1))
        g2 = generate_er(n, 0.5, RngSeed(seed, 2))
        try:
            op = build_operator(g1, g2)
        except DegenerateBalanceError:
            pytest.skip("degenerate draw")
        dense = dense_alignment_matrix(g1, g2, op.params)
        best = oracles.best_quadratic_objective(dense, n)
        for runner in (eigen_align, projected_power_align):
            result = runner(g1, g2)
            expected = oracles.quadratic_objective(dense, n, result.permutation.map)
            assert result.objective == pytest.approx(expected, rel=1e-9)
            assert result.objective <= best + 1e-9 * abs(best)

    def test_ppa_reports_at_least_start_rounding(self):
        for seed in (620, 621, 622):
            g1 = generate_er(9, 0.4, RngSeed(seed, 1))
            g2 = generate_er(9, 0.4, RngSeed(seed, 2))
            op = build_operator(g1, g2)
            v0 = top_eigenvector(op).vector
            pi0 = greedy_round(v0.reshape(op.n, op.n))
            start_objective = quadratic_form(op, pi0)
            result = projected_power_align(g1, g2)
            assert result.objective >= start_objective - 1e-12


class TestConfigAndTrajectory:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlignConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            AlignConfig(ppa_max_iters=0)
        with pytest.raises(ValueError):
            AlignConfig(eigen_max_iters=0)

    @pytest.mark.parametrize("name", ["epsilon", "eigen_tol"])
    @pytest.mark.parametrize("value", [0.0, -1e-3, float("nan"), float("inf"), float("-inf")])
    def test_tolerances_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            AlignConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("return_best", "false"), ("return_best", 0), ("return_best", None),
        ("ppa_max_iters", True), ("ppa_max_iters", np.True_), ("ppa_max_iters", 2.5),
        ("eigen_max_iters", 2.0), ("eigen_max_iters", "10"),
        ("epsilon", "0.1"), ("epsilon", True), ("eigen_tol", 1e-8 + 0j),
    ])
    def test_config_rejects_wrong_types(self, name, value):
        with pytest.raises(ValueError, match=name):
            AlignConfig(**{name: value})

    def test_config_accepts_numpy_scalars(self):
        cfg = AlignConfig(epsilon=np.float64(0.01), eigen_tol=np.float32(1e-6),
                          eigen_max_iters=np.int64(50), ppa_max_iters=np.int32(7),
                          return_best=np.False_)
        assert cfg == AlignConfig(epsilon=0.01, eigen_tol=float(np.float32(1e-6)),
                                  eigen_max_iters=50, ppa_max_iters=7, return_best=False)

    def test_ppa_trajectory_logged(self):
        g1 = generate_er(10, 0.3, RngSeed(630, 1))
        g2 = generate_er(10, 0.3, RngSeed(630, 2))
        result = projected_power_align(g1, g2)
        assert result.trajectory is not None
        assert len(result.trajectory) == result.iterations + 1  # start rounding + iterates
        for objective, changed in result.trajectory:
            assert np.isfinite(objective)
            assert 0 <= changed <= 10

    def test_ppa_trajectory_length_on_converged_run(self):
        result = projected_power_align(P4, P4)
        assert result.converged
        assert len(result.trajectory) == result.iterations + 1
        assert result.trajectory[-1][1] == 0  # confirming step changes nothing

    def test_ppa_trajectory_is_read_only_record_array(self):
        g1 = generate_er(12, 0.3, RngSeed(633, 1))
        g2 = generate_er(12, 0.3, RngSeed(633, 2))
        result = projected_power_align(g1, g2)
        log = result.trajectory
        assert log.dtype.names == ("objective", "changed")
        assert not log.flags.writeable
        assert result.objective == log["objective"].max()  # best iterate reported

    def test_iteration_cap_respected(self):
        g1 = generate_er(14, 0.3, RngSeed(631, 1))
        g2 = generate_er(14, 0.3, RngSeed(631, 2))
        result = projected_power_align(g1, g2, AlignConfig(ppa_max_iters=3))
        assert result.iterations <= 3

    def test_eigen_iterations_reported(self):
        g1 = generate_er(10, 0.3, RngSeed(632, 1))
        g2 = generate_er(10, 0.3, RngSeed(632, 2))
        result = eigen_align(g1, g2)
        assert result.iterations >= 1
        assert result.converged


# Planted instances (p=0.2) pinned for how the projected step of PPA first
# revisits an iterate under the default config: (n, lambda, trial, base_seed),
# the step whose iterate repeats an earlier one, and the period (1 for a fixed
# point); None for a run that repeats nothing within 60 steps. Iterate 1 is
# the greedy rounding of the start vector, so in "period_2_seen_at_step_3" the
# run returns to that start rounding.
PPA_STOP_PATTERNS = {
    "fixed_point": ((8, 0.0, 0, 0), 2, 1),
    "period_2": ((8, 0.05, 0, 0), 6, 2),
    "period_2_seen_at_step_3": ((8, 0.0, 1, 7), 3, 2),
    "period_4": ((8, 0.2, 5, 0), 6, 4),
    "period_2_seen_at_step_30": ((30, 0.1, 0, 7), 30, 2),
    "no_repeat": ((40, 0.1, 0, 7), None, None),
}


@functools.lru_cache(maxsize=None)
def pinned_instance(name):
    n, lam, trial, seed = PPA_STOP_PATTERNS[name][0]
    g1, g2, _ = make_instance(n, 0.2, lam, trial, seed)
    return g1, g2


def capped_loop_reference(g1, g2, cfg):
    op = build_operator(g1, g2, cfg.epsilon)
    v0 = top_eigenvector(op, tol=cfg.eigen_tol, max_iters=cfg.eigen_max_iters).vector
    return oracles.ppa_capped_loop(op, v0, greedy_round, cfg.ppa_max_iters,
                                   cfg.return_best)


class TestCycleReplay:
    """PPA stops at a repeated iterate; its result must equal the loop that
    evaluates every step up to the cap, bit for bit."""

    @pytest.mark.parametrize("name", sorted(PPA_STOP_PATTERNS))
    def test_pinned_instance_stops_as_labelled(self, name):
        _, step, period = PPA_STOP_PATTERNS[name]
        *_, iterations, converged, _, iterates = capped_loop_reference(
            *pinned_instance(name), AlignConfig(ppa_max_iters=60))
        if period == 1:
            assert converged and iterations == step
            return
        first_seen = {}
        repeat = (None, None)
        for t, mapping in enumerate(iterates, start=1):
            key = mapping.tobytes()
            if key in first_seen:
                repeat = (t, t - first_seen[key])
                break
            first_seen[key] = t
        assert not converged and repeat == (step, period)

    @pytest.mark.parametrize("return_best", [True, False])
    @pytest.mark.parametrize("cap", [1, 2, 3, 30, 60])
    @pytest.mark.parametrize("name", sorted(PPA_STOP_PATTERNS))
    def test_matches_capped_loop(self, name, cap, return_best):
        g1, g2 = pinned_instance(name)
        cfg = AlignConfig(ppa_max_iters=cap, return_best=return_best)
        perm, objective, iterations, converged, trajectory, _ = \
            capped_loop_reference(g1, g2, cfg)
        result = projected_power_align(g1, g2, cfg)
        assert result.permutation == perm
        assert np.float64(result.objective).tobytes() == np.float64(objective).tobytes()
        assert result.matched_edges == matched_edges(g1, g2, perm)
        assert result.iterations == iterations
        assert result.converged == converged
        log = result.trajectory
        assert log.dtype == np.dtype([("objective", np.float64), ("changed", np.int64)])
        assert not log.flags.writeable
        assert log.tobytes() == np.array(trajectory, dtype=log.dtype).tobytes()


@given(st.integers(min_value=2, max_value=12), st.floats(min_value=0.1, max_value=0.6),
       st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=60),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_objective_is_the_closed_form_of_matched_edges(n, p, seed, cap, return_best):
    """Both matchers report y^T A y of their permutation in closed form, PPA
    logs each iterate's closed form, and with `return_best` reports the first
    iterate with the most matched edges (iterates from the capped loop)."""
    g1, g2 = generate_er(n, p, RngSeed(seed, 1)), generate_er(n, p, RngSeed(seed, 2))
    assume(g1.edge_count + g2.edge_count > 0)
    cfg = AlignConfig(ppa_max_iters=cap, return_best=return_best)
    op = build_operator(g1, g2)
    adj1, adj2 = g1.adjacency, g2.adjacency

    def closed_form(mapping):
        matched = oracles.count_matched_edges_loop(adj1, adj2, mapping)
        return np.float64(op.matched_objective(matched)).tobytes()

    for runner in (eigen_align, projected_power_align):
        result = runner(g1, g2, cfg)
        assert result.matched_edges == oracles.count_matched_edges_loop(
            adj1, adj2, result.permutation.map)
        assert np.float64(result.objective).tobytes() == closed_form(result.permutation.map)
    *_, converged, _, iterates = capped_loop_reference(g1, g2, cfg)
    # Entry 0 is the start rounding, the first iterate; a fixed point logs
    # its confirming step.
    logged = [iterates[0], *iterates, *iterates[-1:] * converged]
    assert [closed_form(mapping) for mapping in logged] == [
        np.float64(value).tobytes() for value in result.trajectory["objective"]]
    counts = [oracles.count_matched_edges_loop(adj1, adj2, mapping) for mapping in iterates]
    expected = iterates[counts.index(max(counts))] if return_best else iterates[-1]
    assert np.array_equal(result.permutation.map, expected)


def fresh_pair(n=20, lam=0.1, trial=0, seed=5, p=0.2):
    """Graph objects no other test holds: copies of a planted instance."""
    g1, g2, _ = make_instance(n, p, lam, trial, seed)
    return Graph(g1.adjacency), Graph(g2.adjacency)


@pytest.fixture
def eigen_calls(monkeypatch):
    """Count the power iterations the pipelines run, from an empty start cache."""
    align._kept_start.cache_clear()
    calls = []

    def counting(op, **kwargs):
        calls.append(op)
        return top_eigenvector(op, **kwargs)

    monkeypatch.setattr(align, "top_eigenvector", counting)
    return calls


def assert_same_result(a, b):
    assert a == b
    assert np.float64(a.objective).tobytes() == np.float64(b.objective).tobytes()
    if a.trajectory is None:
        assert b.trajectory is None
    else:
        assert a.trajectory.dtype == b.trajectory.dtype
        assert a.trajectory.tobytes() == b.trajectory.tobytes()


class TestSharedSpectralStart:
    """EigenAlign and PPA on equal graphs run power iteration once."""

    @pytest.mark.parametrize("first, second", [(eigen_align, projected_power_align),
                                               (projected_power_align, eigen_align)])
    def test_once_for_both_matchers(self, eigen_calls, first, second):
        g1, g2 = fresh_pair()
        first(g1, g2)
        second(g1, g2, AlignConfig(ppa_max_iters=5, return_best=False))
        assert len(eigen_calls) == 1

    def test_once_on_equal_but_distinct_graphs(self, eigen_calls):
        g1, g2 = fresh_pair()
        eigen_align(g1, g2)
        projected_power_align(Graph(g1.adjacency), g2)
        projected_power_align(g1, Graph(g2.adjacency))
        assert len(eigen_calls) == 1

    @pytest.mark.parametrize("changed", [{"epsilon": 0.01}, {"eigen_tol": 1e-9},
                                         {"eigen_max_iters": 3}])
    def test_twice_when_an_eigen_setting_differs(self, eigen_calls, changed):
        g1, g2 = fresh_pair()
        eigen_align(g1, g2)
        projected_power_align(g1, g2, AlignConfig(**changed))
        assert len(eigen_calls) == 2

    @pytest.mark.parametrize("lam, cap", [(0.0, 30), (0.1, 30), (0.3, 7)])
    def test_ppa_after_a_hit_equals_a_fresh_run(self, eigen_calls, lam, cap):
        cfg = AlignConfig(ppa_max_iters=cap)
        g1, g2 = fresh_pair(n=16, lam=lam)
        eigen_align(g1, g2, cfg)
        hit = projected_power_align(g1, g2, cfg)
        assert len(eigen_calls) == 1
        align._kept_start.cache_clear()
        fresh = projected_power_align(g1, g2, cfg)
        assert len(eigen_calls) == 2
        assert_same_result(hit, fresh)

    @pytest.mark.parametrize("first, second", [(eigen_align, projected_power_align),
                                               (projected_power_align, eigen_align)])
    def test_not_kept_above_the_dense_bound(self, eigen_calls, first, second):
        # Above the bound eigen_align rounds over its own eigenvector,
        # so in neither order may one matcher take the other's.
        g1, g2 = fresh_pair(n=60, lam=0.05)
        assert g1.n > DENSE_MAX_N
        results = [run(g1, g2) for run in (first, second)]
        assert len(eigen_calls) == 2
        for run, result in zip((first, second), results):
            assert_same_result(result, run(Graph(g1.adjacency), Graph(g2.adjacency)))


class TestEigenAlignRoundsInPlace:
    """Above `DENSE_MAX_N` eigen_align's assignment writes over its own
    eigenvector, whose sort duals it reads off the Krylov factors, or
    off passes over the vector where the factors' keys nearly tie (bit-equal
    score rows or columns, many at n = 200, p = 0.02, and the n = 51-57
    cases): the answer of rounding the read-only vector by passes over it,
    bit for bit, with one n² float array held at a time."""

    @pytest.mark.parametrize("n, p, lam, seed",
                             [(600, 0.0125, 0.001, seed) for seed in (*range(40), 4242)]
                             + [(200, 0.02, 0.001, seed) for seed in range(20)]
                             + [(51, 0.1, 0.05, 1), (60, 0.1, 0.05, 1), (200, 0.05, 0.02, 1)]
                             + [(51, 0.05, 0.0, 1), (51, 0.05, 0.01, 3), (53, 0.05, 0.0, 1),
                                (55, 0.05, 0.05, 3), (57, 0.05, 0.0, 3)])
    def test_same_bytes_as_rounding_the_read_only_vector(self, n, p, lam, seed):
        g1, g2, _ = make_instance(n, p, lam, 0, seed)
        op = build_operator(g1, g2)
        eig = top_eigenvector(op)
        assert not eig.vector.flags.writeable
        vector = eig.vector.tobytes()
        perm = max_weight_matching(eig.vector.reshape(n, n))
        matched = matched_edges(g1, g2, perm)
        result = eigen_align(g1, g2)
        # Where score lines are bit-equal, the pick among tied permutations
        # follows the rounding of matrix products: a failure names the core.
        assert result.permutation == perm, f"run on OpenBLAS core {openblas_core()}"
        assert result.matched_edges == matched
        assert (np.float64(result.objective).tobytes()
                == np.float64(op.matched_objective(matched)).tobytes())
        assert eig.vector.tobytes() == vector

    @pytest.mark.parametrize("n, p, seed, path", [(200, 0.05, 5, "full"),
                                                  (600, 0.0125, 5, "repaired"),
                                                  (600, 0.0125, 1, "certified")])
    def test_peak_memory_one_float_array(self, n, p, seed, path, monkeypatch):
        # On every route the scores less v, and on the full solve the costs,
        # are written over the eigenvector.
        g1, g2 = fresh_pair(n=n, lam=0.001, seed=seed, p=p)
        for g in (g1, g2):
            g._csr_arrays()
        solved = []

        def spy(cost, maximize=False):
            solved.append(cost.shape[0])
            return linear_sum_assignment(cost, maximize=maximize)

        monkeypatch.setattr(rounding, "linear_sum_assignment", spy)
        tracemalloc.start()
        try:
            eigen_align(g1, g2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path == ("certified" if not solved else "full" if solved == [n] else "repaired")
        # The eigenvector is 8 n² bytes; a separate cost matrix would double it.
        assert peak < 1.5 * 8 * n * n


class TestPpaStartProduct:
    """PPA's first iterate is the greedy rounding of the eigenvector, so PPA
    takes no product with it."""

    @pytest.fixture
    def apply_calls(self, monkeypatch):
        # Products with the operator: `apply` and the power loop both take
        # theirs from `AlignmentOperator._product`. Counted from an empty
        # start cache.
        align._kept_start.cache_clear()
        calls = []
        original = align.AlignmentOperator._product

        def counting(op):
            product = original(op)

            def counted(v):
                calls.append(op)
                return product(v)
            return counted

        monkeypatch.setattr(align.AlignmentOperator, "_product", counting)
        return calls

    def test_no_apply_beyond_the_eigen_stage(self, apply_calls):
        g1, g2 = fresh_pair(n=16, lam=0.1)
        eig = top_eigenvector(build_operator(g1, g2))
        assert len(apply_calls) == eig.iterations + 1
        apply_calls.clear()
        projected_power_align(Graph(g1.adjacency), Graph(g2.adjacency))
        assert len(apply_calls) == eig.iterations + 1

    def test_no_apply_after_eigen_align(self, apply_calls):
        g1, g2 = fresh_pair(n=16, lam=0.1)
        eigen_align(g1, g2)
        apply_calls.clear()
        projected_power_align(g1, g2)
        assert apply_calls == []

    def test_no_apply_above_the_dense_bound(self, apply_calls):
        # Above DENSE_MAX_N the eigen stage runs no `apply` either.
        g1, g2 = fresh_pair(n=60, lam=0.05)
        eigen_align(g1, g2)
        hit = projected_power_align(g1, g2)
        assert apply_calls == []
        assert_same_result(hit, projected_power_align(Graph(g1.adjacency), Graph(g2.adjacency)))

    def test_start_rounding_is_projected_and_scored_once(self, monkeypatch):
        # A run that is a fixed point at step 2: the start rounding (iterate
        # 1) and its image, one product between them.
        calls = {"greedy_round": 0, "permutation_product": 0}
        product = align.AlignmentOperator.permutation_product

        def counting_round(scores):
            calls["greedy_round"] += 1
            return greedy_round(scores)

        def counting_product(op, perm):
            calls["permutation_product"] += 1
            return product(op, perm)

        g1, g2 = pinned_instance("fixed_point")
        monkeypatch.setattr(align, "greedy_round", counting_round)
        monkeypatch.setattr(align.AlignmentOperator, "permutation_product", counting_product)
        result = projected_power_align(g1, g2)
        assert (result.iterations, result.converged) == (2, True)
        assert calls == {"greedy_round": 2, "permutation_product": 1}


class TestEstimators:
    def test_fit_matches_functional_api(self):
        g1 = generate_er(12, 0.3, RngSeed(640, 1))
        g2 = generate_er(12, 0.3, RngSeed(640, 2))
        est = EigenAlign().fit(g1, g2)
        ref = eigen_align(g1, g2)
        assert np.array_equal(est.permutation_, ref.permutation.map)
        assert est.objective_ == ref.objective
        assert est.matched_edges_ == ref.matched_edges
        assert est.n_iter_ == ref.iterations
        assert est.converged_ == ref.converged

        est2 = ProjectedPowerAlignment(max_iters=10).fit(g1, g2)
        ref2 = projected_power_align(g1, g2, AlignConfig(ppa_max_iters=10))
        assert np.array_equal(est2.permutation_, ref2.permutation.map)

    def test_accepts_adjacency_arrays(self):
        g1 = generate_er(8, 0.4, RngSeed(641, 1))
        g2 = generate_er(8, 0.4, RngSeed(641, 2))
        from_arrays = EigenAlign().fit(np.array(g1.adjacency, dtype=int),
                                       g2.adjacency)
        from_graphs = EigenAlign().fit(g1, g2)
        assert np.array_equal(from_arrays.permutation_, from_graphs.permutation_)

    def test_rejects_bad_adjacency(self):
        with pytest.raises(ValueError):
            EigenAlign().fit(np.array([[0, 2], [2, 0]]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="same vertex count"):
            EigenAlign().fit(np.zeros((3, 3)), np.zeros((4, 4)))

    @pytest.mark.parametrize("cls", [EigenAlign, ProjectedPowerAlignment])
    @pytest.mark.parametrize("bad", [2, 0.5, -1, np.nan, "1"])
    def test_rejects_entries_graph_rejects(self, cls, bad):
        rows = [[0, bad], [bad, 0]]
        with pytest.raises(ValueError, match="boolean or 0/1"):
            cls().fit(rows, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="boolean or 0/1"):
            cls().fit(np.zeros((2, 2)), np.array(rows))

    def test_fit_predict_returns_array(self):
        g1 = generate_er(6, 0.5, RngSeed(642, 1))
        g2 = generate_er(6, 0.5, RngSeed(642, 2))
        mapping = ProjectedPowerAlignment().fit_predict(g1, g2)
        assert isinstance(mapping, np.ndarray)
        assert sorted(mapping.tolist()) == list(range(6))

    def test_get_set_params_round_trip(self):
        est = ProjectedPowerAlignment(max_iters=12, return_best=False)
        params = est.get_params()
        assert params["max_iters"] == 12 and params["return_best"] is False
        est.set_params(max_iters=40)
        assert est.get_params()["max_iters"] == 40
        with pytest.raises(ValueError, match="invalid parameter"):
            est.set_params(bogus=1)

    @pytest.mark.parametrize("cls, name, value", [
        (ProjectedPowerAlignment, "return_best", "false"),
        (ProjectedPowerAlignment, "max_iters", True),
        (EigenAlign, "eigen_max_iters", 2.5),
        (EigenAlign, "epsilon", "0.001"),
    ])
    def test_fit_rejects_wrong_types_set_by_set_params(self, cls, name, value):
        g1, g2, _ = make_instance(6, 0.5, 0.0, 0, 3)
        est = cls().set_params(**{name: value})
        with pytest.raises(ValueError, match="must be"):
            est.fit(g1, g2)

    @pytest.mark.parametrize("est", [EigenAlign(), EigenAlign(epsilon=0.01, eigen_tol=1e-6),
                                     ProjectedPowerAlignment(),
                                     ProjectedPowerAlignment(eigen_max_iters=50, max_iters=7,
                                                             return_best=False)])
    def test_params_rebuild_an_equal_estimator(self, est):
        rebuilt = type(est)(**est.get_params())
        assert rebuilt.get_params() == est.get_params()
        assert repr(rebuilt) == repr(est)

    def test_defaults_are_align_config_defaults(self):
        cfg = AlignConfig()
        eigen = {"epsilon": cfg.epsilon, "eigen_tol": cfg.eigen_tol,
                 "eigen_max_iters": cfg.eigen_max_iters}
        assert EigenAlign().get_params() == eigen
        assert ProjectedPowerAlignment().get_params() == {
            **eigen, "max_iters": cfg.ppa_max_iters, "return_best": cfg.return_best}

    def test_max_iters_and_return_best_reach_the_pipeline(self):
        # At this instance the 7-step cap binds and the last iterate is not the best.
        g1, g2, _ = make_instance(20, 0.2, 0.1, 0, 5)
        est = ProjectedPowerAlignment(max_iters=7, return_best=False).fit(g1, g2)
        ref = projected_power_align(g1, g2, AlignConfig(ppa_max_iters=7, return_best=False))
        best = projected_power_align(g1, g2, AlignConfig(ppa_max_iters=7))
        assert np.array_equal(est.permutation_, ref.permutation.map)
        assert (est.objective_, est.matched_edges_, est.n_iter_, est.converged_) == \
            (ref.objective, ref.matched_edges, 7, False)
        assert ref.permutation != best.permutation

    def test_sklearn_clone_compatible(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        est = EigenAlign(epsilon=0.01)
        cloned = sklearn_base.clone(est)
        assert cloned.get_params() == est.get_params()
