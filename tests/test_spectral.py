import dataclasses
import pickle

import numpy as np
import pytest

from netalign.graphs import (Graph, RngSeed, apply_noise, generate_er, permute,
                             random_permutation)
from netalign.operator import (AlignmentOperator, DegenerateBalanceError,
                               compute_alpha, dense_alignment_matrix, make_params)
from netalign import spectral
from netalign.spectral import DEFAULT_MAX_ITERS, DEFAULT_TOL, top_eigenvector

import oracles


def empty_pair_operator(n):
    g = Graph(np.zeros((n, n), dtype=bool))
    return AlignmentOperator(g, g, make_params(1.0))


def random_operator(n, seed, p=0.5):
    g1 = generate_er(n, p, RngSeed(seed, 1))
    g2 = generate_er(n, p, RngSeed(seed, 2))
    params = make_params(compute_alpha(g1, g2))
    return AlignmentOperator(g1, g2, params), params


class TestRankOneCase:
    def test_empty_pair_converges_immediately(self):
        op = empty_pair_operator(4)
        res = top_eigenvector(op)
        assert res.converged and res.iterations <= 2
        assert res.value == pytest.approx(op.params.s2 * 16, rel=1e-10)
        np.testing.assert_allclose(res.vector, np.full(16, 0.25), atol=1e-12)


class TestAgainstDenseSolver:
    def test_er4_pair_tight_tolerance(self):
        op, params = random_operator(4, 100)
        res = top_eigenvector(op, tol=1e-10, max_iters=20000)
        dense = dense_alignment_matrix(op.g1, op.g2, params)
        values, vectors = np.linalg.eigh(dense)
        top = vectors[:, -1]
        if top.sum() < 0:
            top = -top
        assert res.value == pytest.approx(values[-1], abs=1e-6 * max(1.0, values[-1]))
        assert np.abs(res.vector - top).max() <= 1e-6

    def test_fifty_random_instances(self):
        checked = 0
        k = 0
        while checked < 50:
            n = 2 + k % 4  # n in 2..5
            k += 1
            try:
                op, params = random_operator(n, 3000 + k)
            except DegenerateBalanceError:
                continue
            res = top_eigenvector(op, tol=1e-10, max_iters=50000)
            dense = dense_alignment_matrix(op.g1, op.g2, params)
            values, vectors = np.linalg.eigh(dense)
            top = vectors[:, -1]
            if top.sum() < 0:
                top = -top
            assert abs(res.value - values[-1]) <= 1e-6 * max(1.0, abs(values[-1]))
            assert np.abs(res.vector - top).max() <= 1e-6
            checked += 1


class TestClosedFormOracle:
    """`oracles.top_eigenpair_closed_form` (two n x n eigensolves and the
    secular equation) against a dense eigensolver of the loop-built matrix."""

    @pytest.mark.parametrize("n,p,seed", [(1, 0.5, 0), (2, 0.9, 1), (5, 0.3, 2), (8, 0.2, 3),
                                          (12, 0.2, 4), (12, 0.5, 5), (12, 0.9, 6)])
    def test_matches_dense_eigh(self, n, p, seed):
        g1 = generate_er(n, p, RngSeed(seed, 1))
        g2 = generate_er(n, p, RngSeed(seed, 2))
        params = make_params(compute_alpha(g1, g2) if g1.edge_count + g2.edge_count else 1.0)
        dense = dense_alignment_matrix(g1, g2, params)
        values, vectors = np.linalg.eigh(dense)
        top = vectors[:, -1] * np.sign(vectors[:, -1].sum())
        mu, V = oracles.top_eigenpair_closed_form(g1.adjacency, g2.adjacency,
                                                  params.s1, params.s2, params.s3)
        v = V.reshape(-1)
        assert abs(mu - values[-1]) <= 1e-14 * values[-1]
        assert np.linalg.norm(dense @ v - mu * v) <= 1e-14 * mu
        # Either vector is accurate to about eps / (relative spectral gap).
        gap = (values[-1] - values[-2]) / values[-1] if n > 1 else 1.0
        assert np.abs(v - top).max() <= 1e-14 / gap

    def test_planted_n30_against_power_iteration(self):
        op = planted_operator(30, 0.2, 0.1, 705)
        res = top_eigenvector(op, tol=1e-13, max_iters=5000)
        p = op.params
        mu, V = oracles.top_eigenpair_closed_form(op.g1.adjacency, op.g2.adjacency,
                                                  p.s1, p.s2, p.s3)
        assert res.value == pytest.approx(mu, rel=1e-13)
        assert np.abs(res.vector - V.reshape(-1)).max() <= 1e-11


class TestIterationContract:
    def test_unit_norm_and_nonnegative(self):
        op, _ = random_operator(5, 101)
        res = top_eigenvector(op)
        assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-12)
        assert (res.vector >= 0).all()

    def test_negatives_clamped_in_a_read_only_vector(self):
        # One step from a start whose image has negative entries: the clamp
        # zeroes them.
        op, _ = random_operator(5, 108)
        start = np.zeros(25)
        start[0], start[24] = 1.0, -1.0
        res = top_eigenvector(op, tol=1e-15, max_iters=1, start=start)
        assert (res.vector == 0).any() and (res.vector >= 0).all()
        assert not res.vector.flags.writeable

    def test_fixed_point_restart(self):
        op, _ = random_operator(5, 102)
        first = top_eigenvector(op, tol=1e-10, max_iters=20000)
        again = top_eigenvector(op, tol=1e-10, start=first.vector)
        assert again.converged and again.iterations == 1

    def test_scale_invariant_start(self):
        op, _ = random_operator(4, 103)
        base = top_eigenvector(op, start=np.full(16, 1.0 / 4))
        scaled = top_eigenvector(op, start=np.full(16, 250.0))
        assert np.array_equal(base.vector, scaled.vector)
        assert base.iterations == scaled.iterations

    def test_monotone_rayleigh_quotients(self):
        # Re-run the iteration by hand and watch v^T A v climb.
        op, _ = random_operator(5, 104)
        v = np.full(25, 1.0 / 5)
        previous = -np.inf
        for _ in range(60):
            w = op.apply(v)
            rayleigh = float(v @ w)
            assert rayleigh >= previous - 1e-10 * max(1.0, abs(rayleigh))
            previous = rayleigh
            v = w / np.linalg.norm(w)

    def test_iteration_cap_flagged(self):
        op, _ = random_operator(6, 105)
        res = top_eigenvector(op, tol=1e-15, max_iters=1)
        assert not res.converged
        assert res.iterations == 1

    def test_residual_reported_for_converged_run(self):
        op, _ = random_operator(5, 106)
        res = top_eigenvector(op, tol=1e-9, max_iters=20000)
        assert res.converged
        # Residual of the returned vector recomputed independently.
        w = op.apply(res.vector)
        recomputed = np.linalg.norm(w - res.value * res.vector)
        assert recomputed == pytest.approx(res.residual, rel=1e-6, abs=1e-12)

    def test_statistics_match_returned_vector_on_cap_exit(self):
        op, _ = random_operator(6, 107)
        res = top_eigenvector(op, tol=1e-15, max_iters=2)
        assert not res.converged
        w = op.apply(res.vector)
        assert float(res.vector @ w) == pytest.approx(res.value, rel=1e-12)
        recomputed = np.linalg.norm(w - res.value * res.vector)
        assert recomputed == pytest.approx(res.residual, rel=1e-6, abs=1e-12)


def planted_operator(n, p, lam, seed):
    g1 = generate_er(n, p, RngSeed(seed, 1))
    g2 = permute(apply_noise(g1, lam, RngSeed(seed, 2)), random_permutation(n, RngSeed(seed, 3)))
    return AlignmentOperator(g1, g2, make_params(compute_alpha(g1, g2)))


def apply_loop_start(op):
    """A start that keeps the `apply` loop at any n: None (the uniform start)
    up to `spectral.DENSE_MAX_N`, else ones, whose normalisation ones / n is the
    uniform start bit for bit (its norm, sqrt(n²), is exact). From the
    uniform start above the bound `TestKrylovLoop` checks the Krylov loop."""
    return None if op.n <= spectral.DENSE_MAX_N else np.ones(op.dim)


class TestAgainstEarlierImplementation:
    """Norms taken as sqrt(x @ x) give np.linalg.norm's results bit for bit
    wherever the `apply` loop runs."""

    @pytest.mark.parametrize("n,p,lam,seed,tol,max_iters", [
        (10, 0.2, 0.05, 700, DEFAULT_TOL, DEFAULT_MAX_ITERS),
        (30, 0.2, 0.0, 701, DEFAULT_TOL, DEFAULT_MAX_ITERS),
        (25, 0.3, 0.2, 702, 1e-13, 50),
        (6, 0.5, 0.1, 703, 1e-15, 3),
        (600, 0.0125, 0.001, 704, DEFAULT_TOL, DEFAULT_MAX_ITERS),
    ])
    def test_identical_result(self, n, p, lam, seed, tol, max_iters):
        op = planted_operator(n, p, lam, seed)
        self.check(op, tol, max_iters, start=apply_loop_start(op))

    def test_identical_on_residual_exit(self):
        self.check(empty_pair_operator(4), DEFAULT_TOL, DEFAULT_MAX_ITERS)

    @staticmethod
    def check(op, tol, max_iters, start=None):
        res = top_eigenvector(op, tol=tol, max_iters=max_iters, start=start)
        vector, value, iterations, residual, converged = \
            oracles.power_iteration_linalg_norm(op.apply, op.n, tol, max_iters)
        assert res.vector.tobytes() == vector.tobytes()
        assert (res.value, res.iterations, res.residual, res.converged) == \
            (value, iterations, residual, converged)


def pair_operator(g1, g2):
    return AlignmentOperator(g1, g2, make_params(compute_alpha(g1, g2)))


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


KRYLOV_CASES = {
    "planted-n600": lambda: planted_operator(600, 0.0125, 0.001, 704),
    "planted-n120": lambda: planted_operator(120, 0.2, 0.05, 705),
    "planted-n60-dense": lambda: planted_operator(60, 0.9, 0.05, 706),
    # A cycle's basis closes at one vector, the other graph's keeps growing.
    "cycle-and-er": lambda: pair_operator(cycle_graph(80), generate_er(80, 0.1, RngSeed(707))),
    # So does an empty graph's.
    "empty-and-er": lambda: pair_operator(Graph(np.zeros((70, 70), dtype=bool)),
                                          generate_er(70, 0.1, RngSeed(708))),
}


class TestKrylovLoop:
    """Above `DENSE_MAX_N`, from the uniform start, power iteration runs in
    Kronecker-Krylov coordinates: the iterates of the `apply` loop (oracle:
    `power_iteration_linalg_norm`), equal to rounding, with no `apply`."""

    @pytest.mark.parametrize("case,tol,max_iters", [
        *(pytest.param(case, DEFAULT_TOL, DEFAULT_MAX_ITERS, id=case) for case in KRYLOV_CASES),
        pytest.param("planted-n120", 1e-15, 2, id="cap-exit-n120"),
    ])
    def test_matches_apply_loop(self, case, tol, max_iters, monkeypatch):
        op = KRYLOV_CASES[case]()
        assert op.n > spectral.DENSE_MAX_N
        applied = []
        with monkeypatch.context() as patch:
            patch.setattr(AlignmentOperator, "_product", lambda op: applied.append(op))
            res = top_eigenvector(op, tol=tol, max_iters=max_iters)
        assert applied == []
        vector, value, iterations, residual, converged = \
            oracles.power_iteration_linalg_norm(op.apply, op.n, tol, max_iters)
        assert (res.iterations, res.converged) == (iterations, converged)
        assert converged == (max_iters > 2)
        assert abs(res.value - value) <= 1e-13 * value
        # The residual is a difference of terms of size `value`, so either
        # loop knows it only to a few eps * value.
        assert abs(res.residual - residual) <= 1e-13 * value
        assert np.linalg.norm(res.vector - vector) <= 1e-13  # both unit norm
        assert not res.vector.flags.writeable

    @pytest.mark.parametrize("fill", [False, True], ids=["empty", "complete"])
    def test_loop_chosen_from_n_alone(self, fill, monkeypatch):
        # From the uniform start: the `apply` loop up to the bound, the
        # Krylov loop above it, whatever the fill. Both `apply` and the
        # `apply` loop take their products from `_product`.
        applied = []
        original = AlignmentOperator._product

        def counting(op):
            product = original(op)
            return lambda v: applied.append(op.n) or product(v)

        monkeypatch.setattr(AlignmentOperator, "_product", counting)
        top = spectral.DENSE_MAX_N
        for n in (1, top, top + 1):
            adj = np.full((n, n), fill)
            np.fill_diagonal(adj, False)
            g = Graph(adj)
            top_eigenvector(AlignmentOperator(g, g, make_params(1.0)))
        assert set(applied) == {1, top}

    @pytest.mark.parametrize("graph", [cycle_graph(80), Graph(np.zeros((70, 70), dtype=bool)),
                                       Graph(~np.eye(60, dtype=bool))],
                             ids=["cycle", "empty", "complete"])
    def test_basis_closes_at_one_vector_on_regular_graphs(self, graph):
        basis = spectral._KrylovBasis(graph)
        for _ in range(3):
            basis.grow()
        assert basis.q.shape == (graph.n, 1)

    def test_basis_grows_orthonormal(self):
        g = generate_er(200, 0.05, RngSeed(709))
        basis = spectral._KrylovBasis(g)
        for _ in range(12):
            basis.grow()
        q = basis.q
        assert q.shape == (200, 13)
        np.testing.assert_allclose(q.T @ q, np.eye(13), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n,p,seed", [(1, 0.5, 0), (2, 0.9, 1), (5, 0.3, 2), (8, 0.2, 3),
                                          (12, 0.2, 4), (12, 0.5, 5), (12, 0.9, 6)])
    def test_direct_call_matches_closed_form(self, n, p, seed):
        # Called directly below the bound, where a basis can span all of R^n.
        g1 = generate_er(n, p, RngSeed(seed, 1))
        g2 = generate_er(n, p, RngSeed(seed, 2))
        params = make_params(compute_alpha(g1, g2) if g1.edge_count + g2.edge_count else 1.0)
        op = AlignmentOperator(g1, g2, params)
        res = spectral._krylov_top_eigenvector(op, 1e-13, 5000)
        mu, V = oracles.top_eigenpair_closed_form(g1.adjacency, g2.adjacency,
                                                  params.s1, params.s2, params.s3)
        assert res.converged
        assert res.value == pytest.approx(mu, rel=1e-13)
        assert np.abs(res.vector - V.reshape(-1)).max() <= 1e-11


class TestEquality:
    """Results compare by the values of their vectors, never by identity."""

    @pytest.mark.parametrize("n", [5, 60])
    def test_two_calls_on_one_operator(self, n):
        op = planted_operator(n, 0.2, 0.05, 710)
        first, second = top_eigenvector(op), top_eigenvector(op)
        assert first.vector is not second.vector
        assert first == second and not first != second

    def test_pickle_round_trip(self):
        res = top_eigenvector(planted_operator(60, 0.2, 0.05, 711))
        copy = pickle.loads(pickle.dumps(res))
        assert copy.vector is not res.vector
        assert copy == res

    def test_differs_in_vector_or_scalars(self):
        res = top_eigenvector(planted_operator(10, 0.2, 0.05, 712))
        vector = res.vector.copy()
        vector[0] += 1e-3
        assert res != dataclasses.replace(res, vector=vector)
        assert res != dataclasses.replace(res, iterations=res.iterations + 1)
        assert res != dataclasses.replace(res, converged=not res.converged)
        assert res != "not a result"


class TestValidation:
    def test_rejects_bad_tol(self):
        op = empty_pair_operator(3)
        with pytest.raises(ValueError):
            top_eigenvector(op, tol=0.0)

    def test_rejects_nan_tol(self):
        # NaN compares false with everything, so it would run to the cap.
        with pytest.raises(ValueError, match="tol"):
            top_eigenvector(empty_pair_operator(3), tol=float("nan"))

    def test_rejects_bad_cap(self):
        op = empty_pair_operator(3)
        with pytest.raises(ValueError):
            top_eigenvector(op, max_iters=0)

    def test_rejects_zero_start(self):
        op = empty_pair_operator(3)
        with pytest.raises(ValueError):
            top_eigenvector(op, start=np.zeros(9))

    def test_rejects_wrong_length_start(self):
        op = empty_pair_operator(3)
        with pytest.raises(ValueError):
            top_eigenvector(op, start=np.ones(8))
