import dataclasses

import numpy as np
import pytest

from netalign.graphs import (Graph, RngSeed, apply_noise, generate_er, permute,
                             random_permutation)
from netalign.operator import (AlignmentOperator, DegenerateBalanceError,
                               compute_alpha, dense_alignment_matrix, make_params)
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


class TestIterationContract:
    def test_unit_norm_and_nonnegative(self):
        op, _ = random_operator(5, 101)
        res = top_eigenvector(op)
        assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-12)
        assert (res.vector >= 0).all()

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


class TestAgainstEarlierImplementation:
    """Norms taken as sqrt(x @ x) give np.linalg.norm's results bit for bit."""

    @pytest.mark.parametrize("n,p,lam,seed,tol,max_iters", [
        (10, 0.2, 0.05, 700, DEFAULT_TOL, DEFAULT_MAX_ITERS),
        (30, 0.2, 0.0, 701, DEFAULT_TOL, DEFAULT_MAX_ITERS),
        (25, 0.3, 0.2, 702, 1e-13, 50),
        (6, 0.5, 0.1, 703, 1e-15, 3),
        (600, 0.0125, 0.001, 704, DEFAULT_TOL, DEFAULT_MAX_ITERS),
    ])
    def test_identical_result(self, n, p, lam, seed, tol, max_iters):
        self.check(planted_operator(n, p, lam, seed), tol, max_iters)

    def test_identical_on_residual_exit(self):
        self.check(empty_pair_operator(4), DEFAULT_TOL, DEFAULT_MAX_ITERS)

    @staticmethod
    def check(op, tol, max_iters):
        res = top_eigenvector(op, tol=tol, max_iters=max_iters)
        vector, value, iterations, residual, converged = \
            oracles.power_iteration_linalg_norm(op.apply, op.n, tol, max_iters)
        assert res.vector.tobytes() == vector.tobytes()
        assert (res.value, res.iterations, res.residual, res.converged) == \
            (value, iterations, residual, converged)


class TestProduct:
    """`EigenResult.product` is `op.apply(vector)` byte for byte, read-only,
    and left out of `==`."""

    @pytest.mark.parametrize("case", ["residual-exit", "diff-exit", "cap-exit", "n600"])
    def test_equals_apply_of_vector(self, case):
        op, tol, max_iters = {
            "residual-exit": (empty_pair_operator(4), DEFAULT_TOL, DEFAULT_MAX_ITERS),
            "diff-exit": (planted_operator(10, 0.2, 0.05, 700), DEFAULT_TOL, DEFAULT_MAX_ITERS),
            "cap-exit": (planted_operator(6, 0.5, 0.1, 703), 1e-15, 3),
            "n600": (planted_operator(600, 0.0125, 0.001, 704), DEFAULT_TOL,
                     DEFAULT_MAX_ITERS),
        }[case]
        res = top_eigenvector(op, tol=tol, max_iters=max_iters)
        assert res.converged == (case != "cap-exit")
        assert res.product.tobytes() == op.apply(res.vector).tobytes()
        assert res.product.tobytes() == oracles.apply_public_matmul(op, res.vector).tobytes()
        assert not res.product.flags.writeable

    def test_recomputed_after_clamping(self):
        # One step from a start whose image has negative entries: the clamp
        # zeroes them, and the product is that of the clamped vector.
        op, _ = random_operator(5, 108)
        start = np.zeros(25)
        start[0], start[24] = 1.0, -1.0
        res = top_eigenvector(op, tol=1e-15, max_iters=1, start=start)
        assert (res.vector == 0).any()
        assert res.product.tobytes() == op.apply(res.vector).tobytes()
        assert not res.product.flags.writeable

    def test_left_out_of_equality(self):
        op, _ = random_operator(5, 109)
        res = top_eigenvector(op)
        assert res == dataclasses.replace(res, product=np.zeros(25))


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
