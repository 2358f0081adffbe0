import itertools
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netalign.graphs import (Graph, Permutation, RngSeed, generate_er, matched_edges,
                             random_permutation)
from netalign import operator
from netalign.harness import make_instance
from netalign.operator import (AlignmentOperator, DegenerateBalanceError,
                               ScoringParams, compute_alpha,
                               dense_alignment_matrix,
                               make_params, permutation_objective,
                               permutation_vector, quadratic_form)

import oracles


def empty_graph(n):
    return Graph(np.zeros((n, n), dtype=bool))


def random_pair(n, seed, p=0.5):
    return (generate_er(n, p, RngSeed(seed, 1)),
            generate_er(n, p, RngSeed(seed, 2)))


def on_sparse_product(op):
    """The same operator built with the dense product's size bound at 0, so
    that `apply` takes the sparse product."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operator, "DENSE_MAX_N", 0)
        return AlignmentOperator(op.g1, op.g2, op.params)


def sparse_product(op, v):
    """The operator's sparse product of v, whichever product `apply` takes."""
    return op._sparse_product(np.asarray(v, dtype=np.float64).reshape(op.n, op.n)).reshape(-1)


class TestComputeAlpha:
    def test_single_edge_vs_empty(self):
        # e1=2 ordered pairs, e2=0: matches 0, mismatches 2*4=8, alpha exactly 1.
        g1 = Graph.from_edges(2, [(0, 1)])
        g2 = empty_graph(2)
        assert compute_alpha(g1, g2) == 1.0
        matches, mismatches, _ = oracles.classify_pair_pairs(
            np.array(g1.adjacency), np.array(g2.adjacency))
        assert (matches, mismatches) == (0, 8)

    def test_both_empty_degenerate(self):
        with pytest.raises(DegenerateBalanceError):
            compute_alpha(empty_graph(3), empty_graph(3))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compute_alpha(empty_graph(3), empty_graph(4))

    @pytest.mark.parametrize("n,seed", [(3, 0), (4, 1), (5, 2), (6, 3), (8, 4)])
    def test_against_quadruple_loop(self, n, seed):
        g1, g2 = random_pair(n, seed)
        matches, mismatches, _ = oracles.classify_pair_pairs(
            np.array(g1.adjacency), np.array(g2.adjacency))
        if mismatches == 0:
            pytest.skip("degenerate draw")
        assert compute_alpha(g1, g2) == pytest.approx(1.0 + matches / mismatches, rel=1e-12)

    def test_er10_pair_against_oracle(self):
        g1 = generate_er(10, 0.3, RngSeed(50, 1))
        g2 = generate_er(10, 0.3, RngSeed(50, 2))
        matches, mismatches, _ = oracles.classify_pair_pairs(
            np.array(g1.adjacency), np.array(g2.adjacency))
        assert compute_alpha(g1, g2) == pytest.approx(1.0 + matches / mismatches, rel=1e-12)


class TestMakeParams:
    def test_default_epsilon_values(self):
        params = make_params(1.0, 0.001)
        assert params.s1 == pytest.approx(1.001)
        assert params.s2 == pytest.approx(1.001)
        assert params.s3 == pytest.approx(0.001)

    def test_direct_substitution(self):
        params = make_params(2.0, 1.0)
        assert (params.s1, params.s2, params.s3) == (3.0, 2.0, 1.0)

    def test_rejects_zero_epsilon(self):
        with pytest.raises(ValueError):
            make_params(1.5, 0.0)

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ValueError):
            make_params(0.5)

    def test_scoring_params_invariants(self):
        with pytest.raises(ValueError):
            ScoringParams(s1=1.0, s2=1.0, s3=1.5, epsilon=1.5, alpha=1.0)
        with pytest.raises(ValueError):
            ScoringParams(s1=-1.0, s2=1.0, s3=0.5, epsilon=0.5, alpha=1.0)


class TestDenseOracle:
    def test_empty_pair_constant(self):
        params = make_params(1.0)
        dense = dense_alignment_matrix(empty_graph(3), empty_graph(3), params)
        assert np.all(dense == params.s2)

    def test_k2_pair_edge_match_entry(self):
        k2 = Graph.from_edges(2, [(0, 1)])
        params = make_params(2.0)
        dense = dense_alignment_matrix(k2, k2, params)
        # correspondence pair ((0,0),(1,1)): edge (0,1) present in both graphs
        assert dense[0 * 2 + 0, 1 * 2 + 1] == params.s1

    def test_symmetric_and_entry_values(self):
        g1, g2 = random_pair(3, 60)
        params = make_params(compute_alpha(g1, g2))
        dense = dense_alignment_matrix(g1, g2, params)
        assert np.array_equal(dense, dense.T)
        allowed = {params.s1, params.s2, params.s3}
        assert set(np.unique(dense)).issubset(allowed)

    def test_independent_loop_order_recheck(self):
        # Rebuild with the roles of (i,j') and (r,s') swapped; the definition
        # is symmetric in the pair of correspondences, so entries must agree.
        g1, g2 = random_pair(4, 61)
        params = make_params(compute_alpha(g1, g2))
        dense = dense_alignment_matrix(g1, g2, params)
        n = 4
        for r in range(n):
            for sq in range(n):
                for i in range(n):
                    for jp in range(n):
                        e1 = g1.has_edge(r, i)
                        e2 = g2.has_edge(sq, jp)
                        expected = params.s1 if (e1 and e2) else (
                            params.s2 if (not e1 and not e2) else params.s3)
                        assert dense[i * n + jp, r * n + sq] == expected

    def test_cap_enforced(self):
        g = empty_graph(13)
        with pytest.raises(ValueError, match="capped"):
            dense_alignment_matrix(g, g, make_params(1.0))


class TestApply:
    def test_zero_vector(self):
        g1, g2 = random_pair(4, 70)
        op = AlignmentOperator(g1, g2, make_params(compute_alpha(g1, g2)))
        assert np.array_equal(op.apply(np.zeros(16)), np.zeros(16))

    def test_empty_pair_rank_one(self):
        params = make_params(1.0)
        op = AlignmentOperator(empty_graph(3), empty_graph(3), params)
        v = np.arange(9.0)
        expected = params.s2 * v.sum() * np.ones(9)
        np.testing.assert_allclose(op.apply(v), expected, rtol=1e-13)

    def test_matches_dense_oracle_100_draws(self):
        rng = np.random.default_rng(71)
        for k in range(100):
            n = 2 + k % 5  # n in 2..6
            g1, g2 = random_pair(n, 1000 + k)
            try:
                params = make_params(compute_alpha(g1, g2))
            except DegenerateBalanceError:
                continue
            op = AlignmentOperator(g1, g2, params)
            dense = dense_alignment_matrix(g1, g2, params)
            v = rng.standard_normal(n * n)
            expected = dense @ v
            got = op.apply(v)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_linearity(self):
        g1, g2 = random_pair(5, 72)
        op = AlignmentOperator(g1, g2, make_params(compute_alpha(g1, g2)))
        rng = np.random.default_rng(73)
        u, v = rng.standard_normal((2, 25))
        lhs = op.apply(2.5 * u - 1.25 * v)
        rhs = 2.5 * op.apply(u) - 1.25 * op.apply(v)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-11)

    def test_operator_symmetry(self):
        rng = np.random.default_rng(74)
        for k in range(20):
            n = 2 + k % 5
            g1, g2 = random_pair(n, 2000 + k)
            try:
                op = AlignmentOperator(g1, g2, make_params(compute_alpha(g1, g2)))
            except DegenerateBalanceError:
                continue
            u, v = rng.standard_normal((2, n * n))
            left = float(op.apply(u) @ v)
            right = float(u @ op.apply(v))
            assert abs(left - right) <= 1e-10 * max(abs(left), abs(right), 1.0)

    def test_positivity(self):
        rng = np.random.default_rng(75)
        g1, g2 = random_pair(5, 76)
        op = AlignmentOperator(g1, g2, make_params(compute_alpha(g1, g2)))
        v = rng.random(25) + 0.01
        assert (op.apply(v) > 0).all()

    def test_length_mismatch(self):
        g1, g2 = random_pair(4, 77)
        op = AlignmentOperator(g1, g2, make_params(compute_alpha(g1, g2)))
        with pytest.raises(ValueError):
            op.apply(np.ones(15))
        # A scalar or a (1, 1) array is not a length-1 vector, on either product.
        g = empty_graph(1)
        dense = AlignmentOperator(g, g, make_params(1.0))
        for op in (dense, on_sparse_product(dense)):
            for bad in (2.0, np.float64(2.0), np.ones((1, 1))):
                with pytest.raises(ValueError):
                    op.apply(bad)

    def test_kron_decomposition_identity(self):
        # dense A == k_quad*(G1 (x) G2) + k_lin*(G1 (x) J + J (x) G2) + s2*(J (x) J)
        for n, seed in [(2, 80), (3, 81), (4, 82), (5, 83)]:
            g1, g2 = random_pair(n, seed)
            try:
                params = make_params(compute_alpha(g1, g2))
            except DegenerateBalanceError:
                continue
            dense = dense_alignment_matrix(g1, g2, params)
            a1 = g1.adjacency.astype(float)
            a2 = g2.adjacency.astype(float)
            J = np.ones((n, n))
            k_quad = params.s1 + params.s2 - 2 * params.s3
            k_lin = params.s3 - params.s2
            rebuilt = (k_quad * np.kron(a1, a2)
                       + k_lin * (np.kron(a1, J) + np.kron(J, a2))
                       + params.s2 * np.kron(J, J))
            np.testing.assert_allclose(dense, rebuilt, rtol=0, atol=1e-12)


def complete_graph(n):
    return Graph(~np.eye(n, dtype=bool))


@st.composite
def graph_pair_and_permutation(draw):
    """A non-degenerate pair on 2..12 vertices, with empty and complete
    graphs drawn often, plus a permutation."""
    n = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32))

    def graph(stream):
        kind = draw(st.sampled_from(("er", "er", "empty", "complete")))
        if kind == "empty":
            return empty_graph(n)
        if kind == "complete":
            return complete_graph(n)
        return generate_er(n, draw(st.sampled_from((0.1, 0.3, 0.6))), RngSeed(seed, stream))

    g1, g2 = graph(1), graph(2)
    if g1.edge_count == 0 and g2.edge_count == 0:
        g2 = complete_graph(n)
    return g1, g2, random_permutation(n, RngSeed(seed, 3))


class TestPermutationProduct:
    @given(graph_pair_and_permutation())
    @example((empty_graph(2), complete_graph(2), Permutation([1, 0])))
    @example((empty_graph(5), complete_graph(5), Permutation([3, 0, 4, 1, 2])))
    @example((complete_graph(4), empty_graph(4), Permutation([2, 0, 3, 1])))
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_apply(self, case):
        # The sparse product, which `apply` takes above the dense sizes.
        g1, g2, sigma = case
        op = AlignmentOperator(g1, g2, make_params(compute_alpha(g1, g2)))
        n = op.n
        expected = sparse_product(op, permutation_vector(n, sigma)).reshape(n, n)
        assert np.array_equal(op.permutation_product(sigma), expected)

    def test_size_mismatch(self):
        g1, g2 = random_pair(4, 94)
        op = AlignmentOperator(g1, g2, make_params(compute_alpha(g1, g2)))
        with pytest.raises(ValueError):
            op.permutation_product(Permutation.identity(5))


@st.composite
def operator_and_vector(draw):
    """An operator on 1..12 vertices (empty and complete graphs drawn often,
    scores from any alpha), a signed input vector, and whether to hand it
    over as a strided view."""
    n = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32))

    def graph(stream):
        kind = draw(st.sampled_from(("er", "er", "empty", "complete")))
        if kind == "empty":
            return empty_graph(n)
        if kind == "complete":
            return complete_graph(n)
        return generate_er(n, draw(st.sampled_from((0.1, 0.3, 0.6))), RngSeed(seed, stream))

    params = make_params(draw(st.floats(min_value=1.0, max_value=50.0)))
    op = AlignmentOperator(graph(1), graph(2), params)
    v = RngSeed(seed, 3).generator().standard_normal(n * n)
    return op, v, draw(st.booleans())


def strided(v):
    """A copy of v as a view with stride two, sharing no memory with v."""
    buf = np.full(2 * v.size, np.nan)
    buf[::2] = v
    return buf[::2]


def assert_same_bytes(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestCsrKernels:
    """The sparse product and `permutation_product` call scipy's CSR kernels
    directly; they equal the public-`@` versions (`oracles`) byte for byte.
    `apply` is pinned on operators that take the sparse product."""

    @given(operator_and_vector())
    @example((AlignmentOperator(empty_graph(1), empty_graph(1), make_params(1.0)),
              np.array([-2.5]), True))
    @example((AlignmentOperator(complete_graph(7), empty_graph(7), make_params(3.0)),
              RngSeed(1, 1).generator().standard_normal(49), True))
    @settings(max_examples=200, deadline=None)
    def test_apply_bitwise_equal_to_public_matmul(self, case):
        op, v, use_strided = case
        op = on_sparse_product(op)
        arg = strided(v) if use_strided else v
        assert_same_bytes(op.apply(arg), oracles.apply_public_matmul(op, v))

    @given(operator_and_vector())
    @settings(max_examples=100, deadline=None)
    def test_permutation_product_bitwise_equal_to_public_matmul(self, case):
        op, v, _ = case
        sigma = Permutation._trusted(np.argsort(v[:op.n], kind="stable"))
        assert_same_bytes(op.permutation_product(sigma),
                          oracles.permutation_product_public_matmul(op, sigma.map))

    def test_result_is_a_fresh_writeable_vector(self):
        g1, g2 = random_pair(6, 40)
        dense = AlignmentOperator(g1, g2, make_params(compute_alpha(g1, g2)))
        v = np.linspace(-1.0, 1.0, 36)
        for op in (dense, on_sparse_product(dense)):
            w = op.apply(v)
            assert w.shape == (36,) and w.flags.c_contiguous and w.flags.writeable
            assert not np.shares_memory(w, v)

    def test_kernels_receive_c_order_operands(self, monkeypatch):
        # scipy's private wrapper happens to copy a strided operand itself;
        # the helper does not rely on that and hands over C-order buffers.
        seen = []

        def spy(name):
            kernel = getattr(operator._sparsetools, name)

            def call(*args):
                seen.extend(a for a in args if isinstance(a, np.ndarray))
                return kernel(*args)
            return call

        monkeypatch.setattr(operator, "_sparsetools", types.SimpleNamespace(
            csr_matvec=spy("csr_matvec"), csr_matvecs=spy("csr_matvecs")))
        a = generate_er(9, 0.4, RngSeed(41)).csr()
        m = RngSeed(42).generator().standard_normal((9, 9))
        for x in (m[:, 0], m[0], m.T, m[:, ::-1]):
            assert_same_bytes(operator._csr_product(a, x), a @ x)
        assert len(seen) == 4 * 5 and all(arr.flags.c_contiguous for arr in seen)

    @pytest.mark.parametrize("trial", [0, 1])
    def test_sparse_planted_pair_n600(self, trial):
        g1, g2, _ = make_instance(600, 0.0125, 0.001, trial, 7)
        op = AlignmentOperator(g1, g2, make_params(compute_alpha(g1, g2)))
        assert not op._dense
        v = RngSeed(600, trial).generator().random(op.dim)
        assert_same_bytes(op.apply(v), oracles.apply_public_matmul(op, v))
        assert_same_bytes(op.apply(strided(v)), oracles.apply_public_matmul(op, v))
        sigma = random_permutation(600, RngSeed(601, trial))
        assert_same_bytes(op.permutation_product(sigma),
                          oracles.permutation_product_public_matmul(op, sigma.map))


class TestDenseProduct:
    """`apply`'s dense factored product (k M1) V M2 + d * sum(V) equals the
    sparse product up to rounding, and the dispatch picks it where it wins."""

    @given(operator_and_vector())
    @example((AlignmentOperator(empty_graph(1), empty_graph(1), make_params(1.0)),
              np.array([-2.5]), True))
    @example((AlignmentOperator(complete_graph(7), empty_graph(7), make_params(3.0)),
              RngSeed(1, 1).generator().standard_normal(49), True))
    @example((AlignmentOperator(complete_graph(12), complete_graph(12), make_params(50.0)),
              RngSeed(2, 1).generator().standard_normal(144), False))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_sparse_product(self, case):
        op, v, use_strided = case
        assert op._dense
        got = op.apply(strided(v) if use_strided else v)
        expected = sparse_product(op, v)
        # Relative to A|v| (A is entrywise positive), the scale of the
        # rounding error of either product; A v itself can cancel.
        scale = np.linalg.norm(sparse_product(op, np.abs(v)))
        assert np.linalg.norm(got - expected) <= 1e-14 * max(scale, 1e-300)
        assert_same_bytes(got, op.apply(v))  # memory layout does not matter

    def test_factors_rebuild_the_dense_oracle(self):
        g1, g2 = random_pair(5, 84)
        params = make_params(compute_alpha(g1, g2))
        op = AlignmentOperator(g1, g2, params)
        km1, m2, d = op._factors
        rebuilt = np.kron(km1, m2) + d
        dense = dense_alignment_matrix(g1, g2, params)
        np.testing.assert_allclose(rebuilt, dense, rtol=0, atol=1e-14 * dense.max())
        assert d > 0

    @pytest.mark.parametrize("n", [10, 20, 30, 40, 50])
    def test_sweep_sizes_take_dense(self, n):
        g1, g2, _ = make_instance(n, 0.2, 0.05, 0, 7)
        assert AlignmentOperator(g1, g2, make_params(compute_alpha(g1, g2)))._dense

    def test_sparse_n600_takes_sparse(self):
        g1, g2, _ = make_instance(600, 0.0125, 0.001, 0, 7)
        assert not AlignmentOperator(g1, g2, make_params(compute_alpha(g1, g2)))._dense

    @pytest.mark.parametrize("graph", [empty_graph, complete_graph])
    def test_dispatch_on_n_alone(self, graph):
        # Dense up to the size bound and sparse above it, whatever the fill.
        top = operator.DENSE_MAX_N
        for n, dense in ((1, True), (top, True), (top + 1, False)):
            g = graph(n)
            op = AlignmentOperator(g, g, make_params(1.0))
            assert op._dense == dense
            op.apply(np.ones(op.dim))
            assert ("_factors" in vars(op)) == dense

    def test_sparse_operator_builds_no_factors(self):
        g1, g2, _ = make_instance(600, 0.0125, 0.001, 0, 7)
        op = AlignmentOperator(g1, g2, make_params(compute_alpha(g1, g2)))
        op.apply(np.ones(op.dim))
        op.permutation_product(Permutation.identity(600))
        assert "_factors" not in vars(op)


class TestQuadraticForm:
    def test_empty_pair_value(self):
        params = make_params(1.0)
        op = AlignmentOperator(empty_graph(4), empty_graph(4), params)
        value = quadratic_form(op, Permutation.identity(4))
        assert value == pytest.approx(params.s2 * 16, rel=1e-12)

    def test_self_alignment_identity_matches_dense(self):
        g = generate_er(5, 0.5, RngSeed(90))
        params = make_params(compute_alpha(g, g))
        op = AlignmentOperator(g, g, params)
        dense = dense_alignment_matrix(g, g, params)
        got = quadratic_form(op, Permutation.identity(5))
        expected = oracles.quadratic_objective(dense, 5, np.arange(5))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_random_perms_match_dense(self):
        g1, g2 = random_pair(5, 91)
        params = make_params(compute_alpha(g1, g2))
        op = AlignmentOperator(g1, g2, params)
        dense = dense_alignment_matrix(g1, g2, params)
        for k in range(6):
            sigma = random_permutation(5, RngSeed(92, k))
            got = quadratic_form(op, sigma)
            expected = oracles.quadratic_objective(dense, 5, sigma.map)
            assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n,seed,p", [(2, 95, 0.5), (3, 96, 0.5), (4, 97, 0.5),
                                          (5, 98, 0.4), (6, 99, 0.3)])
    def test_every_permutation_against_dense(self, n, seed, p):
        g1, g2 = random_pair(n, seed, p)
        params = make_params(compute_alpha(g1, g2))
        op = AlignmentOperator(g1, g2, params)
        dense = dense_alignment_matrix(g1, g2, params)
        by_matched = {}
        for mapping in itertools.permutations(range(n)):
            sigma = Permutation(mapping)
            got = quadratic_form(op, sigma)
            expected = oracles.quadratic_objective(dense, n, sigma.map)
            assert got == pytest.approx(expected, rel=1e-12)
            by_matched.setdefault(matched_edges(g1, g2, sigma), set()).add(got)
        # One value per matched-edge count, strictly increasing in it.
        assert all(len(values) == 1 for values in by_matched.values())
        values = [by_matched[m].pop() for m in sorted(by_matched)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_size_mismatch(self):
        g1, g2 = random_pair(4, 93)
        op = AlignmentOperator(g1, g2, make_params(compute_alpha(g1, g2)))
        with pytest.raises(ValueError):
            quadratic_form(op, Permutation.identity(5))

    @pytest.mark.parametrize("n,seed", [(5, 120), (9, 121)])
    def test_free_closed_form_is_the_method(self, n, seed):
        g1, g2 = random_pair(n, seed, 0.4)
        op = AlignmentOperator(g1, g2, make_params(compute_alpha(g1, g2)))
        for matched in range(min(g1.edge_count, g2.edge_count) + 1):
            value = permutation_objective(op.params, g1.edge_count, g2.edge_count, n, matched)
            assert np.float64(value).tobytes() == np.float64(op.matched_objective(matched)).tobytes()

    def test_permutation_vector_layout(self):
        y = permutation_vector(3, Permutation([1, 2, 0]))
        expected = np.zeros(9)
        expected[[0 * 3 + 1, 1 * 3 + 2, 2 * 3 + 0]] = 1.0
        assert np.array_equal(y, expected)
