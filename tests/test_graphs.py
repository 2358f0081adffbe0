import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netalign.align import eigen_align
from netalign import graphs
from netalign.graphs import (MAX_EDGE_LIST_VERTICES, Graph, Permutation, RngSeed,
                             apply_noise, format_edge_list, generate_er, matched_edges,
                             parse_edge_list, permute, random_permutation)
from netalign.harness import make_instance
from netalign.rounding import greedy_round, max_weight_matching

import oracles


class TestGraphType:
    def test_rejects_self_loops(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[1, 1] = True
        with pytest.raises(ValueError, match="self-loop"):
            Graph(adj)

    def test_rejects_asymmetric(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError, match="symmetric"):
            Graph(adj)

    def test_rejects_empty_and_nonsquare(self):
        with pytest.raises(ValueError):
            Graph(np.zeros((0, 0), dtype=bool))
        with pytest.raises(ValueError):
            Graph(np.zeros((2, 3), dtype=bool))

    @pytest.mark.parametrize("bad", [2, 0.5, -1, np.nan, "1"])
    def test_rejects_entries_other_than_0_or_1(self, bad):
        rows = [[0, bad], [bad, 0]]
        for adj in (rows, np.array(rows)):
            with pytest.raises(ValueError, match="boolean or 0/1"):
                Graph(adj)

    def test_bool_and_0_1_inputs_give_equal_graphs(self):
        rows = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        expected = Graph(np.array(rows, dtype=bool))
        for adj in (rows, [[bool(x) for x in row] for row in rows],
                    np.array(rows), np.array(rows, dtype=np.uint8),
                    np.array(rows, dtype=float)):
            assert Graph(adj) == expected

    def test_adjacency_is_frozen(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.adjacency[0, 2] = True

    def test_edge_count_and_edges_sorted(self):
        g = Graph.from_edges(4, [(2, 3), (0, 1), (1, 0)])
        assert g.edge_count == 2
        assert g.edges() == [(0, 1), (2, 3)]

    def test_from_edges_validates(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(1, 1)])


class TestPermutationType:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            Permutation([0, 0, 2])

    def test_rejects_non_integral_entries(self):
        # Truncation would silently turn [0.7, 1.2] into the identity.
        for mapping in (np.array([0.7, 1.2]), [0.0, 1.0], [1, 0.5], np.array([np.nan, 0.0])):
            with pytest.raises(ValueError, match="integers"):
                Permutation(mapping)
        with pytest.raises(ValueError, match="non-empty"):
            Permutation([])

    def test_integer_dtypes_accepted_and_copied(self):
        source = np.array([2, 0, 1], dtype=np.uint8)
        sigma = Permutation(source)
        source[0] = 0
        assert sigma.map.dtype == np.int64
        assert sigma.map.tolist() == [2, 0, 1]
        assert not sigma.map.flags.writeable

    def test_inverse_and_compose(self):
        sigma = Permutation([2, 0, 1])
        assert sigma.compose(sigma.inverse()) == Permutation.identity(3)
        assert sigma.inverse().compose(sigma) == Permutation.identity(3)

    def test_call(self):
        sigma = Permutation([1, 2, 0])
        assert [sigma(i) for i in range(3)] == [1, 2, 0]


@st.composite
def adjacency(draw):
    """Symmetric hollow boolean matrices on 1..12 vertices; edgeless and
    complete graphs are drawn often."""
    n = draw(st.integers(min_value=1, max_value=12))
    kind = draw(st.sampled_from(("random", "random", "edgeless", "complete")))
    if kind == "edgeless":
        return np.zeros((n, n), dtype=bool)
    if kind == "complete":
        return ~np.eye(n, dtype=bool)
    bits = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2))
    adj = np.zeros((n, n), dtype=bool)
    adj[np.triu_indices(n, k=1)] = bits
    return adj | adj.T


class TestCsrView:
    @given(adjacency())
    @example(np.zeros((1, 1), dtype=bool))
    @example(np.zeros((5, 5), dtype=bool))
    @example(~np.eye(6, dtype=bool))
    @example(np.array(generate_er(600, 0.0125, RngSeed(17)).adjacency))
    @settings(max_examples=150, deadline=None)
    def test_same_arrays_as_dense_conversion(self, adj):
        got = Graph(adj).csr()
        ref = oracles.csr_via_dense(adj)
        assert type(got) is type(ref)
        assert got.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            mine, theirs = getattr(got, name), getattr(ref, name)
            assert mine.dtype == theirs.dtype, name
            assert np.array_equal(mine, theirs), name
        assert got.has_sorted_indices == ref.has_sorted_indices
        assert got.has_canonical_format == ref.has_canonical_format


class TestEdgeIndex:
    @given(adjacency())
    @example(np.zeros((1, 1), dtype=bool))
    @example(~np.eye(6, dtype=bool))
    @settings(max_examples=150, deadline=None)
    def test_sorted_read_only_flat_positions_behind_edges(self, adj):
        g = Graph(adj)
        index = g.edge_index
        assert index.dtype == np.int64
        assert np.array_equal(index, np.flatnonzero(adj))
        assert (np.diff(index) > 0).all()
        assert not index.flags.writeable
        assert g.edge_index is index
        rows, cols = np.nonzero(np.triu(adj))
        assert g.edges() == list(zip(rows.tolist(), cols.tolist()))


class TestDrawOrder:
    """The mask-drawn generators consume the random stream pair by pair in
    the order of np.triu_indices, so they reproduce its graphs exactly."""

    SIZES = list(range(1, 61)) + [600]

    def test_generate_er_matches_triu_draws(self):
        for n in self.SIZES:
            for p in (0.0, 0.0125, 0.2, 1.0):
                for seed in (0, 1, 2):
                    stream = RngSeed(seed, n)
                    expected = oracles.er_adjacency_triu(n, p, stream.generator())
                    assert np.array_equal(generate_er(n, p, stream).adjacency, expected), \
                        (n, p, seed)

    def test_apply_noise_matches_triu_flips(self):
        for n in self.SIZES:
            for seed in (0, 1, 2):
                g = generate_er(n, 0.2, RngSeed(seed, n))
                for lam in (0.0, 0.05, 0.5, 1.0):
                    stream = RngSeed(seed, 1000 + n)
                    expected = oracles.noisy_adjacency_triu(
                        np.array(g.adjacency), lam, stream.generator())
                    assert np.array_equal(apply_noise(g, lam, stream).adjacency, expected), \
                        (n, lam, seed)


class TestStreamReset:
    """The draw functions reuse one generator per thread, reset to the start
    of each stream; they draw what a newly built generator draws."""

    # Seeds at both ends of the key range and in between, with sizes that
    # leave the Philox buffer at different positions.
    CASES = [(RngSeed(base, stream), 2 + k % 23)
             for k, (base, stream) in enumerate(
                 [(0, 0), (2**64 - 1, 2**64 - 1), (0, 2**64 - 1), (2**64 - 1, 0)]
                 + [(7 * j + 1, 2**63 + 11 * j) for j in range(48)])]

    @staticmethod
    def draws_match(seed, n, before=lambda: None):
        """Each draw function against a fresh generator, with `before` run
        ahead of each one."""
        def fresh():
            return oracles.fresh_philox(seed.base_seed, seed.stream_id)

        before()
        g = generate_er(n, 0.3, seed)
        assert np.array_equal(g.adjacency, oracles.er_adjacency_triu(n, 0.3, fresh()))
        before()
        noisy = apply_noise(g, 0.2, seed)
        assert np.array_equal(noisy.adjacency,
                              oracles.noisy_adjacency_triu(g.adjacency, 0.2, fresh()))
        before()
        assert np.array_equal(random_permutation(n, seed).map, fresh().permutation(n))

    def test_each_draw_starts_its_stream(self):
        assert len(self.CASES) >= 50
        for seed, n in self.CASES:
            self.draws_match(seed, n)

    def test_after_a_half_used_word(self):
        # A 32-bit draw leaves the thread's generator holding the other half
        # of a 64-bit word; the next draw must not start from it.
        def half_word():
            rng = graphs._stream(RngSeed(5, 6))
            rng.integers(0, 2**32, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"] == 1

        for seed, n in self.CASES:
            self.draws_match(seed, n, before=half_word)

    def test_generator_is_independent(self):
        a, b = RngSeed(3, 4).generator(), RngSeed(3, 4).generator()
        assert a is not b and a.bit_generator is not b.bit_generator
        first = a.random(5)
        random_permutation(9, RngSeed(3, 4))
        assert np.array_equal(b.random(5), first)
        assert np.array_equal(a.random(5), oracles.fresh_philox(3, 4).random(10)[5:])


class TestRngSeed:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RngSeed(-1)
        with pytest.raises(ValueError):
            RngSeed(2**64)

    def test_equal_seeds_equal_streams(self):
        a = RngSeed(7, 9).generator().random(8)
        b = RngSeed(7, 9).generator().random(8)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngSeed(7, 1).generator().random(8)
        b = RngSeed(7, 2).generator().random(8)
        assert not np.array_equal(a, b)


class TestGenerateEr:
    def test_p_zero_empty(self):
        g = generate_er(5, 0.0, RngSeed(1))
        assert g.edge_count == 0

    def test_p_one_complete(self):
        g = generate_er(5, 1.0, RngSeed(1))
        assert g.edge_count == 10

    def test_density_chernoff_window(self):
        # Observed edge fraction must hug p for a large graph.
        g = generate_er(1000, 0.2, RngSeed(12345))
        density = g.edge_count / (1000 * 999 / 2)
        assert 0.18 <= density <= 0.22

    def test_deterministic(self):
        a = generate_er(50, 0.3, RngSeed(2, 5))
        b = generate_er(50, 0.3, RngSeed(2, 5))
        assert a == b

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_er(0, 0.5, RngSeed(0))
        with pytest.raises(ValueError):
            generate_er(5, 1.5, RngSeed(0))
        with pytest.raises(ValueError):
            generate_er(5, -0.1, RngSeed(0))


class TestApplyNoise:
    def test_lambda_zero_identity(self):
        g = generate_er(12, 0.4, RngSeed(3))
        assert apply_noise(g, 0.0, RngSeed(4)) == g

    def test_lambda_one_complement(self):
        g = generate_er(8, 0.5, RngSeed(5))
        flipped = apply_noise(g, 1.0, RngSeed(6))
        expected = ~np.array(g.adjacency)
        np.fill_diagonal(expected, False)
        assert np.array_equal(flipped.adjacency, expected)

    def test_flip_fraction_window(self):
        g = generate_er(10, 1.0, RngSeed(7))  # K10
        noisy = apply_noise(g, 0.3, RngSeed(8))
        flipped_pairs = np.count_nonzero(g.adjacency != noisy.adjacency) // 2
        assert 0.1 <= flipped_pairs / 45 <= 0.5

    def test_result_stays_simple(self):
        g = generate_er(9, 0.5, RngSeed(9))
        noisy = apply_noise(g, 0.7, RngSeed(10))
        assert not noisy.adjacency.diagonal().any()
        assert np.array_equal(noisy.adjacency, noisy.adjacency.T)

    def test_rejects_bad_lambda(self):
        g = generate_er(4, 0.5, RngSeed(0))
        with pytest.raises(ValueError):
            apply_noise(g, 1.01, RngSeed(0))


class TestPermute:
    def test_identity(self):
        g = generate_er(7, 0.5, RngSeed(11))
        assert permute(g, Permutation.identity(7)) == g

    def test_path_reversal_keeps_edge_set(self):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        reversed_path = permute(path, Permutation([2, 1, 0]))
        assert reversed_path.edges() == [(0, 1), (1, 2)]

    def test_size_mismatch(self):
        g = generate_er(4, 0.5, RngSeed(0))
        with pytest.raises(ValueError):
            permute(g, Permutation.identity(5))

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_through_inverse(self, n, seed):
        g = generate_er(n, 0.5, RngSeed(seed, 1))
        sigma = random_permutation(n, RngSeed(seed, 2))
        assert permute(permute(g, sigma), sigma.inverse()) == g

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_degree_multiset_preserved(self, n, seed):
        g = generate_er(n, 0.4, RngSeed(seed, 1))
        sigma = random_permutation(n, RngSeed(seed, 2))
        h = permute(g, sigma)
        assert sorted(g.degree_sequence()) == sorted(h.degree_sequence())


class TestBuiltGraphsSkipRevalidation:
    """generate_er, apply_noise and permute wrap their fresh adjacency without
    re-checking it; the result must equal the fully checked Graph."""

    @staticmethod
    def assert_same_as_checked(g):
        checked = Graph(g.adjacency)
        assert g == checked and g.edge_count == checked.edge_count
        adj = g.adjacency
        assert adj.dtype == bool and not adj.flags.writeable
        assert np.array_equal(adj, adj.T) and not adj.diagonal().any()

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_matches_checked_constructor(self, n, p):
        g = generate_er(n, p, RngSeed(n, 1))
        noisy = apply_noise(g, 0.2, RngSeed(n, 2))
        relabeled = permute(noisy, random_permutation(n, RngSeed(n, 3)))
        for built in (g, noisy, relabeled):
            self.assert_same_as_checked(built)


class TestBuiltPermutationsSkipRevalidation:
    """greedy_round, max_weight_matching and random_permutation wrap the
    bijection they built without re-checking it; the result must equal the
    fully checked Permutation."""

    @staticmethod
    def builders(n, seed):
        scores = np.random.default_rng(seed).integers(0, 4, size=(n, n)).astype(float)
        yield greedy_round(scores)
        yield max_weight_matching(scores)
        yield random_permutation(n, RngSeed(seed, 4))

    @pytest.mark.parametrize("n", [1, 2, 9, 40])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_checked_constructor(self, n, seed):
        for built in self.builders(n, seed):
            mapping = built.map
            assert built == Permutation(mapping)
            assert mapping.dtype == np.int64 and not mapping.flags.writeable


class TestRandomPermutation:
    def test_single_element(self):
        assert random_permutation(1, RngSeed(0)) == Permutation([0])

    def test_deterministic(self):
        assert random_permutation(4, RngSeed(42)) == random_permutation(4, RngSeed(42))

    def test_uniformity(self):
        counts = {}
        for k in range(6000):
            pi = tuple(random_permutation(3, RngSeed(777, k)).map.tolist())
            counts[pi] = counts.get(pi, 0) + 1
        assert len(counts) == 6
        for count in counts.values():
            assert abs(count / 6000 - 1 / 6) < 0.05

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            random_permutation(0, RngSeed(0))


class TestEdgeListFormat:
    def test_single_edge(self):
        g = parse_edge_list("n 2\n0 1")
        assert g.n == 2 and g.edge_count == 1

    def test_duplicate_orientations_collapse(self):
        g = parse_edge_list("n 3\n0 1\n1 0")
        assert g.edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            parse_edge_list("n 3\n0 0")

    def test_comments_and_blanks_ignored(self):
        g = parse_edge_list("# header\n\nn 3\n# edge below\n0 2\n")
        assert g.edges() == [(0, 2)]

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("n 3\n0 1 2")

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_edge_list("n 3\n0 3")

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_edge_list("0 1\n")

    def test_header_above_limit_rejected_before_allocating(self):
        # 10^16 bytes could never be allocated: a parser that trusted this
        # header would fail with MemoryError, not with this ValueError.
        with pytest.raises(ValueError, match=f"limit of {MAX_EDGE_LIST_VERTICES}"):
            parse_edge_list("n 100000000\n0 1\n")

    def test_header_at_limit_passes_the_check(self):
        # A header at the limit is accepted; the edge line after it is then
        # rejected before the graph is built, so nothing large is allocated.
        with pytest.raises(ValueError, match="line 2: self-loop"):
            parse_edge_list(f"n {MAX_EDGE_LIST_VERTICES}\n3 3\n")

    def test_accepts_stream(self):
        g = parse_edge_list(io.StringIO("n 2\n0 1\n"))
        assert g.edge_count == 1

    def test_format_parse_round_trip(self):
        g = generate_er(9, 0.4, RngSeed(21))
        assert parse_edge_list(format_edge_list(g)) == g

    def test_format_sorted(self):
        g = Graph.from_edges(4, [(2, 3), (0, 2), (0, 1)])
        assert format_edge_list(g) == "n 4\n0 1\n0 2\n2 3\n"


BUILDERS = ("array", "from_edges", "parse_edge_list", "generate_er", "permute")


def build_graph(builder, n, p, seed):
    """A G(n, p) draw, wrapped by one of the package's graph constructors."""
    g = generate_er(n, p, seed)
    if builder == "array":
        return Graph(g.adjacency.astype(np.int8))
    if builder == "from_edges":
        return Graph.from_edges(n, [(j, i) for i, j in g.edges()])
    if builder == "parse_edge_list":
        return parse_edge_list(format_edge_list(g))
    if builder == "permute":
        return permute(g, random_permutation(n, RngSeed(seed.base_seed, 9)))
    return g


def match_sparse_pair(seed):
    """The match-sparse benchmark's planted pair (n = 600, p = 0.0125,
    lambda = 0.001), read back from edge-list text as `netalign match` does."""
    g1, g2, planted = make_instance(600, 0.0125, 0.001, 0, seed)
    return (parse_edge_list(format_edge_list(g1)), parse_edge_list(format_edge_list(g2)),
            planted)


class TestMatchedEdges:
    def test_self_alignment(self):
        g = generate_er(8, 0.5, RngSeed(30))
        assert matched_edges(g, g, Permutation.identity(8)) == g.edge_count

    def test_empty_partner(self):
        g = generate_er(6, 0.8, RngSeed(31))
        empty = generate_er(6, 0.0, RngSeed(0))
        assert matched_edges(g, empty, random_permutation(6, RngSeed(32))) == 0

    def test_against_double_loop_oracle(self):
        g1 = generate_er(8, 0.5, RngSeed(33))
        noisy = apply_noise(g1, 0.2, RngSeed(34))
        planted = random_permutation(8, RngSeed(35))
        g2 = permute(noisy, planted)
        expected = oracles.count_matched_edges_loop(
            np.array(g1.adjacency), np.array(g2.adjacency), planted.map)
        assert matched_edges(g1, g2, planted) == expected

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_inverse_symmetry(self, n, seed):
        g1 = generate_er(n, 0.5, RngSeed(seed, 1))
        g2 = generate_er(n, 0.5, RngSeed(seed, 2))
        sigma = random_permutation(n, RngSeed(seed, 3))
        assert matched_edges(g1, g2, sigma) == matched_edges(g2, g1, sigma.inverse())

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_frobenius_identity(self, n, seed):
        # ||G1 X - X G2||_F^2 == 2 (e1 + e2 - 2 * matched) against dense matrices.
        g1 = generate_er(n, 0.5, RngSeed(seed, 1))
        g2 = generate_er(n, 0.5, RngSeed(seed, 2))
        sigma = random_permutation(n, RngSeed(seed, 3))
        m = matched_edges(g1, g2, sigma)
        expected = oracles.frobenius_misalignment(
            np.array(g1.adjacency), np.array(g2.adjacency), sigma.map)
        assert 2 * (g1.edge_count + g2.edge_count - 2 * m) == expected

    def test_size_mismatch(self):
        g1 = generate_er(4, 0.5, RngSeed(0))
        g2 = generate_er(5, 0.5, RngSeed(0))
        with pytest.raises(ValueError):
            matched_edges(g1, g2, Permutation.identity(4))

    @given(st.integers(min_value=1, max_value=60), st.sampled_from((0.0, 0.1, 0.5, 1.0)),
           st.sampled_from(BUILDERS), st.sampled_from(BUILDERS),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=120, deadline=None)
    def test_against_double_loop_oracle_on_every_builder(self, n, p, build1, build2, seed):
        g1 = build_graph(build1, n, p, RngSeed(seed, 1))
        g2 = build_graph(build2, n, p, RngSeed(seed, 2))
        sigma = random_permutation(n, RngSeed(seed, 3))
        expected = oracles.count_matched_edges_loop(
            np.array(g1.adjacency), np.array(g2.adjacency), sigma.map)
        assert matched_edges(g1, g2, sigma) == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_match_sparse_instance_against_double_loop_oracle(self, seed, monkeypatch):
        g1, g2, planted = match_sparse_pair(seed)
        found = eigen_align(g1, g2).permutation

        def refuse(self):
            raise AssertionError("matched_edges built a CSR view")
        monkeypatch.setattr(Graph, "csr", refuse)
        adj1, adj2 = np.array(g1.adjacency), np.array(g2.adjacency)
        for perm in (planted, found):
            expected = oracles.count_matched_edges_loop(adj1, adj2, perm.map)
            assert matched_edges(g1, g2, perm) == expected

    def test_match_sparse_gather_allocates_less_than_n_squared(self):
        g1, g2, planted = match_sparse_pair(1)
        assert g1.edge_index.size > 0  # built and cached before measuring
        tracemalloc.start()
        try:
            matched_edges(g1, g2, planted)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < g1.n ** 2
