import io
import pickle
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netalign.align import eigen_align
from netalign import graphs, operator
from netalign.graphs import (MAX_EDGE_LIST_VERTICES, Graph, Permutation, RngSeed,
                             apply_noise, format_edge_list, generate_er, matched_edges,
                             parse_edge_list, permute, random_permutation)
from netalign.harness import make_instance
from netalign.rounding import greedy_round, max_weight_matching

import oracles

# Vertex counts the public constructors reject: bools, non-integer numbers
# (3.0 too), strings, zero and negatives.
BAD_SIZES = [True, np.True_, 3.0, np.float64(3.0), 2.5, "3", 0, -1]
BAD_SIZE_IDS = ["True", "np.True_", "3.0", "np.float64", "2.5", "str", "0", "-1"]


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

    def test_hash_is_kept_and_equal_for_equal_graphs(self):
        g = Graph.from_edges(5, [(0, 1), (2, 4)])
        first = hash(g)
        assert g._hash == first
        assert hash(g) == first
        assert hash(Graph(np.array(g.adjacency))) == first

    def test_pickle_carries_the_adjacency_only(self):
        # A kept hash would be stale in a process with another hash seed.
        g = Graph.from_edges(5, [(0, 1), (2, 4)])
        hash(g)
        g.csr()
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy._hash is None and copy._csr is None
        assert hash(copy) == hash(g)
        assert not copy.adjacency.flags.writeable

    def test_edge_count_and_edges_sorted(self):
        g = Graph.from_edges(4, [(2, 3), (0, 1), (1, 0)])
        assert g.edge_count == 2
        assert g.edges() == [(0, 1), (2, 3)]

    def test_from_edges_validates(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(1, 1)])

    @pytest.mark.parametrize("n", BAD_SIZES, ids=BAD_SIZE_IDS)
    def test_from_edges_rejects_a_size_that_is_not_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer of at least 1"):
            Graph.from_edges(n, [(0, 1)])

    def test_from_edges_accepts_a_numpy_integer_size(self):
        assert Graph.from_edges(np.int64(3), [(0, 1)]) == Graph.from_edges(3, [(0, 1)])


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


@st.composite
def edge_pairs(draw):
    """(n, pairs): loop-free vertex pairs on 1..12 vertices, some repeated
    in the same or the other orientation."""
    n = draw(st.integers(min_value=1, max_value=12))
    if n == 1:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    pairs = draw(st.lists(pair, max_size=3 * n))
    if pairs:
        repeats = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()),
                                max_size=len(pairs)))
        pairs += [(j, i) if flip else (i, j) for (i, j), flip in repeats]
    return n, pairs


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


    @given(edge_pairs())
    @example((1, []))
    @example((5, []))
    @example((3, [(0, 1), (1, 0), (0, 1), (2, 1)]))
    @settings(max_examples=150, deadline=None)
    def test_set_from_the_pairs(self, case):
        # A graph built from edge pairs gets its index from them, with
        # repeats in either orientation collapsed: by both parse routes (a
        # comment line, or a body with no edge line, sends the text to the
        # per-line loop) and from_edges.
        n, pairs = case
        text = f"n {n}\n" + "".join(f"{i} {j}\n" for i, j in pairs)
        looped = "# a comment\n" + text
        assert (graphs._parse_whole(text) is not None) == bool(pairs)
        assert graphs._parse_whole(looped) is None
        for g in (parse_edge_list(text), parse_edge_list(looped), Graph.from_edges(n, pairs)):
            index = g._edge_index
            assert index is not None and g.edge_index is index
            assert index.dtype == np.int64 and not index.flags.writeable
            assert np.array_equal(index, np.flatnonzero(g.adjacency))
            assert g.edge_count == np.count_nonzero(g.adjacency) // 2
            got, ref = g.csr(), oracles.csr_via_dense(g.adjacency)
            for name in ("indptr", "indices", "data"):
                mine, theirs = getattr(got, name), getattr(ref, name)
                assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), name


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

    @pytest.mark.parametrize("n", BAD_SIZES, ids=BAD_SIZE_IDS)
    def test_rejects_a_size_that_is_not_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer of at least 1"):
            generate_er(n, 0.5, RngSeed(0))

    def test_accepts_a_numpy_integer_size(self):
        assert generate_er(np.int64(6), 0.5, RngSeed(1)) == generate_er(6, 0.5, RngSeed(1))

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

    @pytest.mark.parametrize("n", BAD_SIZES, ids=BAD_SIZE_IDS)
    def test_rejects_a_size_that_is_not_a_positive_integer(self, n):
        # True would draw Permutation([0]); 3.0 would fail inside numpy.
        with pytest.raises(ValueError, match="n must be an integer of at least 1"):
            random_permutation(n, RngSeed(1))

    def test_accepts_a_numpy_integer_size(self):
        assert random_permutation(np.int64(6), RngSeed(1)) == random_permutation(6, RngSeed(1))


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

    @pytest.mark.parametrize("text, message", [
        ("n 40\n1_0 2\n", "line 2: non-integer vertex id in '1_0 2'"),
        ("n 40\n+3 \u0661\u0662\n", "line 2: non-integer vertex id in '+3 \u0661\u0662'"),
        ("n +5\n0 1\n", "line 1: bad vertex count '+5'"),
    ])
    def test_only_ascii_digits_are_numbers(self, text, message):
        # Python's int() reads each of these tokens; as ids they are typos.
        for source in (text, io.StringIO(text)):
            with pytest.raises(ValueError) as err:
                parse_edge_list(source)
            assert str(err.value) == message

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

    def test_readme_example_parses_verbatim(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("### Edge-list format", 1)[1]
        example = section.split("```\n", 2)[1]
        g = parse_edge_list(example)
        assert g.n == 5 and g.edges() == [(0, 1), (1, 4)]

    @staticmethod
    def long_list(bad_line=None, header="n 600", edges=4999):
        """A header and `edges` valid edges, with line `bad_line` replaced."""
        lines = [header] + [f"{k % 599} {k % 599 + 1}" for k in range(edges)]
        if bad_line is not None:
            lines[bad_line[0] - 1] = bad_line[1]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("line,message", [
        ("5 5", "line 4321: self-loop at vertex 5"),
        ("5 600", "line 4321: vertex id out of range 0..599"),
        ("5 6 7", "line 4321: expected 'i j', got '5 6 7'"),
    ])
    def test_error_in_long_input_names_its_line(self, line, message):
        text = self.long_list((4321, line))
        for source in (text, io.StringIO(text)):
            with pytest.raises(ValueError) as err:
                parse_edge_list(source)
            assert str(err.value) == message

    def test_header_above_limit_over_long_input_rejected_first(self):
        # 10^16 bytes could never be allocated: see the short test above.
        text = self.long_list(header="n 100000000", edges=2000)
        with pytest.raises(ValueError) as err:
            parse_edge_list(text)
        assert str(err.value) == ("line 1: vertex count 100000000 exceeds the limit of "
                                  f"{MAX_EDGE_LIST_VERTICES}")


def outcome(parse, source):
    """`parse(source)`, or the message of the ValueError it raises."""
    try:
        return parse(source)
    except ValueError as err:
        return f"ValueError: {err}"


# Quirks of the edge-list format, each beside the plain forms the whole-text
# pass reads; the per-line loop is the oracle for all of them. The vertex
# limit is patched down to LIMIT while the property runs.
LIMIT = 40
ODD_IDS = st.sampled_from(["+3", "1_0", "\u0663", "\u0661\u0660", "-1", "1234567890",
                           "3.0", "x", "#", "n"])
PLAIN_SEPS = st.sampled_from([" ", "\t", "  ", " \t "])
ODD_SEPS = st.sampled_from(["\x0c", "\x0b", "\u00a0", "\u2003", "\x1c", "\r", ",", ""])
PLAIN_PADS = st.sampled_from(["", "", " ", "\t"])
ODD_PADS = st.sampled_from(["\x0c", "\u00a0", "\x85", "\r", " # note"])
PLAIN_ENDS = st.sampled_from(["\n", "\n", "\r\n"])
ODD_ENDS = st.sampled_from(["\r", "\x0b", "\x0c", "\u2028", "\x85", "\r\r\n", "\n\r"])
NUMERALS = st.sampled_from(["{}", "{}", "{:03d}"])
ODD_KINDS = st.sampled_from(["1 token", "3 tokens", "comment", "inline", "header"])


@st.composite
def vertex_ids(draw, n):
    """Mostly an id in range 0..n-1; one in ten anywhere up to past the limit."""
    high = n - 1 if n > 0 and draw(st.integers(0, 9)) else LIMIT + 1
    return draw(NUMERALS).format(draw(st.integers(0, high)))


@st.composite
def edge_list_texts(draw):
    # One pick in `odds` takes the odd form (none at odds 0); at 30 a quirk
    # often stands alone in an otherwise plain text.
    odds = draw(st.sampled_from([0, 30, 4]))
    n = draw(st.integers(0, LIMIT + 1))

    def pick(plain, odd):
        return draw(odd if odds and draw(st.integers(1, odds)) == 1 else plain)

    def pad():
        return pick(PLAIN_PADS, ODD_PADS)

    def tokens(count):
        ids = [pick(vertex_ids(n), ODD_IDS) for _ in range(count)]
        return pick(PLAIN_SEPS, ODD_SEPS).join(ids)

    def line():
        kind = pick(st.sampled_from(["edge"] * 6 + ["blank"]), ODD_KINDS)
        body = {"edge": lambda: tokens(2), "blank": lambda: "",
                "1 token": lambda: tokens(1), "3 tokens": lambda: tokens(3),
                "comment": lambda: draw(st.sampled_from(["#", "# n 3", "#0 1"])),
                "inline": lambda: tokens(2) + " # edge", "header": lambda: "n 3"}[kind]()
        return pad() + body + pad()

    count = pick(NUMERALS.map(lambda form: form.format(n)), ODD_IDS)
    lines = [pad() + "n" + pick(PLAIN_SEPS, ODD_SEPS) + count + pad()]
    lines += [line() for _ in range(draw(st.integers(0, 8)))]
    lines[:0] = pick(st.just([]), st.sampled_from([[""], ["# graph"], ["  "]]))
    ends = [pick(PLAIN_ENDS, ODD_ENDS) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(text + end for text, end in zip(lines, ends))


def same_graph(a, b):
    """Both None, or graphs with equal adjacency and edge-index bytes."""
    if a is None or b is None:
        return a is b
    return (a.adjacency.tobytes() == b.adjacency.tobytes()
            and a.edge_index.tobytes() == b.edge_index.tobytes())


def check_agrees_with_loop(text):
    """The whole-text pass returns the loop's graph or None, None whenever the
    loop raises, and `parse_edge_list` does what the loop does, for `text`
    and for streams and iterables of it. The byte check accepts exactly the
    bodies `format_edge_list` writes and counts their ids."""
    with mock.patch.object(graphs, "MAX_EDGE_LIST_VERTICES", LIMIT):
        expected = outcome(graphs._parse_lines, io.StringIO(text))
        fast = graphs._parse_whole(text)
        assert fast is None or fast == expected  # a Graph never equals an error
        assert outcome(parse_edge_list, text) == expected
        head = graphs._HEADER.match(text)
        if head:
            body = text[head.end():]
            plain = re.fullmatch(r"\n(?:[0-9]{1,9} [0-9]{1,9}\n)+", body)
            runs = graphs._plain_runs(body.encode("ascii", "replace"))
            assert runs == (2 * body.count("\n") - 2 if plain else None)

        # A stream, or any iterable of strings, is read as the lines it
        # yields: whatever its newline mode cuts, or pieces of 7 characters.
        def sources():
            for newline in (None, "", "\n", "\r", "\r\n"):
                yield io.StringIO(text, newline=newline)
                yield io.TextIOWrapper(io.BytesIO(text.encode()), "utf-8", newline=newline)
            yield [text[k:k + 7] for k in range(0, len(text), 7)]

        for source, oracle in zip(sources(), sources()):
            assert outcome(parse_edge_list, source) == outcome(graphs._parse_lines, oracle)


class TestWholeTextParse:
    """`parse_edge_list`'s whole-text pass against its per-line loop."""

    @given(edge_list_texts())
    @settings(max_examples=600, deadline=None)
    @example("n 3\n0 1\n1 2\n")
    @example("n 3\r\n\t0\t2 \r\n\r\n")
    @example("n 40")
    @example("n 41\n0 1\n")
    @example("n 3\r0 1\r")
    @example("n 40\n129 \n0")  # deleting digits hides a last line without "\n"
    @example("n 3\n0\t1\n1 2\n")
    @example("n 3\r\n0 1\r\n1 2\r\n")
    @example("n 3\n0  1\n")
    @example("n 3\n0000000001 2\n")  # 10 digits: the loop reads it, the pass defers
    @example("n 3\n\u0661 2\n0 1\n")
    def test_returns_the_loops_graph_or_defers(self, text):
        check_agrees_with_loop(text)

    @pytest.mark.parametrize("line", [
        "", " \t ", "1 2 3", "12", "04", "007", "#0 1", "# c", "0 1 # c", "0 1#", "+3 1",
        "1_0 2", "\u0663 1", "1 \u0661\u0660", "1\x0c2", "\x0c1 2", "1 2\x0c", "1\u00a02",
        "1\x0b2", "1\x1c2", "1,2", "n 3", "1 1", "0 40", "-1 2", "1234567890 1",
        "1 2\r", "\r1 2", "1\r2", "1 2\r\r", "0 1\r2 3", "0 1\r\r2 3", "\x85", "5 ", "\t5",
    ])
    def test_lone_quirk_in_plain_text(self, line):
        check_agrees_with_loop(f"n 40\n0 1\n{line}\n2 3\n")
        check_agrees_with_loop(f"n 40\n0 1\n{line}")

    def test_reads_plain_texts_itself(self):
        text = format_edge_list(generate_er(40, 0.2, RngSeed(3)))
        assert same_graph(graphs._parse_whole(text), graphs._parse_lines(io.StringIO(text)))

    @pytest.mark.parametrize("change", [
        "blank line", "tabs", "crlf", "comment", "no final newline", "stream"])
    def test_other_texts_take_the_loop(self, change):
        # The same text with any change from `format_edge_list` output, and
        # any stream, is read by the loop alone.
        text = format_edge_list(generate_er(40, 0.2, RngSeed(3)))
        expected = graphs._parse_lines(io.StringIO(text))
        text = {"blank line": text.replace("\n", "\n\n", 1), "tabs": text.replace(" ", "\t"),
                "crlf": text.replace("\n", "\r\n"), "comment": text.replace("\n", "\n# c\n", 1),
                "no final newline": text[:-1], "stream": io.StringIO(text)}[change]
        if isinstance(text, str):
            assert graphs._parse_whole(text) is None
        assert same_graph(parse_edge_list(text), expected)

    @pytest.mark.parametrize("text", [
        f"n {MAX_EDGE_LIST_VERTICES + 1}\n0 1\n", f"n {MAX_EDGE_LIST_VERTICES}\n3 3\n",
        "n 0\n", "# graph\nn 3\n0 1\n", "n 3\n\n", "n 4\r\n 0\t1 \r\n\r\n002   3", "n 2",
    ])
    def test_defers_without_allocating(self, text):
        tracemalloc.start()
        try:
            assert graphs._parse_whole(text) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # a dense graph at the limit takes 10^8 bytes


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


def assert_sparse_view(g, operand):
    """g's cached CSR arrays are those of the dense conversion, and
    `_csr_product` on them equals the public `@` bit for bit, on a column of
    `operand` and on all of it. Its upper-triangle pairs hold each edge once
    as i < j. A pickle of g carries its adjacency and nothing built from
    it."""
    arrays = g._csr_arrays()
    assert g._csr_arrays() is arrays and not any(a.flags.writeable for a in arrays)
    ref = oracles.csr_via_dense(g.adjacency)
    for mine, name in zip(arrays, ("indptr", "indices", "data")):
        theirs = getattr(ref, name)
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), name
    for x in (operand[:, 0], operand):
        assert operator._csr_product(g, x).tobytes() == (ref @ x).tobytes()
    rows, cols = np.nonzero(np.triu(g.adjacency))
    pairs = g._upper_pairs()
    assert all(a.dtype == np.int64 and not a.flags.writeable for a in pairs)
    assert np.array_equal(pairs[0], rows) and np.array_equal(pairs[1], cols)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g
    assert (copy._edge_index, copy._csr, copy._upper, copy._hash) == (None,) * 4


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
        # The sparse view that matched_edges and the operator's products
        # read, on every builder: g1's pairs were built alone (above), g2's
        # with its CSR arrays.
        assert g2._upper is None
        operand = RngSeed(seed, 4).generator().standard_normal((n, 3))
        for g in (g1, g2):
            assert_sparse_view(g, operand)

    def test_dense_pair_gather_allocates_under_half_a_float_matrix(self):
        # Each edge is looked up once, from the upper-triangle pairs of the
        # sparse view (built and cached before measuring): e-entry int64
        # temporaries, where both orientations took 2e-entry ones (about
        # one n x n float array here).
        n = 400
        g1, g2, planted = make_instance(n, 0.2, 0.05, 0, 1)
        sigma = random_permutation(n, RngSeed(4))
        g1._upper_pairs()
        for perm in (planted, sigma):
            tracemalloc.start()
            try:
                got = matched_edges(g1, g2, perm)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 0.5 * 8 * n * n
            assert got == oracles.count_matched_edges_loop(
                np.array(g1.adjacency), np.array(g2.adjacency), perm.map)

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
