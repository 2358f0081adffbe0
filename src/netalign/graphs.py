"""Simple undirected graphs, permutations, and seeded random generators.

Graphs are stored as a read-only boolean adjacency matrix (O(1) membership);
`Graph(...)` is the one place adjacency input is coerced and checked. Two
views are derived from it lazily and cached. The edge index
(`Graph.edge_index`) holds the sorted flat positions i*n + j of the nonzero
entries, so each edge appears twice; `matched_edges` gathers from it in O(e)
and `Graph.csr()` reads its row pointers and column indices off it. The CSR
view (per-vertex sorted neighbor lists) serves the alignment operator's
sparse products. All randomness flows through :class:`RngSeed`, which
keys a counter-based Philox generator, so every stream here is
bit-reproducible across runs and platforms for equal seeds. A Philox
stream's whole state is its key and a counter, so the draw functions
(`generate_er`, `apply_noise`, `random_permutation`) keep one Philox
generator per thread and reset it to the start of each stream they draw
from, rather than build a generator per draw; `RngSeed.generator()` still
returns a new, independent generator on every call.

Edge-list text format::

    n <vertex_count>
    i j          # one 0-indexed edge per line, either orientation
    # comment lines and blank lines are ignored

Duplicate lines and both orientations of an edge collapse to a single edge;
self-loops are rejected. The header's vertex count is bounded by
`MAX_EDGE_LIST_VERTICES`, checked before anything is allocated, because the
graph is stored as a dense n x n matrix.
"""

from __future__ import annotations

import io
import threading
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np
import scipy.sparse as sp
from numpy.random import Generator, Philox

__all__ = [
    "Graph",
    "Permutation",
    "RngSeed",
    "generate_er",
    "apply_noise",
    "permute",
    "random_permutation",
    "parse_edge_list",
    "format_edge_list",
    "matched_edges",
    "MAX_EDGE_LIST_VERTICES",
]

_MASK64 = (1 << 64) - 1
# Largest vertex count an edge-list header may declare. The dense boolean
# adjacency takes n² bytes (100 MB at the limit) and the operator's n x n
# float products 8 n² bytes each, so a larger header is rejected before any
# allocation rather than trusted.
MAX_EDGE_LIST_VERTICES = 10_000


@dataclass(frozen=True)
class RngSeed:
    """Key of a counter-based random stream: (base_seed, stream_id).

    Equal keys yield equal streams everywhere; distinct stream_ids give
    statistically independent streams under the same base_seed.
    """

    base_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("base_seed", "stream_id"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or not (0 <= int(value) <= _MASK64):
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")

    def generator(self) -> Generator:
        key = np.array([self.base_seed, self.stream_id], dtype=np.uint64)
        return Generator(Philox(key=key))


def as_seed(seed: "RngSeed | int") -> RngSeed:
    """Accept a bare int as shorthand for RngSeed(int, 0)."""
    if isinstance(seed, RngSeed):
        return seed
    return RngSeed(int(seed))


# Holds each thread's generator for `_stream`.
_local = threading.local()


def _stream(seed: "RngSeed | int") -> Generator:
    """This thread's generator, reset to the start of `seed`'s stream.

    It draws what `seed.generator()` would draw: the state set here (counter
    0, an empty buffer, no half-used 32-bit word) is the one a new
    Philox(key=...) starts from. Resetting costs a small fraction of
    building a generator. Valid until the thread's next call.
    """
    seed = as_seed(seed)
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = seed.generator()
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0),
                  "key": (int(seed.base_seed), int(seed.stream_id))},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    `adjacency` is a square boolean array, or an array-like (nested lists
    included) whose entries are all 0 or 1; any other entry (2, 0.5, -1,
    NaN, a string) raises ValueError rather than being read as an edge. The
    matrix is validated symmetric with a zero diagonal, copied and frozen
    (writeable=False). Treat instances as value objects; they are safe to
    share across threads.
    """

    __slots__ = ("_adj", "_edge_count", "_edge_index", "_csr", "__weakref__")

    def __init__(self, adjacency: np.ndarray):
        adj = np.asarray(adjacency)
        if adj.dtype != bool:
            if adj.dtype.kind not in "iuf" or not np.isin(adj, (0, 1)).all():
                raise ValueError("adjacency entries must be boolean or 0/1")
            adj = adj.astype(bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if adj.shape[0] == 0:
            raise ValueError("graph needs at least one vertex")
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        self._set(adj.copy())

    @classmethod
    def _trusted(cls, adj: np.ndarray) -> "Graph":
        """Wrap a fresh square boolean adjacency that is already symmetric and
        hollow, without the checks or the copy; the array is taken over."""
        g = cls.__new__(cls)
        g._set(adj)
        return g

    def _set(self, adj: np.ndarray) -> None:
        adj.flags.writeable = False
        self._adj = adj
        self._edge_count = int(np.count_nonzero(adj)) // 2
        self._edge_index = None
        self._csr = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        pairs = np.asarray(list(edges))
        if pairs.size and pairs.dtype.kind not in "iu":
            raise ValueError(f"vertex ids must be integers, got dtype {pairs.dtype}")
        pairs = pairs.astype(np.int64).reshape(-1, 2)
        bad = ((pairs < 0) | (pairs >= n)).any(axis=1) | (pairs[:, 0] == pairs[:, 1])
        if bad.any():
            i, j = pairs[bad.argmax()].tolist()  # the first bad edge
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"vertex id out of range: ({i}, {j}) with n={n}")
            raise ValueError(f"self-loop at vertex {i}")
        return _edge_graph(n, pairs[:, 0], pairs[:, 1])

    @property
    def n(self) -> int:
        return self._adj.shape[0]

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean adjacency matrix."""
        return self._adj

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self._adj[i, j])

    def neighbors(self, i: int) -> np.ndarray:
        return np.flatnonzero(self._adj[i])

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (i, j) with i < j, lexicographically sorted."""
        rows, cols = np.divmod(self.edge_index, self.n)
        upper = rows < cols
        return list(zip(rows[upper].tolist(), cols[upper].tolist()))

    @property
    def edge_index(self) -> np.ndarray:
        """Read-only sorted int64 flat positions i*n + j of the nonzero
        adjacency entries (each edge twice, once per orientation); built on
        first use and cached."""
        if self._edge_index is None:
            flat = np.flatnonzero(self._adj)
            flat.flags.writeable = False
            self._edge_index = flat
        return self._edge_index

    def csr(self) -> sp.csr_array:
        """Float64 CSR view (sorted neighbor lists) for sparse products, built
        on first use from `edge_index` and cached."""
        if self._csr is None:
            # The same arrays and dtypes as csr_array(adj.astype(float64)),
            # read off the edge index without a dense float copy.
            n = self.n
            flat = self.edge_index
            indptr = np.searchsorted(flat, np.arange(0, n * n + 1, n)).astype(np.int32)
            indices = (flat % n).astype(np.int32)
            self._csr = sp.csr_array((np.ones(flat.size), indices, indptr), shape=(n, n))
        return self._csr

    def degree_sequence(self) -> np.ndarray:
        return self._adj.sum(axis=1).astype(np.int64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._adj, other._adj)

    def __hash__(self) -> int:
        return hash((self.n, self._adj.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


class Permutation:
    """Bijection on {0..n-1}, stored as the image array `map`."""

    __slots__ = ("_map",)

    def __init__(self, mapping: Iterable[int]):
        arr = np.asarray(mapping if isinstance(mapping, np.ndarray) else list(mapping))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("permutation must be a non-empty 1-D sequence")
        if arr.dtype.kind not in "iu":
            raise ValueError(f"permutation entries must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64)
        n = arr.size
        if not np.array_equal(np.sort(arr), np.arange(n)):
            raise ValueError("not a bijection on 0..n-1")
        arr.flags.writeable = False
        self._map = arr

    @classmethod
    def _trusted(cls, mapping: "np.ndarray | list[int]") -> "Permutation":
        """Wrap a bijection on 0..n-1 the package has just built, without the
        dtype and bijection checks; an int64 array is taken over, not copied."""
        arr = np.asarray(mapping, dtype=np.int64)
        arr.flags.writeable = False
        perm = cls.__new__(cls)
        perm._map = arr
        return perm

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))

    @property
    def map(self) -> np.ndarray:
        return self._map

    def __len__(self) -> int:
        return self._map.size

    def __call__(self, i: int) -> int:
        return int(self._map[i])

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self._map)
        inv[self._map] = np.arange(self._map.size)
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if len(self) != len(other):
            raise ValueError("size mismatch")
        return Permutation(self._map[other._map])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self._map, other._map)

    def __hash__(self) -> int:
        return hash(self._map.tobytes())

    def __repr__(self) -> str:
        return f"Permutation({self._map.tolist()})"


def _check_probability(value: float, name: str) -> float:
    value = float(value)
    if not (0.0 <= value <= 1.0) or np.isnan(value):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def _upper_mask(n: int) -> np.ndarray:
    """Boolean mask of the strict upper triangle. Boolean indexing visits it
    in row-major order, the order of np.triu_indices(n, k=1), so each pair
    {i<j} takes the same position in a stream of draws."""
    idx = np.arange(n)
    return idx[:, None] < idx


def generate_er(n: int, p: float, seed: RngSeed | int) -> Graph:
    """Erdős–Rényi G(n, p): each unordered pair is an edge with probability p."""
    if n < 1:
        raise ValueError("n must be at least 1")
    p = _check_probability(p, "p")
    rng = _stream(seed)
    adj = np.zeros((n, n), dtype=bool)
    adj[_upper_mask(n)] = rng.random(n * (n - 1) // 2) < p
    adj |= adj.T
    return Graph._trusted(adj)


def apply_noise(g: Graph, lam: float, seed: RngSeed | int) -> Graph:
    """Flip each unordered pair's edge indicator independently with probability lam.

    The flip mask is sampled on i<j and mirrored, with a zero diagonal, so the
    result is again a simple graph.
    """
    lam = _check_probability(lam, "lambda")
    rng = _stream(seed)
    n = g.n
    flips = np.zeros((n, n), dtype=bool)
    flips[_upper_mask(n)] = rng.random(n * (n - 1) // 2) < lam
    flips |= flips.T
    return Graph._trusted(g.adjacency ^ flips)


def permute(g: Graph, perm: Permutation) -> Graph:
    """Relabel vertices: result.adjacency[perm(i), perm(j)] = g.adjacency[i, j]."""
    if len(perm) != g.n:
        raise ValueError(f"permutation length {len(perm)} != vertex count {g.n}")
    adj = np.zeros_like(g.adjacency)
    idx = perm.map
    adj[idx[:, None], idx] = g.adjacency
    return Graph._trusted(adj)


def random_permutation(n: int, seed: RngSeed | int) -> Permutation:
    """Uniform random permutation (Fisher–Yates), deterministic given seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = _stream(seed)
    return Permutation._trusted(rng.permutation(n))


def matched_edges(g1: Graph, g2: Graph, perm: Permutation) -> int:
    """Number of unordered pairs {i,j} that are edges in g1 and map to edges in g2."""
    if g1.n != g2.n or len(perm) != g1.n:
        raise ValueError("graphs and permutation must share one vertex count")
    # Each edge (r, c) of g1 appears in both orientations in its edge index;
    # look up (perm(r), perm(c)) in g2's flattened adjacency and halve.
    n = g1.n
    rows, cols = np.divmod(g1.edge_index, n)
    idx = perm.map
    return int(np.count_nonzero(g2.adjacency.reshape(-1)[idx[rows] * n + idx[cols]])) // 2


def _edge_graph(n: int, rows, cols) -> Graph:
    """The graph on n vertices with the edges (rows[k], cols[k]), from index
    sequences already checked in range and loop-free; repeats collapse."""
    adj = np.zeros((n, n), dtype=bool)
    adj[rows, cols] = True
    adj[cols, rows] = True
    return Graph._trusted(adj)


def parse_edge_list(text: str | IO[str]) -> Graph:
    """Parse the edge-list text format documented in the module docstring."""
    stream = io.StringIO(text) if isinstance(text, str) else text
    n: int | None = None
    rows: list[int] = []
    cols: list[int] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ValueError(f"line {lineno}: expected header 'n <count>', got {line!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            if n < 1:
                raise ValueError(f"line {lineno}: vertex count must be positive")
            if n > MAX_EDGE_LIST_VERTICES:
                raise ValueError(f"line {lineno}: vertex count {n} exceeds the limit of "
                                 f"{MAX_EDGE_LIST_VERTICES}")
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'i j', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        if i == j:
            raise ValueError(f"line {lineno}: self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"line {lineno}: vertex id out of range 0..{n - 1}")
        rows.append(i)
        cols.append(j)
    if n is None:
        raise ValueError("missing 'n <count>' header line")
    return _edge_graph(n, rows, cols)


def format_edge_list(g: Graph) -> str:
    """Emit the edge-list format; edges sorted lexicographically."""
    lines = [f"n {g.n}"]
    lines.extend(f"{i} {j}" for i, j in g.edges())
    return "\n".join(lines) + "\n"
