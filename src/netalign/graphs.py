"""Simple undirected graphs, permutations, and seeded random generators.

Graphs are stored as a read-only boolean adjacency matrix (O(1) membership);
`Graph(...)` is the one place adjacency input is coerced and checked. Views
of it are cached. The edge index (`Graph.edge_index`) holds the sorted flat
positions i*n + j of the nonzero entries. A graph built from edge pairs
(`parse_edge_list`, `Graph.from_edges`) gets it from the pairs; any other
finds it in the matrix on first use. The sparse view is read off the edge
index on first use, with no n² pass, and cached: the float64 CSR arrays
(row starts, column indices, ones) on which the alignment operator's
sparse products call scipy's kernels directly, and the upper-triangle pairs
(i < j, one per edge) that `matched_edges` gathers from in O(e). Building
the CSR arrays sets the pairs too; `matched_edges` on a graph without them
builds the pairs alone. `Graph.csr()` wraps the CSR arrays in a scipy
matrix for callers that want one; nothing in the package does.

All randomness flows through :class:`RngSeed`, which keys a counter-based
Philox generator, so every stream here is bit-reproducible across runs and
platforms for equal seeds; the draw functions reset one generator per
thread (`_stream`).

Edge-list text format, in which a comment takes a whole line and the count
and ids are ASCII digits::

    n <vertex_count>
    # one 0-indexed edge "i j" per line, either orientation
    i j
    # comment lines and blank lines are ignored

Repeated edges, in either orientation, collapse; self-loops are rejected.
The graph is stored dense, so a vertex count above `MAX_EDGE_LIST_VERTICES`
is rejected before anything is allocated.
"""

from __future__ import annotations

import io
import numbers
import re
import threading
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp
    from numpy.random import Generator

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


def _is_number(value, kind: type) -> bool:
    """`value` is an instance of the numeric ABC `kind` and not a bool."""
    return isinstance(value, kind) and not isinstance(value, (bool, np.bool_))


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
        # numpy.random loads here, on the first draw, not with the package.
        from numpy.random import Generator, Philox

        key = np.array([self.base_seed, self.stream_id], dtype=np.uint64)
        return Generator(Philox(key=key))


# Holds each thread's generator for `_stream`.
_local = threading.local()


def _stream(seed: "RngSeed | int") -> Generator:
    """This thread's generator, reset to the start of `seed`'s stream.

    It draws what `seed.generator()` would draw: the state set here (counter
    0, an empty buffer, no half-used 32-bit word) is the one a new
    Philox(key=...) starts from, at a small fraction of the cost of building
    a generator. Valid until the thread's next call; an int k is RngSeed(k).
    """
    if not isinstance(seed, RngSeed):
        seed = RngSeed(int(seed))
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

    __slots__ = ("_adj", "_edge_count", "_edge_index", "_csr", "_upper", "_hash")

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
    def _trusted(cls, adj: np.ndarray, edge_index: np.ndarray | None = None) -> "Graph":
        """Wrap a fresh square boolean adjacency that is already symmetric and
        hollow, without the checks or the copy; the array is taken over, and
        so is `edge_index`, when given, which must be its edge index."""
        g = cls.__new__(cls)
        g._set(adj, edge_index)
        return g

    def _set(self, adj: np.ndarray, edge_index: np.ndarray | None = None) -> None:
        adj.flags.writeable = False
        self._adj = adj
        if edge_index is None:
            self._edge_count = int(np.count_nonzero(adj)) // 2
        else:
            edge_index.flags.writeable = False
            self._edge_count = edge_index.size // 2
        self._edge_index = edge_index
        self._csr = self._upper = None
        self._hash = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _check_vertex_count(n)
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
        # Not cached, so formatting a graph keeps nothing.
        rows, cols = _upper(*np.divmod(self.edge_index, self.n))
        return list(zip(rows.tolist(), cols.tolist()))

    @property
    def edge_index(self) -> np.ndarray:
        """Read-only sorted int64 flat positions i*n + j of the nonzero
        adjacency entries (each edge twice, once per orientation); set from
        the edge pairs for a graph built from them, else found on first use,
        and cached."""
        if self._edge_index is None:
            flat = np.flatnonzero(self._adj)
            flat.flags.writeable = False
            self._edge_index = flat
        return self._edge_index

    def _csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (indptr, indices, data) of the float64 CSR form with
        sorted neighbor lists: int32 row starts and column indices and a
        vector of ones, the arrays of csr_array(adjacency.astype(float64)).
        Read off `edge_index` on first use and cached, and the upper-triangle
        pairs with them from the same split."""
        if self._csr is None:
            n = self.n
            rows, cols = np.divmod(self.edge_index, n)
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
            self._csr = _frozen(indptr, cols.astype(np.int32), np.ones(cols.size))
            if self._upper is None:
                self._upper = _upper(rows, cols)
        return self._csr

    def _upper_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only int64 (rows, cols) of the edges as pairs i < j, in the
        order of `edges`; read off `edge_index` on first use and cached."""
        if self._upper is None:
            self._upper = _upper(*np.divmod(self.edge_index, self.n))
        return self._upper

    def csr(self) -> sp.csr_array:
        """Float64 CSR matrix (sorted neighbor lists) on the read-only cached
        arrays of `_csr_arrays`, wrapped anew on each call."""
        import scipy.sparse as sp  # the package's only scipy matrix

        indptr, indices, data = self._csr_arrays()
        return sp.csr_array((data, indices, indptr), shape=(self.n, self.n))

    def degree_sequence(self) -> np.ndarray:
        return self._adj.sum(axis=1).astype(np.int64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._adj, other._adj)

    def __hash__(self) -> int:
        # Kept: the adjacency never changes. A pickle carries only the
        # adjacency, since bytes hash differently in another process.
        if self._hash is None:
            self._hash = hash((self.n, self._adj.tobytes()))
        return self._hash

    def __reduce__(self):
        return Graph._trusted, (self._adj,)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """`arrays`, each made read-only."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _upper(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The read-only entries with rows[k] < cols[k] of a split edge index."""
    upper = (rows < cols).nonzero()[0]
    return _frozen(rows.take(upper), cols.take(upper))


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


def _check_vertex_count(n: int) -> None:
    """A vertex count is an integer (a numpy one too, not a bool) of at least 1."""
    if not (_is_number(n, numbers.Integral) and n >= 1):
        raise ValueError(f"n must be an integer of at least 1, got {n!r}")


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
    _check_vertex_count(n)
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
    _check_vertex_count(n)
    rng = _stream(seed)
    return Permutation._trusted(rng.permutation(n))


def matched_edges(g1: Graph, g2: Graph, perm: Permutation) -> int:
    """Number of unordered pairs {i,j} that are edges in g1 and map to edges in g2."""
    if g1.n != g2.n or len(perm) != g1.n:
        raise ValueError("graphs and permutation must share one vertex count")
    # Look up (perm(r), perm(c)) for each edge r < c of g1 in g2's flattened
    # adjacency: two e-entry int64 temporaries, formed in place.
    rows, cols = g1._upper_pairs()
    idx = perm.map
    flat = idx[rows]
    flat *= g1.n
    flat += idx[cols]
    return int(np.count_nonzero(g2.adjacency.reshape(-1)[flat]))


def _edge_graph(n: int, rows, cols) -> Graph:
    """The graph on n vertices with the edges (rows[k], cols[k]), from index
    sequences already checked in range and loop-free; repeats collapse. Its
    edge index is set from the pairs, not found by a pass over n² entries."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    adj = np.zeros((n, n), dtype=bool)
    adj[rows, cols] = True
    adj[cols, rows] = True
    flat = np.concatenate((rows * n + cols, cols * n + rows))
    flat.sort()
    return Graph._trusted(adj, flat[np.diff(flat, prepend=-1) != 0])


# `_parse_whole` reads only a header on line 1, then lines that are blank or
# hold two ASCII-digit ids of at most 9 digits (int64 holds them) between
# spaces and tabs, "\r" allowed before "\n". One search finds any other line;
# its first branch, the usual line, is the one the regex engine runs fastest.
_HEADER = re.compile(r"[ \t]*n[ \t]+([0-9]{1,9})[ \t]*\r?(?=\n|\Z)")
_ODD_LINE = re.compile(r"\n(?![0-9]{1,9}[ \t]+[0-9]{1,9}\r?\n"
                       r"|[ \t]*(?:[0-9]{1,9}[ \t]+[0-9]{1,9}[ \t]*)?\r?(?:\n|\Z))")


def parse_edge_list(text: str | IO[str]) -> Graph:
    """Parse the edge-list text format documented in the module docstring.
    A plain text is read in a few whole-text passes, any other by the loop
    that defines the format and gives each error its line number."""
    if isinstance(text, str):
        lines, graph = io.StringIO(text), _parse_whole(text)
    else:
        lines = list(text)
        whole = "".join(lines)
        # `_parse_whole` splits at "\n": skip it for a stream split elsewhere.
        graph = _parse_whole(whole) if lines == whole.splitlines(True) else None
    return graph if graph is not None else _parse_lines(lines)


def _parse_whole(text: str) -> Graph | None:
    """The graph of a plain text with ids in range and no self-loop, else None
    (the loop then reports the error); never raises."""
    head = _HEADER.match(text)
    n = int(head[1]) if head else 0
    if not 1 <= n <= MAX_EDGE_LIST_VERTICES:
        return None
    body = text[head.end():]
    if _ODD_LINE.search(body):
        return None
    ids = np.fromstring(body, dtype=np.int64, sep=" ")
    # fromstring reads blank text as [0]: ask for one id per run of digits,
    # the body's only bytes at or above "0" (it starts with "\n").
    digit = np.frombuffer(body.encode("ascii"), dtype=np.uint8) >= ord("0")
    runs = np.count_nonzero(digit[1:] > digit[:-1])
    rows, cols = ids[0::2], ids[1::2]
    if ids.size != runs or (ids >= n).any() or (rows == cols).any():
        return None
    return _edge_graph(n, rows, cols)


def _parse_lines(lines: Iterable[str]) -> Graph:
    n: int | None = None
    rows: list[int] = []
    cols: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ValueError(f"line {lineno}: expected header 'n <count>', got {line!r}")
            if not _is_digits(parts[1]):
                raise ValueError(f"line {lineno}: bad vertex count {parts[1]!r}")
            n = int(parts[1])
            if n < 1:
                raise ValueError(f"line {lineno}: vertex count must be positive")
            if n > MAX_EDGE_LIST_VERTICES:
                raise ValueError(f"line {lineno}: vertex count {n} exceeds the limit of "
                                 f"{MAX_EDGE_LIST_VERTICES}")
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'i j', got {line!r}")
        if not (_is_digits(parts[0]) and _is_digits(parts[1])):
            raise ValueError(f"line {lineno}: non-integer vertex id in {line!r}")
        i, j = int(parts[0]), int(parts[1])
        if i == j:
            raise ValueError(f"line {lineno}: self-loop at vertex {i}")
        if not (i < n and j < n):
            raise ValueError(f"line {lineno}: vertex id out of range 0..{n - 1}")
        rows.append(i)
        cols.append(j)
    if n is None:
        raise ValueError("missing 'n <count>' header line")
    return _edge_graph(n, rows, cols)


def _is_digits(token: str) -> bool:
    """ASCII digits only: `int` also reads "+3", "1_0" and other scripts' digits."""
    return token.isascii() and token.isdigit()


def format_edge_list(g: Graph) -> str:
    """Emit the edge-list format; edges sorted lexicographically."""
    lines = [f"n {g.n}"]
    lines.extend(f"{i} {j}" for i, j in g.edges())
    return "\n".join(lines) + "\n"
