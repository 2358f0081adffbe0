"""Pairwise-correspondence scoring operator and its dense oracle.

The operator scores every pair of candidate vertex correspondences
((i, j'), (r, s')) with s1 when (i, r) and (j', s') are both edges, s2 when
neither is, and s3 otherwise. It acts on length-n² vectors indexed by
i*n + j' (row: first-graph vertex, column: second-graph vertex) and is never
materialized as an n² x n² matrix. With J the all-ones n x n matrix,

    A = (s1 + s2 - 2 s3) G1⊗G2 + (s3 - s2) (G1⊗J + J⊗G2) + s2 J⊗J,

and `apply` computes A v in factored form. Completing the square in the
Kronecker factors, A = k M1⊗M2 + d 11^T with M_i = G_i + c J and
k = s1 + s2 - 2 s3. Expanding k M1⊗M2 gives
k G1⊗G2 + k c (G1⊗J + J⊗G2) + k c² J⊗J, so matching terms gives
c = (s3 - s2) / k and d = s2 - (s3 - s2)² / k = (s1 s2 - s3²) / k, which is
positive because s1, s2 > s3 > 0. Then U = (k M1) V M2 + d * sum(V): two
n x n GEMMs and a sum, O(n^3) per apply. k M1 and M2 are built on the first
`apply` and kept. The last bits of U depend on the BLAS build and its
kernels; on tie-heavy inputs that can move an eigenvector's rounding to a
permutation.

Power iteration (`spectral.top_eigenvector`) takes `apply`'s product from a
custom start and at n <= `spectral.DENSE_MAX_N`; above that bound, from the
uniform start, it iterates on Krylov bases of G1 and G2 (`kronecker_scalars`).

For the 0/1 vectorization of a permutation pi, G1 V G2 = G1 @ G2[pi] and the
row and column sums of V are all ones, so `permutation_product` needs one
sparse-dense product with an integer-valued result. The objective y^T A y of
a permutation has a closed form in its matched-edge count
(`permutation_objective`, `quadratic_form`). `dense_alignment_matrix`, a
verification oracle for small n, builds the n² x n² matrix entry by entry.

Every sparse product goes through `_csr_product`: scipy's compiled CSR
kernels called on the graph's own cached CSR arrays, with no scipy matrix
built. The kernels' module `scipy.sparse._sparsetools` is loaded from its
extension file without `scipy.sparse`'s `__init__` (`_kernels`); it is
`_sparsetools` here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import extension_module
from .graphs import Graph, Permutation, matched_edges

__all__ = [
    "ScoringParams",
    "AlignmentOperator",
    "DegenerateBalanceError",
    "compute_alpha",
    "make_params",
    "permutation_objective",
    "dense_alignment_matrix",
    "quadratic_form",
]

_sparsetools = extension_module("scipy.sparse._sparsetools")

DEFAULT_EPSILON = 0.001
DENSE_ORACLE_CAP = 12


class DegenerateBalanceError(ValueError):
    """Raised when the match/mismatch balance ratio is 0/0 (both graphs empty)."""


@dataclass(frozen=True)
class ScoringParams:
    """Scores (s1, s2, s3) = (alpha + eps, 1 + eps, eps) for edge match /
    non-edge match / mismatch, all positive so the operator is entrywise
    positive and plain power iteration finds its dominant eigenvector."""

    s1: float
    s2: float
    s3: float
    epsilon: float
    alpha: float

    def __post_init__(self) -> None:
        if not (self.s1 > 0 and self.s2 > 0 and self.s3 > 0):
            raise ValueError("all scores must be positive")
        if not (self.s1 > self.s3 and self.s2 > self.s3):
            raise ValueError("match scores must exceed the mismatch score")


def _check_same_size(g1: Graph, g2: Graph) -> None:
    """The one size check of a graph pair, for every entry point that scores it."""
    if g1.n != g2.n:
        raise ValueError(f"graphs must have the same vertex count, got {g1.n} and {g2.n}")


def make_params(alpha: float, epsilon: float = DEFAULT_EPSILON) -> ScoringParams:
    """Build scoring parameters from the balance ratio alpha and regularizer epsilon."""
    alpha = float(alpha)
    epsilon = float(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return ScoringParams(s1=alpha + epsilon, s2=1.0 + epsilon, s3=epsilon,
                         epsilon=epsilon, alpha=alpha)


def compute_alpha(g1: Graph, g2: Graph) -> float:
    """Balance ratio 1 + #matches/#mismatches over all n² x n² ordered pair-pairs.

    The counting universe is every ordered vertex pair of each graph,
    diagonal included (classified as non-edges), so the counts are literally
    the numbers of s1- and s3-entries of the operator.
    """
    _check_same_size(g1, g2)
    n2 = g1.n * g1.n
    e1 = 2 * g1.edge_count  # ordered pairs
    e2 = 2 * g2.edge_count
    matches = e1 * e2
    mismatches = e1 * (n2 - e2) + (n2 - e1) * e2
    if mismatches == 0:
        raise DegenerateBalanceError(
            "match/mismatch balance is degenerate (both graphs are empty)")
    return 1.0 + matches / mismatches


def _csr_product(graph: Graph, x: np.ndarray) -> np.ndarray:
    """`graph.csr() @ x` for a float64 vector or matrix x.

    The kernel runs on the graph's cached CSR arrays, so no scipy matrix is
    built, and scipy's dispatch (`_matmul_dispatch`, then
    `_matmul_vector` or `_matmul_multivector`), which at n <= 50 costs more
    than the kernel, is skipped. The call below is the kernel call that
    dispatch ends in, with the same zero-filled output and the same C-order
    operand, so the sums run in the same order; the tests pin this function
    to the public `@` bit for bit.
    """
    n = graph.n
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape[0] != n:  # the kernel would read past the end of x
        raise ValueError(f"operand has {x.shape[0]} rows, the matrix {n} columns")
    indptr, indices, data = graph._csr_arrays()
    if x.ndim == 1:
        out = np.zeros(n)
        _sparsetools.csr_matvec(n, n, indptr, indices, data, x, out)
    else:
        out = np.zeros((n, x.shape[1]))
        _sparsetools.csr_matvecs(n, n, x.shape[1], indptr, indices, data,
                                 x.ravel(), out.ravel())
    return out


class AlignmentOperator:
    """Matrix-free symmetric positive operator on length-n² vectors.

    Immutable after construction (the dense factors are built on first use);
    `apply` and `permutation_product` are pure functions and safe to call
    concurrently.
    """

    def __init__(self, g1: Graph, g2: Graph, params: ScoringParams):
        _check_same_size(g1, g2)
        self.g1 = g1
        self.g2 = g2
        self.params = params
        self.n = g1.n
        self.dim = g1.n * g1.n
        p = params
        self._k_quad = p.s1 + p.s2 - 2.0 * p.s3
        self._k_lin = p.s3 - p.s2

    # Built on first use, so only `permutation_product` callers pay for them.
    @cached_property
    def _dense2(self) -> np.ndarray:
        return self.g2.adjacency.astype(np.float64)

    @cached_property
    def _degree_term(self) -> np.ndarray:
        deg1 = self.g1.degree_sequence().astype(np.float64)
        deg2 = self.g2.degree_sequence().astype(np.float64)
        return self._k_lin * (deg1[:, None] + deg2[None, :])

    @property
    def kronecker_scalars(self) -> tuple[float, float, float]:
        """(k, c, d) of A = k M1⊗M2 + d 11^T with M_i = G_i + c J."""
        k = self._k_quad
        return k, self._k_lin / k, self.params.s2 - self._k_lin ** 2 / k

    # Built on the first `apply`: (k M1, M2, d) with M_i = G_i + c J.
    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, float]:
        k, c, d = self.kronecker_scalars
        return k * (self.g1.adjacency + c), self.g2.adjacency + c, d

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Operator-vector product without materializing the matrix: A v as
        the n x n matrix (k M1) V M2 + d * sum(V), flattened."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"vector must have length {self.dim}, got shape {v.shape}")
        # C order first, so strided and contiguous inputs give the same bytes.
        return self._product()(np.ascontiguousarray(v))

    def _product(self):
        """`apply` for C-order float64 vectors of length n², without its
        checks and with the factors looked up once, for a loop that calls
        it many times (power iteration)."""
        m1, m2, d = self._factors
        shape, dim = (self.n, self.n), self.dim

        def product(v: np.ndarray) -> np.ndarray:
            V = v.reshape(shape)
            U = m1 @ V @ m2
            U += d * V.sum()
            return U.reshape(dim)
        return product

    def permutation_product(self, perm: Permutation) -> np.ndarray:
        """A y for the 0/1 vector y[i*n + perm(i)] = 1, as an n x n matrix.

        With V the permutation matrix, A y is
        k G1 V G2 + (s3 - s2) (G1 V J + J V G2) + s2 J V J. Here
        G1 V G2 = G1 @ G2[perm] holds integer counts, so one sparse-dense
        product gives it exactly, and the rank-one terms are the degree
        sums and s2 n. It equals `apply(y)` to rounding.
        """
        if len(perm) != self.n:
            raise ValueError(f"permutation length {len(perm)} != operator size {self.n}")
        U = self._k_quad * _csr_product(self.g1, self._dense2[perm.map])
        U += self._degree_term
        U += self.params.s2 * float(self.n)
        return U

    def matched_objective(self, matched: int) -> float:
        """y^T A y of any permutation that matches `matched` edges
        (`permutation_objective` of this operator's scores and graphs)."""
        return permutation_objective(self.params, self.g1.edge_count,
                                     self.g2.edge_count, self.n, matched)


def permutation_objective(params: ScoringParams, e1: int, e2: int, n: int,
                          matched: int) -> float:
    """y^T A y of any permutation of n vertices that matches `matched` edges,
    for graphs with e1 and e2 edges scored by `params`.

    Of the n² entries of A that y selects, 2M are edge matches,
    2e1 + 2e2 - 4M are mismatches and the rest are non-edge matches, so
    the value is strictly increasing in M = `matched` (s1 + s2 > 2 s3).
    """
    p = params
    return (p.s1 * (2 * matched) + p.s3 * (2 * e1 + 2 * e2 - 4 * matched)
            + p.s2 * (n * n - 2 * e1 - 2 * e2 + 2 * matched))


def quadratic_form(op: AlignmentOperator, perm: Permutation) -> float:
    """y^T A y for the 0/1 vectorization y of the permutation matrix, from
    its matched-edge count (`AlignmentOperator.matched_objective`)."""
    return op.matched_objective(matched_edges(op.g1, op.g2, perm))


def dense_alignment_matrix(g1: Graph, g2: Graph, params: ScoringParams) -> np.ndarray:
    """Explicit n² x n² scoring matrix, built entry by entry from the rule.

    Verification oracle only: O(n^4) memory. Kept independent of the
    operator's decomposition on purpose.
    """
    _check_same_size(g1, g2)
    n = g1.n
    if n > DENSE_ORACLE_CAP:
        raise ValueError(f"dense oracle capped at n={DENSE_ORACLE_CAP}, got n={n}")
    s1, s2, s3 = params.s1, params.s2, params.s3
    out = np.empty((n * n, n * n), dtype=np.float64)
    for i in range(n):
        for jp in range(n):
            a = i * n + jp
            for r in range(n):
                for sq in range(n):
                    edge1 = g1.has_edge(i, r)
                    edge2 = g2.has_edge(jp, sq)
                    if edge1 and edge2:
                        score = s1
                    elif not edge1 and not edge2:
                        score = s2
                    else:
                        score = s3
                    out[a, r * n + sq] = score
    return out
