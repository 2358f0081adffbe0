"""Pairwise-correspondence scoring operator and its dense oracle.

The operator scores every pair of candidate vertex correspondences
((i, j'), (r, s')) with s1 when (i, r) and (j', s') are both edges, s2 when
neither is, and s3 otherwise. It acts on length-n² vectors indexed by
i*n + j' (row: first-graph vertex, column: second-graph vertex) and is never
materialized as an n² x n² matrix. With J the all-ones n x n matrix,

    A = (s1 + s2 - 2 s3) G1⊗G2 + (s3 - s2) (G1⊗J + J⊗G2) + s2 J⊗J,

and `apply` computes A v in one of two ways, chosen once per operator:

- Sparse: U = k G1 V G2 + (s3 - s2) (G1 V J + J V G2) + s2 J V J with
  k = s1 + s2 - 2 s3, i.e. two sparse congruence products plus rank-one
  corrections, O(n * (e1 + e2) + n^2) per apply.
- Dense factored: completing the square in the Kronecker factors,
  A = k M1⊗M2 + d 11^T with M_i = G_i + c J. Expanding k M1⊗M2 gives
  k G1⊗G2 + k c (G1⊗J + J⊗G2) + k c² J⊗J, so matching terms gives
  c = (s3 - s2) / k and d = s2 - (s3 - s2)² / k = (s1 s2 - s3²) / k, which
  is positive because s1, s2 > s3 > 0. Then U = (k M1) V M2 + d * sum(V):
  two n x n GEMMs and a sum, O(n^3) per apply. k M1 and M2 are built on
  the first dense apply and kept.

`apply` takes the dense product for n <= `DENSE_MAX_N` and the sparse one
above, whatever the fill. The bound is the largest n that a benchmark
workload runs (the reduced sweep, n <= 50). Measured per apply (2-core Xeon,
AVX-512 OpenBLAS), sparse time over dense time is 2.2-3.0 at n <= 50 at
every fill (nnz1 + nnz2) / n², and the `match` path at n = 600, p = 0.0125
is no faster dense (22.5 vs 21.0 ms). At n <= 50 the two GEMMs take the
same time with one or two OpenBLAS threads (OpenBLAS keeps a GEMM this
small on one thread), so the CLI's default BLAS threads do not move that
crossover. Between those sizes the ratio depends on n and the
fill (0.9-1.1 at n = 100 and fill <= 0.05, 0.5-0.8 at n >= 250 and fill
0.02, above 1 again at fill 0.2), and no workload measures it end to end
yet. The two products agree to rounding (~2e-16 relative) but not bit for
bit, and the dense one's last bits depend on the BLAS build and its
kernels; on tie-heavy inputs that can move an eigenvector's rounding to a
permutation.

For the 0/1 vectorization of a permutation pi, G1 V G2 = G1 @ G2[pi] and the
row and column sums of V are all ones, so `permutation_product` needs one
sparse-dense product with an integer-valued result (it always takes that
exact sparse route). The objective y^T A y of a permutation has a closed
form in its matched-edge count (`permutation_objective`, `quadratic_form`).
`dense_alignment_matrix` builds the full n² x n² matrix entry by entry from
the scoring rule alone and exists purely as a verification oracle for small
n.

Every sparse product goes through `_csr_product`, which calls scipy's
compiled CSR kernels (`csr_matvec`, `csr_matvecs`) on the arrays that
`Graph.csr()` caches. They are the kernels `csr_array @ dense` ends in, so
every float is the same; at n <= 50 the Python dispatch in front of them
costs more than the kernel itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

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

DEFAULT_EPSILON = 0.001
DENSE_ORACLE_CAP = 12
# `apply` takes the dense factored product up to DENSE_MAX_N vertices (see
# the module docstring).
DENSE_MAX_N = 50


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
    if g1.n != g2.n:
        raise ValueError(f"graphs differ in size: {g1.n} vs {g2.n}")
    n2 = g1.n * g1.n
    e1 = 2 * g1.edge_count  # ordered pairs
    e2 = 2 * g2.edge_count
    matches = e1 * e2
    mismatches = e1 * (n2 - e2) + (n2 - e1) * e2
    if mismatches == 0:
        raise DegenerateBalanceError(
            "match/mismatch balance is degenerate (both graphs are empty)")
    return 1.0 + matches / mismatches


def _csr_product(a: sp.csr_array, x: np.ndarray) -> np.ndarray:
    """`a @ x` for a float64 CSR matrix and a float64 vector or matrix.

    This bypasses the public `@` on purpose: at n <= 50 scipy's dispatch
    (`_matmul_dispatch`, then `_matmul_vector` or `_matmul_multivector`)
    costs more than the compiled kernel it ends in. The call below is that
    kernel call, with the same zero-filled output and the same C-order
    operand, so the sums run in the same order; the tests pin this function
    to the public `@` bit for bit.
    """
    m, k = a.shape
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape[0] != k:  # the kernel would read past the end of x
        raise ValueError(f"operand has {x.shape[0]} rows, the matrix {k} columns")
    if x.ndim == 1:
        out = np.zeros(m)
        _sparsetools.csr_matvec(m, k, a.indptr, a.indices, a.data, x, out)
    else:
        out = np.zeros((m, x.shape[1]))
        _sparsetools.csr_matvecs(m, k, x.shape[1], a.indptr, a.indices, a.data,
                                 x.ravel(), out.ravel())
    return out


class AlignmentOperator:
    """Matrix-free symmetric positive operator on length-n² vectors.

    Immutable after construction (the dense factors are built on first use);
    `apply` and `permutation_product` are pure functions and safe to call
    concurrently. `apply` takes the dense product iff n <= `DENSE_MAX_N`.
    """

    def __init__(self, g1: Graph, g2: Graph, params: ScoringParams):
        if g1.n != g2.n:
            raise ValueError(f"graphs differ in size: {g1.n} vs {g2.n}")
        self.g1 = g1
        self.g2 = g2
        self.params = params
        self.n = g1.n
        self.dim = g1.n * g1.n
        self._a1 = g1.csr()
        self._a2 = g2.csr()
        p = params
        self._k_quad = p.s1 + p.s2 - 2.0 * p.s3
        self._k_lin = p.s3 - p.s2
        self._dense = self.n <= DENSE_MAX_N

    # Built on first use, so only `permutation_product` callers pay for them.
    @cached_property
    def _dense2(self) -> np.ndarray:
        return self.g2.adjacency.astype(np.float64)

    @cached_property
    def _degree_term(self) -> np.ndarray:
        deg1 = self.g1.degree_sequence().astype(np.float64)
        deg2 = self.g2.degree_sequence().astype(np.float64)
        return self._k_lin * (deg1[:, None] + deg2[None, :])

    # Built on the first dense `apply`: (k M1, M2, d) with M_i = G_i + c J.
    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, float]:
        k = self._k_quad
        c = self._k_lin / k
        d = self.params.s2 - self._k_lin ** 2 / k
        return k * (self.g1.adjacency + c), self.g2.adjacency + c, d

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Operator-vector product without materializing the matrix, by the
        dense factored product for n <= `DENSE_MAX_N`, else the sparse one."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"vector must have length {self.dim}, got shape {v.shape}")
        # C order first, so strided and contiguous inputs give the same bytes.
        V = np.ascontiguousarray(v).reshape(self.n, self.n)
        U = self._dense_product(V) if self._dense else self._sparse_product(V)
        return U.reshape(self.dim)

    def _dense_product(self, V: np.ndarray) -> np.ndarray:
        """A v as the n x n matrix (k M1) V M2 + d * sum(V)."""
        m1, m2, d = self._factors
        U = m1 @ V @ m2
        U += d * V.sum()
        return U

    def _sparse_product(self, V: np.ndarray) -> np.ndarray:
        """A v as an n x n matrix from sparse products and rank-one terms."""
        # Quadratic term: G1 V G2 via two sparse-dense products; V G2 is taken
        # as (G2 (G1 V)^T)^T since G2 is symmetric, which adds the same terms
        # in the same order without transposing G2 on every call. U is built
        # in C order so the final reshape is a view. Y lives until return on
        # purpose: deleting it right after use made glibc hand the heap top
        # back and fault it in again on the next call (n = 600: 2.8k minor
        # page faults per `top_eigenvector` call became 19k).
        Y = _csr_product(self._a2, _csr_product(self._a1, V).T)
        U = np.multiply(Y.T, self._k_quad, order="C")
        # Rank-one corrections: G1 V J has constant rows G1 @ rowsums(V),
        # J V G2 constant columns G2 @ colsums(V) (G2 symmetric).
        row = _csr_product(self._a1, V.sum(axis=1))
        col = _csr_product(self._a2, V.sum(axis=0))
        U += self._k_lin * (row[:, None] + col[None, :])
        U += self.params.s2 * V.sum()
        return U

    def permutation_product(self, perm: Permutation) -> np.ndarray:
        """The sparse product of `permutation_vector(n, perm)` as an n x n
        matrix, bit for bit, whichever product `apply` takes.

        G1 V G2 = G1 @ G2[perm] holds integer counts, so one sparse-dense
        product gives exactly what the sparse product computes in two; the
        degree and constant terms then follow in its order of operations.
        """
        if len(perm) != self.n:
            raise ValueError(f"permutation length {len(perm)} != operator size {self.n}")
        U = self._k_quad * _csr_product(self._a1, self._dense2[perm.map])
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


def permutation_vector(n: int, perm: Permutation) -> np.ndarray:
    """0/1 vectorization of the permutation matrix: y[i*n + perm(i)] = 1."""
    y = np.zeros(n * n, dtype=np.float64)
    y[np.arange(n) * n + perm.map] = 1.0
    return y


def dense_alignment_matrix(g1: Graph, g2: Graph, params: ScoringParams,
                           max_n: int = DENSE_ORACLE_CAP) -> np.ndarray:
    """Explicit n² x n² scoring matrix, built entry by entry from the rule.

    Verification oracle only: O(n^4) memory. Kept independent of the
    operator's decomposition on purpose.
    """
    if g1.n != g2.n:
        raise ValueError(f"graphs differ in size: {g1.n} vs {g2.n}")
    n = g1.n
    if n > max_n:
        raise ValueError(f"dense oracle capped at n={max_n}, got n={n}")
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
