"""Power-method dominant eigenvector of the alignment operator.

The operator is entrywise positive, so its dominant eigenvalue is positive
and simple and the corresponding eigenvector can be taken entrywise positive;
plain power iteration from any positive start therefore converges without a
spectral shift.

One loop (`_power_iteration`) runs the iteration on one of two
representations of the iterate, chosen from the start and from n alone:

- Length-n² vectors through the operator's product (`apply` without its
  checks), for a custom start and for n <= `DENSE_MAX_N` (every sweep cell).
- Kronecker-Krylov coordinates, from the uniform start at n > `DENSE_MAX_N`.
  The operator is A = k M1⊗M2 + d 11^T with M_i = G_i + c J (see
  `operator`), and A (x⊗y) = k (M1 x)⊗(M2 y) + d (1^T x)(1^T y) 1⊗1. So
  from the start 1⊗1 every iterate, as an n x n matrix, is
  V_t = Q1 C_t Q2^T, where Q_i is an orthonormal basis of the Krylov space
  K_{t+1}(M_i, 1) = K_{t+1}(G_i, 1) (M_i and G_i differ by c 11^T) and C_t
  is at most (t+1) x (t+1). With q0 = 1/sqrt(n) the first basis vector and
  each basis grown by one vector, A maps C to
  W = k H1 C H2^T + d n² C00 e0 e0^T, where H_i = Q_i'^T M_i Q_i =
  Q_i'^T G_i Q_i + c n e0 e0^T. Norms, the Rayleigh quotient, the residual
  and the iterate difference are Frobenius quantities of C and W. An
  iteration then costs one sparse matvec per graph and Gram-Schmidt (twice)
  against the basis, O(e + n t), instead of an O(n³) `apply`.
  V is built as an n x n matrix once, at the end. A basis stops
  growing when the new direction is zero to rounding. For a regular or
  empty graph G 1 is a multiple of 1, so its basis keeps one vector, and C
  is rectangular when the two bases differ in size.

Both representations take the same iterates, stopping rule and iteration
counts; their results agree to rounding (~1e-15 relative), not bit for bit.
`DENSE_MAX_N` is the only size switch between them; the operator itself has
one product at every n. Measured on planted pairs (best of 5, one BLAS
thread, 2-core Xeon with AVX-512 OpenBLAS, λ = 0.05), the Krylov loop
against the `apply` loop takes 1.2 vs 112 ms at n = 600, p = 0.0125;
0.78 vs 11.8 ms at n = 250, p = 0.02; 0.58 vs 1.5 ms at n = 120, p = 0.05;
but 0.60 vs 0.38-0.46 ms at n = 60, p = 0.05-0.2. At n = 10-50, p = 0.2
(best of 7, the same host at a lower clock), it takes 0.60-0.85 ms against
0.21-0.36 ms for the `apply` loop, 2-3.7x slower. The bound is the largest n of
the reduced sweep, so at n <= `DENSE_MAX_N` the `apply` loop runs and its
results stay bit for bit those of the earlier code; above it EigenAlign's
bytes are those of the Krylov loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .operator import AlignmentOperator, _csr_product

__all__ = ["EigenResult", "top_eigenvector"]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 1000
# From the uniform start, the `apply` loop runs up to DENSE_MAX_N vertices
# and the Kronecker-Krylov loop above (see the module docstring).
DENSE_MAX_N = 50


@dataclass(frozen=True)
class EigenResult:
    vector: np.ndarray       # unit-norm, entrywise nonnegative, read-only
    value: float             # Rayleigh quotient v^T A v
    iterations: int
    residual: float          # ||A v - value * v||_2 for the returned vector
    converged: bool          # False when the iteration cap was hit

    def __eq__(self, other: object) -> bool:
        """Equal vectors (by value) and equal scalar fields."""
        if not isinstance(other, EigenResult):
            return NotImplemented
        return (np.array_equal(self.vector, other.vector)
                and (self.value, self.iterations, self.residual, self.converged)
                == (other.value, other.iterations, other.residual, other.converged))


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D float64 vector; the same dot product and
    square root np.linalg.norm computes, without its dispatch overhead."""
    return math.sqrt(x @ x)


def top_eigenvector(op: AlignmentOperator,
                    tol: float = DEFAULT_TOL,
                    max_iters: int = DEFAULT_MAX_ITERS,
                    start: np.ndarray | None = None) -> EigenResult:
    """Classical power iteration v <- normalize(A v).

    Stops when either the l2 difference of successive normalized iterates or
    the eigen-residual ||A v - lambda v|| drops below `tol`, or at
    `max_iters` (flagged via `converged=False`, not an error). The default
    start is the uniform positive vector, which has nonzero overlap with the
    dominant eigenvector. From it, above n = `DENSE_MAX_N`, the iteration
    runs in Kronecker-Krylov coordinates (module docstring).

    Both stopping tests are absolute. The iterates have unit norm, but the
    residual scales with the eigenvalue (about s2 n²), so the residual test
    ends a run only when an iterate is already an eigenvector to rounding,
    as the uniform start is for an empty or regular pair. Planted runs end
    on the iterate difference or at the cap.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    if start is None and op.n > DENSE_MAX_N:
        return _krylov_top_eigenvector(op, tol, max_iters)
    dim = op.dim
    if start is None:
        v = np.full(dim, 1.0 / op.n)
    else:
        v = np.asarray(start, dtype=np.float64)
        if v.shape != (dim,):
            raise ValueError(f"start vector must have length {dim}, got shape {v.shape}")
        norm = np.linalg.norm(v)
        if norm == 0 or not np.isfinite(norm):
            raise ValueError("start vector must have nonzero finite norm")
        v = v / norm
    product = op._product()
    return _result(*_power_iteration(lambda x: (x, product(x)), v, tol, max_iters))


def _power_iteration(product, v, tol, max_iters):
    """The power loop on any coordinates of the iterate, as 1-D vectors.

    `product(v)` returns (v', w): w = A v, and v' the iterate v in the
    coordinates of w (v itself where they are fixed). Returns
    (v, value, iterations, residual, converged) for the returned iterate.
    """
    # w - value * v and v_next - v, each needed only for its norm; norms are
    # `_norm`'s sqrt(x @ x), inlined.
    scratch = np.empty(0)
    converged = last = False
    iterations = 0
    while True:
        v, w = product(v)
        if scratch.shape != w.shape:  # the Krylov coordinates grow
            scratch = np.empty_like(w)
        value = float(v @ w)
        np.multiply(v, value, out=scratch)
        np.subtract(w, scratch, out=scratch)
        residual = math.sqrt(scratch @ scratch)
        if last:  # the stats of the iterate returned after a cap or a small step
            break
        iterations += 1
        w_norm = math.sqrt(w @ w)
        if w_norm == 0:
            raise ValueError("operator annihilated the iterate; cannot normalize")
        v_next = w / w_norm
        np.subtract(v_next, v, out=scratch)
        diff = math.sqrt(scratch @ scratch)
        if residual < tol:
            converged = True
            break
        v = v_next
        converged = diff < tol
        last = converged or iterations == max_iters
    return v, value, iterations, residual, converged


def _result(v, value, iterations, residual, converged) -> EigenResult:
    """The result for the loop's iterate v, with roundoff negatives (only a
    custom start leaves any) clamped to zero for downstream rounding."""
    # In place: v is the loop's own array, and a fresh n² array costs ~700
    # page faults at n = 600.
    vector = np.maximum(v, 0.0, out=v)
    vector.flags.writeable = False
    return EigenResult(vector=vector, value=value, iterations=iterations,
                       residual=residual, converged=converged)


class _KrylovBasis:
    """Orthonormal basis Q of the Krylov space K(G, 1) of one graph, grown by
    `grow`, with G applied to every column but (while it still grows) the
    newest."""

    def __init__(self, graph: Graph):
        self._a = graph.csr()
        self.q = np.full((graph.n, 1), 1.0 / math.sqrt(graph.n))
        self._gq = np.empty((graph.n, 0))
        self._closed = False

    def grow(self) -> None:
        """Apply G to the newest column and append the part of the result
        orthogonal to Q, unless that part is zero to rounding: then Q spans
        an invariant subspace of G and never grows again."""
        if self._closed:
            return
        q = self.q
        z = _csr_product(self._a, q[:, -1])
        self._gq = np.column_stack((self._gq, z))
        r = z - q @ (q.T @ z)
        r -= q @ (q.T @ r)
        n = len(r)
        norm = _norm(r)
        # Each projection coefficient is an n-term sum, so a direction below
        # n eps ||z|| is indistinguishable from its rounding; n orthonormal
        # columns span R^n.
        if norm <= n * np.finfo(np.float64).eps * _norm(z) or q.shape[1] == n:
            self._closed = True
        else:
            self.q = np.column_stack((q, r / norm))

    def projection(self, cn: float) -> np.ndarray:
        """H = Q^T (G + c J) Q_old, where Q_old is Q without the column
        `grow` may just have added; `cn` is c n, since Q^T 1 = sqrt(n) e0."""
        h = self.q.T @ self._gq
        h[0, 0] += cn
        return h


def _krylov_top_eigenvector(op: AlignmentOperator, tol: float,
                            max_iters: int) -> EigenResult:
    """`top_eigenvector` from the uniform start in Kronecker-Krylov
    coordinates (module docstring), for any n."""
    n = op.n
    k, c, d = op.kronecker_scalars
    bases = (_KrylovBasis(op.g1), _KrylovBasis(op.g2))

    def coefficients(flat):
        """The matrix C of V = Q1 C Q2^T, from its row-major entries."""
        return flat.reshape(bases[0].q.shape[1], bases[1].q.shape[1])

    def product(flat):
        C = coefficients(flat)
        for basis in bases:
            basis.grow()
        h1, h2 = (basis.projection(c * n) for basis in bases)
        W = k * (h1 @ C @ h2.T)
        W[0, 0] += d * n * n * C[0, 0]
        padded = np.zeros_like(W)
        padded[:C.shape[0], :C.shape[1]] = C
        return padded.ravel(), W.ravel()

    # The start 1/n 1⊗1 is q0 q0^T: C = [[1]].
    c_flat, *stats = _power_iteration(product, np.ones(1), tol, max_iters)
    V = bases[0].q @ coefficients(c_flat) @ bases[1].q.T
    return _result(V.reshape(op.dim), *stats)
