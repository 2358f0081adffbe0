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
  Q_i'^T G_i Q_i + c n e0 e0^T and Q_i' is Q_i with the next basis vector.
  H_i is never recomputed from the basis. Gram-Schmidt (twice) of G_i q
  against Q_i, for the newest column q, gives the coefficients and the
  remainder's norm that are H_i's new column (Arnoldi's G Q = Q' H), and
  c n enters H_i[0, 0] once. Norms, the Rayleigh quotient, the residual
  and the iterate difference are Frobenius quantities of C and W. An
  iteration then costs one sparse matvec per graph, on the graph's cached
  CSR arrays (`operator._csr_product`), and that Gram-Schmidt, O(e + n t),
  instead of an O(n³) `apply`. The next basis vector joins Q_i only when
  the next product needs it, by copying into a new C-order array one
  column wider, so every BLAS operand keeps its shape, order and strides.
  At the end V is built once as P Q2^T, with P = Q1 C of shape n x K2;
  the result keeps P and Q2, from which EigenAlign's rounding takes its
  row and column statistics in O(n K2) (`rounding`). A basis stops
  growing when the new direction is zero to rounding. For a regular or
  empty graph G 1 is a multiple of 1, so its basis keeps one vector, and C
  is rectangular when the two bases differ in size.

On either representation the loop computes the exact residual and iterate
difference only where they can decide the stop (`_power_iteration`).

Both representations take the same iterates, stopping rule and iteration
counts; their results agree to rounding (~1e-15 relative), not bit for bit.
`DENSE_MAX_N` is the only size switch between them. The Krylov loop takes
1.7-3.6x the `apply` loop's time at n <= 50 and 1% of it at n = 600; the
bound is the largest n of the reduced sweep. `align` keeps eigenvectors up to it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, _is_number
from .operator import AlignmentOperator, _csr_product

__all__ = ["EigenResult", "top_eigenvector"]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 1000
# From the uniform start, the `apply` loop runs up to DENSE_MAX_N vertices
# and the Kronecker-Krylov loop above (see the module docstring).
DENSE_MAX_N = 50
_EPS = float(np.finfo(np.float64).eps)
# The stop tests' slack on N-entry vectors is (N + 1) _STOP_SLACK: relative
# to ww for the residual's square, absolute for the step's. Worst-case
# rounding of the N-term dot products (any order, FMA or not), of the unit
# norms, of the exact norms and of the estimates is below (4N + 14) eps.
_STOP_SLACK = 16 * _EPS
# Covers products that underflow (a few N times the smallest subnormal).
_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class EigenResult:
    # Unit-norm and read-only; entrywise positive from the uniform start (a
    # positive operator's products of positive vectors), and from a custom
    # start with roundoff negatives clamped to zero.
    vector: np.ndarray
    value: float             # Rayleigh quotient v^T A v
    iterations: int
    residual: float          # ||A v - value * v||_2 for the returned vector
    converged: bool          # False when the iteration cap was hit
    # Krylov loop only: read-only (P, Q), vector = (P Q^T).ravel(). Left out
    # of == and of the repr.
    _factors: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False,
                                                           repr=False)

    def __eq__(self, other: object) -> bool:
        """Equal vectors (by value) and equal scalar fields."""
        if not isinstance(other, EigenResult):
            return NotImplemented
        return (np.array_equal(self.vector, other.vector)
                and (self.value, self.iterations, self.residual, self.converged)
                == (other.value, other.iterations, other.residual, other.converged))


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
    if not (_is_number(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not _is_number(max_iters, numbers.Integral) or max_iters < 1:
        raise ValueError(f"max_iters must be an integer of at least 1, got {max_iters!r}")
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
    v, *stats = _power_iteration(lambda x: (x, product(x)), v, tol, max_iters)
    if start is not None:
        # Only a custom start leaves roundoff negatives; zero them for
        # downstream rounding. In place: v is the loop's own array, and a
        # fresh n² array costs ~700 page faults at n = 600.
        np.maximum(v, 0.0, out=v)
    return _result(v, *stats)


def _power_iteration(product, v, tol, max_iters):
    """The power loop on any coordinates of the iterate, as 1-D vectors.

    `product(v)` returns (v', w): w = A v, and v' the iterate v in the
    coordinates of w (v itself where they are fixed). Returns
    (v, value, iterations, residual, converged) for the returned iterate.

    The residual ||w - value v|| and the step ||v_next - v|| are computed
    exactly, as sqrt(x @ x) (the dot product and root np.linalg.norm takes,
    without its dispatch), on the returned iterate and wherever they can end
    the loop. Other steps rule them out from two scalars the loop needs
    anyway, ww = w @ w and value = v @ w: as v and v_next have unit norm to
    rounding, ||w - value v||² = ww - value² and ||v_next - v||² =
    2 - 2 value / sqrt(ww), each up to the rounding that `_STOP_SLACK`
    bounds. So a norm that is skipped could not have passed `< tol`, and the
    stops, iterates and statistics are those of computing both norms on
    every step, bit for bit.
    """
    scratch = np.empty(0)
    tol2 = tol * tol
    converged = last = False
    iterations = 0
    while True:
        v, w = product(v)
        if scratch.shape != w.shape:  # the Krylov coordinates grow
            scratch = np.empty_like(w)
        value = float(v @ w)
        if last:  # the stats of the iterate returned after a cap or a small step
            residual = _residual(v, w, value, scratch)
            break
        iterations += 1
        ww = float(w @ w)
        w_norm = math.sqrt(ww)
        if w_norm == 0:
            raise ValueError("operator annihilated the iterate; cannot normalize")
        v_next = w / w_norm
        slack = _STOP_SLACK * (w.size + 1)
        # An estimate that is NaN rules nothing out.
        if not ww - value * value - slack * ww - _TINY > tol2:
            residual = _residual(v, w, value, scratch)
            if residual < tol:
                converged = True
                break
        if not 2.0 - 2.0 * value / w_norm - slack > tol2:
            np.subtract(v_next, v, out=scratch)
            converged = math.sqrt(scratch @ scratch) < tol
        v = v_next
        last = converged or iterations == max_iters
    return v, value, iterations, residual, converged


def _residual(v, w, value, scratch):
    """||w - value v||, with `scratch` as the work array."""
    np.multiply(v, value, out=scratch)
    np.subtract(w, scratch, out=scratch)
    return math.sqrt(scratch @ scratch)


def _result(v, value, iterations, residual, converged, factors=None) -> EigenResult:
    """The result for the loop's iterate v, unclamped, with v and the
    factors it was built from, if any, made read-only."""
    for array in (v, *(factors or ())):
        array.flags.writeable = False
    return EigenResult(vector=v, value=value, iterations=iterations,
                       residual=residual, converged=converged, _factors=factors)


class _KrylovBasis:
    """Orthonormal basis Q of the Krylov space K(G, 1) of one graph, grown by
    `grow`, with H = Q'^T (G + c J) Q kept from the Gram-Schmidt coefficients
    (module docstring). Q holds the columns G has been applied to; Q' adds
    the next basis vector, which joins Q only when the next `grow` needs it."""

    def __init__(self, graph: Graph, shift: float):
        """`shift` is c n, H's [0, 0] share of c J: Q'^T 1 = sqrt(n) e0."""
        self._graph = graph
        self._shift = shift
        self.q = np.full((graph.n, 1), 1.0 / math.sqrt(graph.n))
        self._newest = self.q[:, 0]  # contiguous, unlike later columns of q
        self.h = np.empty((1, 0))

    def grow(self) -> None:
        """Apply G to the newest basis vector, appended to Q first if it is
        pending, and extend H by that column. The part of the result
        orthogonal to Q becomes the pending vector, its norm H's new row,
        unless it is zero to rounding: then Q spans an invariant subspace of
        G, H is square, and neither grows again."""
        rows, cols = self.h.shape
        if rows == cols:
            return
        q = self.q
        if q.shape[1] < rows:
            q = self.q = _append_column(q, self._newest)
        m = q.shape[1]
        z = _csr_product(self._graph, self._newest)
        # G q_newest = Q coef + r, from two Gram-Schmidt passes.
        coef = q.T @ z
        r = z - q @ coef
        correction = q.T @ r
        r -= q @ correction
        coef += correction
        n = len(r)
        norm = math.sqrt(r @ r)
        # Each projection coefficient is an n-term sum, so a direction below
        # n eps ||z|| is indistinguishable from its rounding; n orthonormal
        # columns span R^n.
        closes = norm <= n * _EPS * math.sqrt(z @ z) or m == n
        h = np.zeros((m if closes else m + 1, m))
        h[:m, :-1] = self.h
        h[:m, -1] = coef
        if m == 1:
            h[0, 0] += self._shift
        if not closes:
            h[m, -1] = norm
            r /= norm
            self._newest = r
        self.h = h


def _append_column(a: np.ndarray, column: np.ndarray) -> np.ndarray:
    """np.column_stack((a, column)) for a C-order matrix and a vector: a new
    C-order array, without column_stack's conversions."""
    out = np.empty((a.shape[0], a.shape[1] + 1))
    out[:, :-1] = a
    out[:, -1] = column
    return out


def _krylov_top_eigenvector(op: AlignmentOperator, tol: float,
                            max_iters: int) -> EigenResult:
    """`top_eigenvector` from the uniform start in Kronecker-Krylov
    coordinates (module docstring), for any n."""
    n = op.n
    k, c, d = op.kronecker_scalars
    bases = (_KrylovBasis(op.g1, c * n), _KrylovBasis(op.g2, c * n))

    def product(flat):
        for basis in bases:
            basis.grow()
        h1, h2 = bases[0].h, bases[1].h
        C = flat.reshape(h1.shape[1], h2.shape[1])
        W = k * (h1 @ C @ h2.T)
        W[0, 0] += d * n * n * C[0, 0]
        padded = np.zeros_like(W)
        padded[:C.shape[0], :C.shape[1]] = C
        return padded.ravel(), W.ravel()

    # The start 1/n 1⊗1 is q0 q0^T: C = [[1]]. The returned iterate is
    # padded with zeros for the pending vectors, which Q leaves out.
    c_flat, *stats = _power_iteration(product, np.ones(1), tol, max_iters)
    Q1, Q2 = bases[0].q, bases[1].q
    C = c_flat.reshape(bases[0].h.shape[0], bases[1].h.shape[0])
    P = Q1 @ C[:Q1.shape[1], :Q2.shape[1]]
    V = P @ Q2.T
    return _result(V.reshape(op.dim), *stats, factors=(P, Q2))
