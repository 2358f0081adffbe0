"""Power-method dominant eigenvector of the alignment operator.

The operator is entrywise positive, so its dominant eigenvalue is positive
and simple and the corresponding eigenvector can be taken entrywise positive;
plain power iteration from any positive start therefore converges without a
spectral shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operator import AlignmentOperator

__all__ = ["EigenResult", "top_eigenvector"]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 1000


@dataclass(frozen=True)
class EigenResult:
    vector: np.ndarray       # unit-norm, entrywise nonnegative
    value: float             # Rayleigh quotient v^T A v
    iterations: int
    residual: float          # ||A v - value * v||_2 for the returned vector
    converged: bool          # False when the iteration cap was hit
    product: np.ndarray = field(compare=False, repr=False)
    """`op.apply(vector)`, read-only. Power iteration computes it for the
    final residual anyway, so a caller that needs A v gets it for free."""


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
    dominant eigenvector.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
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

    def stats(vec):
        w = op.apply(vec)
        rayleigh = float(vec @ w)
        return w, rayleigh, _norm(w - rayleigh * vec)

    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        w, value, residual = stats(v)
        w_norm = _norm(w)
        if w_norm == 0:
            raise ValueError("operator annihilated the iterate; cannot normalize")
        v_next = w / w_norm
        diff = _norm(v_next - v)
        if residual < tol:
            converged = True
            break
        v = v_next
        if diff < tol:
            w, value, residual = stats(v)  # stats of the iterate actually returned
            converged = True
            break
    else:
        w, value, residual = stats(v)  # cap hit: report the final iterate honestly

    vector = np.maximum(v, 0.0)  # clamp roundoff negatives for downstream rounding
    if (v < 0).any():  # only a custom start can leave negatives to clamp
        w = op.apply(vector)
    vector.flags.writeable = False
    w.flags.writeable = False
    return EigenResult(vector=vector, value=value, iterations=iterations,
                       residual=residual, converged=converged, product=w)
