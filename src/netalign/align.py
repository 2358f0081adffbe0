"""End-to-end matching pipelines: spectral rounding and projected power steps.

`eigen_align` rounds the dominant eigenvector of the scoring operator with an
exact maximum-weight assignment. `projected_power_align` takes the greedy
rounding of the same eigenvector as its first iterate (the projection of A v,
a positive multiple of v) and then alternates operator multiplication with
the greedy projection onto permutations until it reaches a fixed point or the
iteration cap; with `return_best` it reports the first iterate with the most
matched edges. Both score a permutation by the closed form of y^T A y in its
matched edges (`AlignmentOperator.matched_objective`), which rises strictly
with them.

The projected step is a deterministic map on permutations, so once an iterate
repeats an earlier one the rest of the run is a known cycle. PPA projects and
scores each distinct permutation once and stops projecting at the first
repeat; the rest of its log, up to the cap, is read off the cycle. The result
(permutation, objective, trajectory) is exactly what the capped loop would
report, and `iterations` and `converged` keep their meaning (the cap, False).

Both pipelines start from the same eigenvector. Up to n = `DENSE_MAX_N`
(every sweep cell) the last one is kept, keyed on the graphs' values and the
eigen settings, so EigenAlign and PPA on one pair run power iteration once.
Above the bound none is kept, and `eigen_align` rounds its own eigenvector in
place: the assignment overwrites it (with the scores less the column duals,
and with the costs when it solves the whole matrix) and reads the sort duals
off the Krylov factors the vector was built from (`rounding`).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, Permutation, _is_number, matched_edges
from .operator import AlignmentOperator, compute_alpha, make_params, DEFAULT_EPSILON
from .rounding import _max_weight_matching, greedy_round, max_weight_matching
from .spectral import (DEFAULT_MAX_ITERS, DEFAULT_TOL, DENSE_MAX_N, EigenResult,
                       top_eigenvector)

__all__ = ["AlignConfig", "AlignmentResult", "eigen_align", "projected_power_align"]

DEFAULT_PPA_MAX_ITERS = 30
# One shared dtype: a dtype built per call would be kept alive by every log.
_TRAJECTORY_DTYPE = np.dtype([("objective", np.float64), ("changed", np.int64)])


@dataclass(frozen=True)
class AlignConfig:
    epsilon: float = DEFAULT_EPSILON
    eigen_tol: float = DEFAULT_TOL
    eigen_max_iters: int = DEFAULT_MAX_ITERS
    ppa_max_iters: int = DEFAULT_PPA_MAX_ITERS
    return_best: bool = True

    def __post_init__(self) -> None:
        for name in ("epsilon", "eigen_tol"):
            value = getattr(self, name)
            if not (_is_number(value, numbers.Real) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("eigen_max_iters", "ppa_max_iters"):
            value = getattr(self, name)
            if not _is_number(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.eigen_max_iters < 1 or self.ppa_max_iters < 1:
            raise ValueError("iteration caps must be at least 1")
        if not isinstance(self.return_best, (bool, np.bool_)):
            raise ValueError(f"return_best must be a bool, got {self.return_best!r}")


@dataclass
class AlignmentResult:
    permutation: Permutation
    objective: float          # y^T A y of `permutation`, closed form in `matched_edges`
    matched_edges: int
    iterations: int
    converged: bool
    trajectory: np.ndarray | None = field(default=None, compare=False)
    """Per-iterate log of the projected-power pipeline, a read-only
    structured array with fields `objective` (y^T A y of the iterate, closed
    form in its matched edges) and `changed` (vertices reassigned vs the
    previous iterate); left out of `==`."""


def build_operator(g1: Graph, g2: Graph, epsilon: float = DEFAULT_EPSILON) -> AlignmentOperator:
    """Shared operator construction so pipeline comparisons use identical scoring."""
    alpha = compute_alpha(g1, g2)
    return AlignmentOperator(g1, g2, make_params(alpha, epsilon))


def _start(g1: Graph, g2: Graph, epsilon: float, eigen_tol: float,
           eigen_max_iters: int) -> tuple[AlignmentOperator, EigenResult]:
    """The operator of (g1, g2) and its dominant eigenvector."""
    op = build_operator(g1, g2, epsilon)
    return op, top_eigenvector(op, tol=eigen_tol, max_iters=eigen_max_iters)


_kept_start = functools.lru_cache(maxsize=1)(_start)


def _spectral_start(g1: Graph, g2: Graph,
                    cfg: AlignConfig) -> tuple[AlignmentOperator, EigenResult]:
    """`_start` for cfg's eigen settings; the last one is kept up to `DENSE_MAX_N`."""
    start = _kept_start if g1.n <= DENSE_MAX_N else _start
    return start(g1, g2, cfg.epsilon, cfg.eigen_tol, cfg.eigen_max_iters)


def _result(op: AlignmentOperator, perm: Permutation, matched: int, iterations: int,
            converged: bool, trajectory: np.ndarray | None = None) -> AlignmentResult:
    """Both matchers' result for `perm`, which matches `matched` edges, with
    their closed-form objective."""
    return AlignmentResult(permutation=perm, objective=op.matched_objective(matched),
                           matched_edges=matched, iterations=iterations,
                           converged=converged, trajectory=trajectory)


def eigen_align(g1: Graph, g2: Graph, cfg: AlignConfig = AlignConfig()) -> AlignmentResult:
    """Dominant eigenvector of the scoring operator, rounded by exact assignment."""
    op, eig = _spectral_start(g1, g2, cfg)
    scores = eig.vector.reshape(op.n, op.n)
    if op.n > DENSE_MAX_N:
        # Not kept by `_spectral_start`, so no caller sees what the
        # rounding writes over it.
        scores.flags.writeable = True
        perm = _max_weight_matching(scores, out=scores, factors=eig._factors)
    else:
        perm = max_weight_matching(scores)
    return _result(op, perm, matched_edges(op.g1, op.g2, perm), eig.iterations,
                   eig.converged)


def projected_power_align(g1: Graph, g2: Graph,
                          cfg: AlignConfig = AlignConfig()) -> AlignmentResult:
    """Alternate operator multiplication with greedy projection onto permutations.

    The start vector v0 is the dominant eigenvector. Since A v0 = mu v0 with
    mu > 0 and the greedy projection is unchanged by a positive scale, the
    first iterate Pi(A v0) is the greedy rounding of v0 itself, so no product
    with v0 is taken; every multiply uses the 0/1 vectorization of the
    current permutation iterate (`AlignmentOperator.permutation_product`).
    Trajectory entry 0 logs that start rounding and entry 1 the first
    iterate, so the two always coincide.
    Terminates at a fixed point of the projected step or after
    `ppa_max_iters` iterations (flagged, not an error); a cycle of period
    two or more is read into the log up to the cap without further products,
    projections or counts.
    """
    op, eig = _spectral_start(g1, g2, cfg)
    cap = cfg.ppa_max_iters
    iterates = [greedy_round(eig.vector.reshape(op.n, op.n))]  # each reached once
    del eig  # n² floats, which above `DENSE_MAX_N` nothing else holds
    counts = [matched_edges(op.g1, op.g2, iterates[0])]       # their matched edges
    seen = {iterates[0].map.tobytes(): 0}                      # map bytes -> index
    path = [0, 0]                    # trajectory entry -> index in `iterates`
    converged = False
    while len(path) <= cap:
        nxt = greedy_round(op.permutation_product(iterates[-1]))
        s = seen.setdefault(nxt.map.tobytes(), len(iterates))
        if s < len(iterates):
            # Iterate s recurs with period len(iterates) - s: a fixed point
            # logs its confirming step, a longer cycle repeats to the cap.
            period = len(iterates) - s
            converged = period == 1
            path += [s + j % period for j in range(1 if converged else cap + 1 - len(path))]
            break
        iterates.append(nxt)
        counts.append(matched_edges(op.g1, op.g2, nxt))
        path.append(s)

    steps = np.array(path)
    maps = np.array([perm.map for perm in iterates])
    log = np.empty(len(path), dtype=_TRAJECTORY_DTYPE)
    log["objective"] = op.matched_objective(np.array(counts)[steps])
    log["changed"] = np.count_nonzero(maps[steps] != maps[np.r_[0, steps[:-1]]], axis=1)
    log.flags.writeable = False
    # The first entry with the largest objective, as a scan with a strict >.
    chosen = path[int(log["objective"].argmax())] if cfg.return_best else path[-1]
    return _result(op, iterates[chosen], counts[chosen], len(path) - 1, converged, log)
