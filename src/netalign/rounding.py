"""Projections from a real n x n score matrix onto permutations.

Two routes: exact maximum-weight bipartite assignment (the LP relaxation is
totally unimodular, so an exact assignment solver attains the LP optimum),
and the greedy projection that repeatedly locks in the globally largest
remaining entry and eliminates its row and column.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .graphs import Permutation

__all__ = ["max_weight_matching", "greedy_round"]


def _check_scores(scores: np.ndarray) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] == 0:
        raise ValueError(f"scores must be a non-empty square matrix, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite (no NaN or infinity)")
    return s


def max_weight_matching(scores: np.ndarray) -> Permutation:
    """Permutation maximizing sum_i scores[i, sigma(i)], by exact assignment."""
    s = _check_scores(scores)
    rows, cols = linear_sum_assignment(s, maximize=True)
    mapping = np.empty(s.shape[0], dtype=np.int64)
    mapping[rows] = cols
    return Permutation._trusted(mapping)


def greedy_round(scores: np.ndarray) -> Permutation:
    """Greedy projection: take the globally largest entry among unused rows and
    columns, assign that pair, strike its row and column, repeat n times.

    Ties break toward the smallest linear index i*n + j, so the projection is
    deterministic. One stable argsort orders all n² entries; a single scan
    over that order, on Python lists rather than per-element numpy indexing,
    then takes each entry whose row and column are both still free.
    """
    s = _check_scores(scores)
    n = s.shape[0]
    # Stable sort on the negated values keeps equal entries in increasing
    # linear-index order, which implements the tie-break.
    order = np.argsort(-s.reshape(-1), kind="stable")
    rows, cols = np.divmod(order, n)
    row_free = [True] * n
    col_free = [True] * n
    mapping = [0] * n
    assigned = 0
    for i, j in zip(rows.tolist(), cols.tolist()):
        if row_free[i] and col_free[j]:
            mapping[i] = j
            row_free[i] = col_free[j] = False
            assigned += 1
            if assigned == n:
                break
    return Permutation._trusted(mapping)
