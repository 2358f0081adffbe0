"""Projections from a real n x n score matrix onto permutations.

Two routes: exact maximum-weight bipartite assignment (the LP relaxation is
totally unimodular, so an exact assignment solver attains the LP optimum),
and the greedy projection that repeatedly locks in the globally largest
remaining entry and eliminates its row and column.

From n = `REDUCE_MIN_N` on, the exact assignment is solved on column-reduced
scores: each column's mean minus the scores, minimized. Every permutation
takes exactly one entry from each column, so subtracting a constant per
column shifts every permutation's total by the same amount (the sum of the
column means) and leaves the optimal permutations unchanged in exact
arithmetic. This is the column reduction of Jonker & Volgenant (1987).

It pays on EigenAlign's scores. scipy's shortest augmenting path solver
(Crouse 2016) starts every column dual at zero. The dominant eigenvector
carries large per-column offsets, and with row and column means removed it
is nearly rank one (sigma_2 / sigma_1 ~ 2e-5 on an n = 600 instance), so on
the raw scores each new row contends for the same few columns. Measured with
one BLAS thread on an Intel Xeon (best of 7, mean over 12 planted
instances), raw -> reduced: p = 0.2, n = 10 5.4 -> 12.1 us, n = 20 17.8 ->
21.1 us, n = 25 30.3 -> 30.1 us, n = 50 297 -> 152 us, n = 200 13.5 ->
7.8 ms; n = 600 at mean degree 7.5 (EigenAlign's sparse benchmark instance,
six seeds) 216-308 -> 127-190 ms. Below the crossover at n = 25 the extra
pass over the scores costs more than it saves, so small problems keep the
raw solve.

The reduction changes no optimal total, but the rounding of the reduced
entries can break a tie differently: from n = `REDUCE_MIN_N` on, of two
permutations with equal totals (such as two vertices with bit-equal score
rows swapped), the reduced solve may return the other one.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .graphs import Permutation

__all__ = ["max_weight_matching", "greedy_round"]

# Smallest n whose exact assignment is solved on column-reduced scores.
REDUCE_MIN_N = 25


def _check_scores(scores: np.ndarray) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] == 0:
        raise ValueError(f"scores must be a non-empty square matrix, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite (no NaN or infinity)")
    return s


def max_weight_matching(scores: np.ndarray) -> Permutation:
    """Permutation maximizing sum_i scores[i, sigma(i)], by exact assignment.

    From n = `REDUCE_MIN_N` on, it minimizes the column-reduced costs
    mean_k scores[k, j] - scores[i, j] instead (see the module docstring).
    The subtraction also negates, which `maximize=True` would do on its own
    copy, so the reduction makes no extra n x n array.
    """
    s = _check_scores(scores)
    n = s.shape[0]
    if n >= REDUCE_MIN_N:
        rows, cols = linear_sum_assignment(s.sum(axis=0) / n - s)
    else:
        rows, cols = linear_sum_assignment(s, maximize=True)
    mapping = np.empty(n, dtype=np.int64)
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
