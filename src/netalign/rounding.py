"""Projections from a real n x n score matrix onto permutations.

Two routes: exact maximum-weight bipartite assignment (the LP relaxation is
totally unimodular, so an exact assignment solver attains the LP optimum),
and the greedy projection that repeatedly locks in the globally largest
remaining entry and eliminates its row and column.

The exact assignment is scipy's shortest augmenting path solver (Crouse
2016), `linear_sum_assignment` of `scipy.optimize._lsap`, loaded from its
extension file without `scipy.optimize`'s `__init__` (`_kernels`). It
starts every dual at zero. Every permutation takes one entry
from each row and each column, so minimizing the reduced costs
u_i + v_j - s_ij instead of maximizing the scores s shifts every
permutation's total by the same sum(u) + sum(v): the optimal permutations
are unchanged in exact arithmetic, whatever (u, v). Good duals leave the
solver little to do. Three regimes, by n:

- n < `REDUCE_MIN_N` (25): the raw scores, u = v = 0.
- `REDUCE_MIN_N` <= n < `SORT_DUALS_MIN_N` (51): column reduction, u = 0
  and v the column means (Jonker & Volgenant 1987).
- n >= `SORT_DUALS_MIN_N`: the duals of the sort matching, below.

EigenAlign's scores carry large row and column offsets; with the row and
column means removed (the double-centred scores C) they are nearly rank one,
C ~ sigma x y^T (sigma_2 / sigma_1 ~ 2e-5 on an n = 600 instance). Sort the
rows by x and the columns by y. For an exactly rank-one C the sorted scores
T are then a Monge matrix, T[k, l] + T[k', l'] >= T[k, l'] + T[k', l] for
k < k', l < l' (offsets do not change that), on which the sort matching
k -> k is optimal with closed-form LP duals (Burkard, Klinz & Rudolf 1996):

    v_k = sum over 0 < m <= k of T[m, m] - T[m, m-1],   u_k = T[k, k] - v_k.

The reduced costs are zero on the sort matching and, by telescoping the
Monge inequalities, nonnegative elsewhere. x and y come from two alternating
products with C started from s[0] - column means (four passes over the
scores, C never formed). The private `_max_weight_matching` can write the
n x n array it rounds into a given buffer, the scores included.
EigenAlign's scores above n = 50 are built as P Q^T from Krylov factors of
n x K (K ~ 6 at n = 600, `spectral`), and from those it takes the column
means, the two products, the row sums and ||S||_F^2 in O(nK) instead of
four passes; its finiteness check scans the factors. They round differently
from the passes, but only choose the order and pass the guard; the duals
are read off the scores. Where the two could choose differently among tied
permutations, the passes decide:
when the guard rejects, or when two sorted keys lie within n ulps of the
largest (bit-equal score rows or columns, such as isolated or twin
vertices, whose keys a pass's matrix product can round apart).

The costs are read off one n x n pass, t = fl(s - v) (row by row, v the
same for every row). The reduced scores g_ij = fl(t_ij - u_i) are the costs
fl(fl(v_j - s_ij) + u_i) negated bit for bit, since rounding is symmetric.
x -> fl(x - u_i) is monotone, so the largest g is fl(max_j t_ij - u_i),
taken over the rows: a row-maximum pass over t, and none that forms g.
(numpy's subtraction of u down the rows, one short call per row, is its
slowest pass over the scores. BLAS rank-one updates (dger) would form g as
fast as one pass, but they wake scipy's OpenBLAS thread pool beside
numpy's, which with default threads tripled `eigen_align`'s time on a
2-CPU host.) g often certifies the sort matching itself, and then no
solver runs. One of three routes follows:

- Certified (no g positive, so no cost negative): the sort matching
  r[k] -> c[k]. Its reduced scores are exactly 0 in floating point, since
  u[r_k] = fl(d - v) and g = fl(fl(d - v) - u[r_k]). So it attains the
  lower bound 0 of every permutation's cost total on the very matrix a
  solver would get (LP duality).
- Repaired (the largest g, the most negative cost, is at most n ulps of
  max(|u|, |v|), the rounding of the cumulative sum behind v): with m the
  number of positive g, capped at n, a permutation's negative costs sum to
  at least -delta = -m max(g), so one below total 0 takes only costs
  <= delta, where g >= -delta. Since m <= n, one pass of t against a floor
  per row collects every entry with g >= -n max(g), rounded up: every
  positive g and every such entry. Their g are formed, m counted among
  them, and they are cut to delta. A permutation differs from the sort
  matching by cycles; in sorted positions a cycle maps rows k to columns
  l. The staircase (k, k), (k, k - 1) never steps up (l > k), so a cycle's
  steps up are costs <= delta off it, and their spans [k, l] cover the
  cycle's span. Merged, the spans of all such costs make blocks that hold
  every cycle; a solve of each block's costs, the rest left on the sort
  matching, is optimal. On match-sparse's n = 600 pairs the blocks are 2-5
  wide.
- Full solve otherwise (dense pairs' scores are further from Monge, by
  1e6-1e11 ulps): one solve of the whole cost matrix.

Both solves take the costs as fl(u_i - t_ij), the costs' own bytes.

A guard falls back to the column reduction when the leading pair carries
less than `SORT_DUALS_MIN_SHARE` (half) of ||C||_F^2; far from rank one the
sort duals are poor and the solver takes longer than from the column means.
The share, from the two products, bounds the true one from below: it reads
nearly 1 on EigenAlign's scores and nearly 0 on standard-normal matrices.

Below n = 25 the column reduction's extra pass costs more than it saves; up
to n = 50 the sort duals and their guard (about 30 us) cost as much as they
save, so the sweep sizes keep their column-reduced solve and its bytes.

No reduction changes an optimal total, but the rounding of the reduced
entries can break a tie differently: from n = `REDUCE_MIN_N` on, and again
from n = `SORT_DUALS_MIN_N` on, of two permutations with equal totals (such
as two vertices with bit-equal score rows swapped) the solve may return the
other one. A certified sort matching breaks ties by the stable argsorts:
rows with bitwise-equal sort keys go to their columns in index order. The
factor route's keys tie on bit-equal score lines; the pass route's matrix
products (gemv, gemm) can round them apart, so its pick among such lines
follows the BLAS kernel.
"""

from __future__ import annotations

import numpy as np

from ._kernels import extension_module
from .graphs import Permutation, _split

__all__ = ["max_weight_matching", "greedy_round"]

linear_sum_assignment = extension_module("scipy.optimize._lsap").linear_sum_assignment

# Smallest n whose exact assignment is solved on column-reduced scores, and
# the smallest on sort-matching duals (when the guard lets them through).
REDUCE_MIN_N = 25
SORT_DUALS_MIN_N = 51
# Smallest share of the double-centred scores' squared Frobenius norm that
# the leading singular pair must carry for the sort-matching duals.
SORT_DUALS_MIN_SHARE = 0.5
# Rows of the greedy scan's order split into Python ints at a time.
_GREEDY_CHUNK_ROWS = 64


def _check_scores(scores: np.ndarray, factors=None) -> np.ndarray:
    """The scores as a float64 array, checked square and finite; with
    `factors` (P, Q), scores = P Q^T, only the factors are scanned."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] == 0:
        raise ValueError(f"scores must be a non-empty square matrix, got shape {s.shape}")
    for x in factors or (s,):
        if not np.isfinite(x).all():
            raise ValueError("scores must be finite (no NaN or infinity)")
    return s


def max_weight_matching(scores: np.ndarray) -> Permutation:
    """Permutation maximizing sum_i scores[i, sigma(i)], by exact assignment
    of the raw scores or of reduced costs, or the sort matching those costs
    prove optimal (module docstring). `scores` is never written to."""
    return _max_weight_matching(scores)


def _max_weight_matching(scores: np.ndarray, out: np.ndarray | None = None,
                         factors: tuple[np.ndarray, np.ndarray] | None = None) -> Permutation:
    """`max_weight_matching`, with an n x n array written into `out` from
    n = `REDUCE_MIN_N` on (a fresh array when None): the costs
    u_i + v_j - s_ij that are solved, or on sort-matching duals the scores
    less v_j that certify the sort matching or repair it in blocks. `out`
    may be the scores themselves: the duals are computed first.
    `factors` (P, Q), when given, are those the scores were computed from as
    P Q^T; the sort duals then read their statistics off them
    (`_sort_duals`), and when those do not settle the order, the passes
    over the scores do."""
    s = _check_scores(scores, factors)
    n = s.shape[0]
    if n < REDUCE_MIN_N:
        rows, cols = linear_sum_assignment(s, maximize=True)
    else:
        sorted_by_duals = n >= SORT_DUALS_MIN_N
        duals = _sort_duals(s, None, factors) if sorted_by_duals and factors else None
        if duals is None:
            col_mean = s.sum(axis=0) / n
            duals = _sort_duals(s, col_mean) if sorted_by_duals else None
        if duals is None:
            cost = np.subtract(col_mean, s, out=out)
        else:
            u, v, r, c = duals
            t = np.subtract(s, v, out=out)
            mapping = _certified_sort_matching(t, u, v, r, c)
            if mapping is not None:
                return Permutation._trusted(mapping)
            cost = np.subtract(u[:, None], t, out=t)
        rows, cols = linear_sum_assignment(cost)
    mapping = np.empty(n, dtype=np.int64)
    mapping[rows] = cols
    return Permutation._trusted(mapping)


def _certified_sort_matching(t: np.ndarray, u: np.ndarray, v: np.ndarray,
                             r: np.ndarray, c: np.ndarray) -> np.ndarray | None:
    """An optimal mapping for the costs u_i - t_ij, t = s - v, whose reduced
    scores g = t - u are 0 on the sort matching r[k] -> c[k]: that matching
    when no g is positive, that matching with its blocks re-solved when the
    largest g is within n ulps of max(|u|, |v|), else None (module
    docstring)."""
    n = t.shape[0]
    mapping = np.empty(n, dtype=np.int64)
    mapping[r] = c
    high = np.subtract(t.max(axis=1), u).max()
    if high <= 0:
        return mapping
    if not high <= n * np.spacing(max(np.abs(u).max(), np.abs(v).max())):
        return None
    # One pass: fl(t - u_i) >= -bound needs t - u_i above the float below
    # -bound, so t >= floor_i (each step rounded down). That holds every
    # positive g and, as delta <= bound, every cost <= delta.
    bound = np.nextafter(n * high, np.inf)
    floor = np.nextafter(np.nextafter(-bound, -np.inf) + u, -np.inf)
    rows, cols = _split(np.flatnonzero(t >= floor[:, None]), n)
    g = t[rows, cols] - u[rows]
    # Rounded up: a permutation below total 0 takes only costs <= delta.
    delta = np.nextafter(min(np.count_nonzero(g > 0), n) * high, np.inf)
    keep = g >= -delta
    rows, cols = rows[keep], cols[keep]
    position = np.empty(n, dtype=np.int64)
    position[r] = np.arange(n)
    k = position[rows]
    position[c] = np.arange(n)
    l = position[cols]
    # Blocks: runs of the steps x -> x + 1 between sorted positions that the
    # span of some such cost off the staircase (k, k), (k, k - 1) covers.
    off = (l != k) & (l != k - 1)
    covered = np.cumsum(np.bincount(np.minimum(k, l)[off], minlength=n)
                        - np.bincount(np.maximum(k, l)[off], minlength=n)) > 0
    edges = np.diff(covered.astype(np.int8), prepend=0)
    for first, last in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)):
        block_rows, block_cols = r[first:last + 1], c[first:last + 1]
        block = np.subtract(u[block_rows, None], t[np.ix_(block_rows, block_cols)])
        sub_rows, sub_cols = linear_sum_assignment(block)
        mapping[block_rows[sub_rows]] = block_cols[sub_cols]
    return mapping


def _sort_duals(s: np.ndarray, col_mean: np.ndarray | None,
                factors: tuple[np.ndarray, np.ndarray] | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Duals (u, v) of the matching that pairs rows r[k] with columns c[k],
    in the order of the leading singular vectors of the double-centred scores
    C, and that order (r, c); None when that pair carries less than
    `SORT_DUALS_MIN_SHARE` of ||C||_F^2.

    Two alternating products from b = s[0] - col_mean estimate the vectors
    without forming C: with b and then a centred, a = C b and b = C^T a.
    With `factors` (P, Q), s = P Q^T, the products, the row sums, the norm
    and (when `col_mean` is None) the column means come from the factors in
    O(nK) instead of passes over s; they round differently, but only the
    order (r, c) and the guard read them, and the result is None also when
    two sorted keys lie within n ulps of the largest, where passes could
    order them otherwise. The duals are read off s itself, and are exact
    when the scores, sorted by a and b, are a Monge matrix (module
    docstring).
    """
    n = s.shape[0]
    if factors is None:
        def right(x):
            return s @ x

        def left(y):
            return y @ s
        norm2 = np.vdot(s, s)
    else:
        p, q = factors

        def right(x):
            return p @ (q.T @ x)

        def left(y):
            return (y @ p) @ q.T
        # ||P Q^T||^2 = trace(P^T P Q^T Q).
        norm2 = np.vdot(p.T @ p, q.T @ q)
        if col_mean is None:
            col_mean = left(np.ones(n)) / n
    b = s[0] - col_mean
    b -= b.sum() / n
    # One product gives S b and the row sums.
    a, row_sums = right(np.column_stack((b, np.ones(n)))).T
    a -= a.sum() / n
    b = left(a)
    b -= b.sum() / n
    # ||b||^2 / ||a||^2 is a Rayleigh quotient of C C^T, so it bounds
    # sigma_1^2 from below: the guard errs toward the fallback.
    centred_norm2 = (norm2 - row_sums @ row_sums / n
                     - n * (col_mean @ col_mean) + (row_sums.sum() / n) ** 2)
    if SORT_DUALS_MIN_SHARE * centred_norm2 * (a @ a) > b @ b:
        return None
    r = np.argsort(a, kind="stable")
    c = np.argsort(b, kind="stable")
    if factors is not None:
        # Keys of bit-equal lines: the passes may round them apart.
        for keys, order in ((a, r), (b, c)):
            if np.diff(keys[order]).min() <= n * np.spacing(np.abs(keys).max()):
                return None
    diagonal = s[r, c]
    # v[c_k] = sum over 0 < m <= k of s[r_m, c_m] - s[r_m, c_(m-1)], and
    # u[r_k] = s[r_k, c_k] - v[c_k]: the sort matching's costs are zero.
    v_sorted = np.concatenate(([0.0], np.cumsum(diagonal[1:] - s[r[1:], c[:-1]])))
    u = np.empty(n)
    v = np.empty(n)
    u[r] = diagonal - v_sorted
    v[c] = v_sorted
    return u, v, r, c


def greedy_round(scores: np.ndarray) -> Permutation:
    """Greedy projection: take the globally largest entry among unused rows and
    columns, assign that pair, strike its row and column, repeat n times.

    Ties break toward the smallest linear index i*n + j, so the projection is
    deterministic. One stable argsort orders all n² entries; a single scan
    over that order, on Python lists rather than per-element numpy indexing,
    then takes each entry whose row and column are both still free. The
    order is split into rows and columns `_GREEDY_CHUNK_ROWS` rows' worth
    (64 n entries) at a time, so at most one chunk is held as Python ints.
    """
    s = _check_scores(scores)
    n = s.shape[0]
    # Stable sort on the negated values keeps equal entries in increasing
    # linear-index order, which implements the tie-break.
    order = np.argsort(-s.reshape(-1), kind="stable")
    row_free = [True] * n
    col_free = [True] * n
    mapping = [0] * n
    assigned = 0
    chunk = _GREEDY_CHUNK_ROWS * n
    for start in range(0, n * n, chunk):
        rows, cols = _split(order[start:start + chunk], n)
        for i, j in zip(rows.tolist(), cols.tolist()):
            if row_free[i] and col_free[j]:
                mapping[i] = j
                row_free[i] = col_free[j] = False
                assigned += 1
                if assigned == n:
                    break
        if assigned == n:
            break
    return Permutation._trusted(mapping)
