"""Independent reference implementations used to cross-check the package.

Everything here is deliberately brute force: explicit loops, exhaustive
enumeration, dense linear algebra. Nothing imports the code paths it checks.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from numpy.random import Generator, Philox
from scipy.optimize import linear_sum_assignment


def count_matched_edges_loop(adj1, adj2, mapping):
    """Double loop over unordered pairs."""
    n = adj1.shape[0]
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if adj1[i, j] and adj2[mapping[i], mapping[j]]:
                count += 1
    return count


def frobenius_misalignment(adj1, adj2, mapping):
    """||G1 X - X G2||_F^2 via explicit dense matrices."""
    n = adj1.shape[0]
    X = np.zeros((n, n))
    X[np.arange(n), mapping] = 1.0
    diff = adj1.astype(float) @ X - X @ adj2.astype(float)
    return float((diff * diff).sum())


def classify_pair_pairs(adj1, adj2):
    """Quadruple loop: count (match, mismatch, neither) over all n^4 index tuples."""
    n = adj1.shape[0]
    matches = mismatches = neither = 0
    for i in range(n):
        for r in range(n):
            e1 = bool(adj1[i, r]) and i != r
            for jp in range(n):
                for sq in range(n):
                    e2 = bool(adj2[jp, sq]) and jp != sq
                    if e1 and e2:
                        matches += 1
                    elif e1 != e2:
                        mismatches += 1
                    else:
                        neither += 1
    return matches, mismatches, neither


def best_assignment_weight(scores):
    """Exhaustive n! maximum of sum_i scores[i, sigma(i)]."""
    n = scores.shape[0]
    return max(sum(scores[i, pi[i]] for i in range(n))
               for pi in itertools.permutations(range(n)))


def best_quadratic_objective(dense, n):
    """Exhaustive n! maximum of y^T A y over permutation vectorizations."""
    best = -np.inf
    for pi in itertools.permutations(range(n)):
        y = np.zeros(n * n)
        for i in range(n):
            y[i * n + pi[i]] = 1.0
        best = max(best, float(y @ dense @ y))
    return best


def permutation_vector(n, mapping):
    """0/1 vectorization y of the permutation matrix: y[i*n + mapping[i]] = 1."""
    y = np.zeros(n * n)
    for i in range(n):
        y[i * n + mapping[i]] = 1.0
    return y


def quadratic_objective(dense, n, mapping):
    y = permutation_vector(n, mapping)
    return float(y @ dense @ y)


def greedy_round_by_hand(scores):
    """Re-execution of the greedy rule with dict bookkeeping instead of arrays."""
    n = scores.shape[0]
    entries = sorted(((scores[i, j], -(i * n + j), i, j)
                      for i in range(n) for j in range(n)), reverse=True)
    taken_rows, taken_cols, mapping = set(), set(), {}
    for _, _, i, j in entries:
        if i in taken_rows or j in taken_cols:
            continue
        mapping[i] = j
        taken_rows.add(i)
        taken_cols.add(j)
    return np.array([mapping[i] for i in range(n)])


def top_eigenpair_closed_form(adj1, adj2, s1, s2, s3):
    """Dominant eigenpair of the scoring matrix from two n x n eigensolves.

    The scoring matrix is A = k M1 (x) M2 + d 11^T with k = s1 + s2 - 2 s3,
    M_i = G_i + c J, c = (s3 - s2) / k and d = s2 - (s3 - s2)^2 / k > 0.
    With M1 = U diag(lam) U^T, M2 = W diag(nu) W^T, a = U^T 1 and b = W^T 1,
    the top eigenvalue mu is the root above max k lam_i nu_j of the secular
    equation 1 = d sum_ij a_i^2 b_j^2 / (mu - k lam_i nu_j), and the
    eigenvector is U F W^T with F_ij = a_i b_j / (mu - k lam_i nu_j) (Golub
    1973, "Some modified matrix eigenvalue problems"). No power iteration
    and no n^2 x n^2 matrix: usable well beyond the dense oracle's cap.
    Returns (mu, V): V is the unit-norm eigenvector as an n x n matrix,
    entrywise nonnegative up to roundoff.
    """
    k = s1 + s2 - 2.0 * s3
    c = (s3 - s2) / k
    d = s2 - (s3 - s2) ** 2 / k
    lam, U = np.linalg.eigh(np.asarray(adj1, dtype=np.float64) + c)
    nu, W = np.linalg.eigh(np.asarray(adj2, dtype=np.float64) + c)
    a, b = U.sum(axis=0), W.sum(axis=0)
    poles = k * np.outer(lam, nu)
    weights = d * np.outer(a * a, b * b)

    # The secular function increases from -inf just above the top pole to a
    # nonnegative value at top + sum(weights); bisect down to adjacent floats.
    lo = float(poles.max())
    hi = lo + 2.0 * float(weights.sum()) + 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        with np.errstate(divide="ignore"):
            below = float((weights / (mid - poles)).sum()) > 1.0
        lo, hi = (mid, hi) if below else (lo, mid)
    mu = hi
    V = U @ (np.outer(a, b) / (mu - poles)) @ W.T
    V /= np.linalg.norm(V)
    return mu, V if V.sum() >= 0 else -V


def assignment_score(scores, mapping):
    """sum_i scores[i, mapping[i]], correctly rounded (math.fsum)."""
    return math.fsum(float(scores[i, j]) for i, j in enumerate(mapping))


def assignment_score_exact(scores, mapping):
    """sum_i scores[i, mapping[i]] in exact rational arithmetic."""
    return sum((Fraction(float(scores[i, j])) for i, j in enumerate(mapping)), Fraction(0))


# Earlier versions of the planted-trial path, kept as bit-for-bit references
# for the faster code that replaced them.

def full_solve_on_duals(scores, u, v):
    """The exact assignment on the whole cost matrix u_i + v_j - s_ij, with
    the arithmetic of `rounding._max_weight_matching` on sort-matching duals:
    (v - s) first, then + u. Above n = 50 every input was solved this way
    before the sort matching's own certificate; inputs that fail it still
    are. Returns (costs, mapping)."""
    cost = np.subtract(v, scores)
    cost += u[:, None]
    rows, cols = linear_sum_assignment(cost)
    mapping = np.empty(scores.shape[0], dtype=np.int64)
    mapping[rows] = cols
    return cost, mapping


def two_pass_block_repair(cost, u, v, r, c):
    """The sort matching r[k] -> c[k] repaired in blocks, by the rule
    `rounding._certified_sort_matching` used on the costs before it took
    its candidates in one pass: two passes over the costs, one counting the
    m negative ones and one keeping those <= delta, with delta = m |min|
    rounded up (m capped at n), then a solve of each block of positions
    that the spans of the kept costs off the staircase (k, k), (k, k - 1)
    cover, one position at a time. Expects a negative minimum within n ulps
    of max(|u|, |v|). Returns (blocks, mapping): the cost submatrices
    solved, in order, and the repaired mapping."""
    n = cost.shape[0]
    low = cost.min()
    assert 0 > low >= -n * np.spacing(max(np.abs(u).max(), np.abs(v).max()))
    delta = np.nextafter(min(np.count_nonzero(cost < 0), n) * -low, np.inf)
    mapping = np.empty(n, dtype=np.int64)
    mapping[r] = c
    position_of_row = {int(row): k for k, row in enumerate(r)}
    position_of_col = {int(col): k for k, col in enumerate(c)}
    covered = [False] * n
    for i, j in zip(*np.nonzero(cost <= delta)):
        k, l = position_of_row[int(i)], position_of_col[int(j)]
        if l not in (k, k - 1):
            for x in range(min(k, l), max(k, l)):
                covered[x] = True
    blocks = []
    k = 0
    while k < n:
        if not covered[k]:
            k += 1
            continue
        last = k
        while last < n and covered[last]:
            last += 1
        block_rows, block_cols = r[k:last + 1], c[k:last + 1]
        block = cost[np.ix_(block_rows, block_cols)]
        sub_rows, sub_cols = linear_sum_assignment(block)
        mapping[block_rows[sub_rows]] = block_cols[sub_cols]
        blocks.append(block)
        k = last + 1
    return blocks, mapping


def csr_via_dense(adj):
    """Float64 CSR view built through a dense float copy and scipy's COO path."""
    return sp.csr_array(adj.astype(np.float64))


def fresh_philox(base_seed, stream_id):
    """A newly built generator for the stream keyed (base_seed, stream_id):
    Philox from counter 0, its buffers empty."""
    return Generator(Philox(key=np.array([base_seed, stream_id], dtype=np.uint64)))


def er_adjacency_triu(n, p, rng):
    """G(n, p) adjacency drawing the strict upper triangle via np.triu_indices."""
    iu, ju = np.triu_indices(n, k=1)
    draws = rng.random(iu.size) < p
    adj = np.zeros((n, n), dtype=bool)
    adj[iu, ju] = draws
    adj |= adj.T
    return adj


def noisy_adjacency_triu(adj, lam, rng):
    """Flip each unordered pair with probability lam, indexed via np.triu_indices."""
    n = adj.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    flips = rng.random(iu.size) < lam
    adj = np.array(adj)
    adj[iu, ju] ^= flips
    adj[ju, iu] = adj[iu, ju]
    return adj


def power_iteration_linalg_norm(apply, n, tol, max_iters):
    """Power iteration from the uniform start with np.linalg.norm throughout.

    Returns (vector, value, iterations, residual, converged).
    """
    v = np.full(n * n, 1.0 / n)

    def stats(vec):
        w = apply(vec)
        rayleigh = float(vec @ w)
        return w, rayleigh, float(np.linalg.norm(w - rayleigh * vec))

    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        w, value, residual = stats(v)
        v_next = w / np.linalg.norm(w)
        diff = float(np.linalg.norm(v_next - v))
        if residual < tol:
            converged = True
            break
        v = v_next
        if diff < tol:
            _, value, residual = stats(v)
            converged = True
            break
    else:
        _, value, residual = stats(v)
    return np.maximum(v, 0.0), value, iterations, residual, converged


def ppa_capped_loop(op, v0, project, max_iters, return_best):
    """Projected power loop that evaluates every step up to the cap.

    `op` supplies `permutation_product`, its graphs and its scores;
    `project` maps an n x n score matrix to a permutation. The first iterate
    is project(A v0) for the eigenvector v0, which equals project(v0): A v0
    is a positive multiple of v0. Each iterate is scored by y^T A y in closed
    form on its matched-edge count M: of the n² entries of A that y selects,
    2M are edge matches, 2e1 + 2e2 - 4M mismatches and the rest non-edge
    matches. Stops early only at a fixed point.
    Returns (permutation, objective, iterations, converged, trajectory,
    iterates): trajectory is a list of (objective, changed) and iterates the
    map arrays of the evaluated iterates of the projected step, in order.
    """
    n = op.n
    s1, s2, s3 = op.params.s1, op.params.s2, op.params.s3
    adj1, adj2 = op.g1.adjacency, op.g2.adjacency
    e1, e2 = int(adj1.sum()) // 2, int(adj2.sum()) // 2

    def step(perm):
        m = count_matched_edges_loop(adj1, adj2, perm.map)
        objective = (s1 * (2 * m) + s3 * (2 * e1 + 2 * e2 - 4 * m)
                     + s2 * (n * n - 2 * e1 - 2 * e2 + 2 * m))
        return op.permutation_product(perm), objective

    pi0 = project(v0.reshape(n, n))
    _, obj0 = step(pi0)
    best_perm, best_obj = pi0, obj0
    trajectory = [(obj0, 0)]
    iterates = []

    current = project(v0.reshape(n, n))
    iterations = 1
    previous = pi0
    converged = False
    last_obj = None
    while True:
        w, obj = step(current)
        last_obj = obj
        iterates.append(current.map)
        trajectory.append((obj, int(np.count_nonzero(current.map != previous.map))))
        if obj > best_obj:
            best_perm, best_obj = current, obj
        if iterations >= max_iters:
            break
        nxt = project(w)
        iterations += 1
        if np.array_equal(nxt.map, current.map):
            converged = True
            trajectory.append((obj, 0))
            break
        previous = current
        current = nxt

    if return_best:
        perm, objective = best_perm, best_obj
    else:
        perm, objective = current, last_obj
    return perm, objective, iterations, converged, trajectory, iterates


def apply_public_matmul(op, v):
    """A v as the sparse congruence product, through scipy's public
    `csr_array @ dense`: U = k G1 V G2 + (s3 - s2) (G1 V J + J V G2)
    + s2 J V J, two sparse-dense products plus rank-one corrections.

    `AlignmentOperator.apply` computed exactly this, bit for bit, on graphs
    above 50 vertices until it was reduced to its one dense factored
    product; this function is now the only record of that product. The
    CSR views are rebuilt through `csr_via_dense` and the coefficients
    recomputed from `op.params`. It agrees with `apply` to rounding, and
    with `permutation_product` of a permutation vector bit for bit.
    """
    p = op.params
    k_quad = p.s1 + p.s2 - 2.0 * p.s3
    k_lin = p.s3 - p.s2
    a1 = csr_via_dense(np.asarray(op.g1.adjacency))
    a2 = csr_via_dense(np.asarray(op.g2.adjacency))
    n = op.n
    V = np.asarray(v, dtype=np.float64).reshape(n, n)
    U = k_quad * (a2 @ (a1 @ V).T).T
    row = a1 @ V.sum(axis=1)
    col = a2 @ V.sum(axis=0)
    U += k_lin * (row[:, None] + col[None, :])
    U += p.s2 * V.sum()
    return U.reshape(n * n)


def permutation_product_public_matmul(op, mapping):
    """AlignmentOperator.permutation_product through scipy's public `@`:
    k_quad * G1 @ G2[perm], then the degree and constant terms."""
    p = op.params
    k_quad = p.s1 + p.s2 - 2.0 * p.s3
    k_lin = p.s3 - p.s2
    adj1 = np.asarray(op.g1.adjacency)
    adj2 = np.asarray(op.g2.adjacency)
    deg1 = adj1.sum(axis=1).astype(np.float64)
    deg2 = adj2.sum(axis=1).astype(np.float64)
    U = k_quad * (csr_via_dense(adj1) @ adj2.astype(np.float64)[np.asarray(mapping)])
    U += k_lin * (deg1[:, None] + deg2[None, :])
    U += p.s2 * float(op.n)
    return U


def apply_factored_matmul(op, v):
    """AlignmentOperator.apply through numpy's public `@`: (k M1) V M2 plus
    d * sum(V), with M_i = G_i + c J and (k, c, d) recomputed from
    `op.params`."""
    p = op.params
    k = p.s1 + p.s2 - 2.0 * p.s3
    k_lin = p.s3 - p.s2
    c = k_lin / k
    d = p.s2 - k_lin ** 2 / k
    n = op.n
    V = np.array(v, dtype=np.float64).reshape(n, n)
    U = (k * (np.asarray(op.g1.adjacency) + c)) @ V @ (np.asarray(op.g2.adjacency) + c)
    U += d * V.sum()
    return U.reshape(n * n)
