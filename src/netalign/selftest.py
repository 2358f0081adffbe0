"""Self-verification suites runnable from the command line.

Each suite re-derives expected behavior from an independent oracle (explicit
dense matrices, exhaustive permutation search, dense eigensolvers, planted
instances) and checks the production code paths against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import align, operator, rounding, spectral
from ._kernels import extension_module
from .graphs import RngSeed, generate_er
from .harness import make_instance, mix64

__all__ = ["SuiteResult", "check_args", "run_all_suites"]

linear_sum_assignment = extension_module("scipy.optimize._lsap").linear_sum_assignment


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _random_pair(n: int, seed: int):
    g1 = generate_er(n, 0.5, RngSeed(mix64(seed, 1)))
    g2 = generate_er(n, 0.5, RngSeed(mix64(seed, 2)))
    return g1, g2


def _params_for(g1, g2):
    return operator.make_params(operator.compute_alpha(g1, g2))


def _draws_checked(checked: int, draws: int) -> str:
    """Pairs checked of those drawn; two empty graphs have no scoring balance."""
    return f"{checked} of {draws} draws ({draws - checked} empty pairs skipped)"


def _draw_size(k: int, max_n: int) -> int:
    """Draw k's vertex count: 2 and 3 once each, then 4..`max_n` in turn, as
    n = 2 and 3 have only a handful of distinct graph pairs; 2..`max_n` in
    turn when `max_n` < 4."""
    if max_n < 4:
        return 2 + k % (max_n - 1)
    return 2 + k if k < 2 else 4 + (k - 2) % (max_n - 3)


def suite_dense_equivalence(max_n: int, seed: int, draws: int = 40) -> SuiteResult:
    """The operator's factored product `apply` vs the loop-built dense matrix."""
    rng = RngSeed(mix64(seed, 101)).generator()
    worst = 0.0
    checked = 0
    for k in range(draws):
        n = _draw_size(k, max_n)
        g1, g2 = _random_pair(n, mix64(seed, 11, k))
        try:
            params = _params_for(g1, g2)
        except operator.DegenerateBalanceError:
            continue
        op = operator.AlignmentOperator(g1, g2, params)
        dense = operator.dense_alignment_matrix(g1, g2, params)
        v = rng.standard_normal(n * n)
        expected = dense @ v
        scale = max(np.linalg.norm(expected), 1e-300)
        worst = max(worst, float(np.linalg.norm(op.apply(v) - expected) / scale))
        checked += 1
    ok = worst < 1e-12
    return SuiteResult("dense-operator-equivalence", ok,
                       f"max relative error {worst:.3e} of apply against the dense matrix "
                       f"over {_draws_checked(checked, draws)} (tol 1e-12)")


# Planted pairs (n, p, lambda) above `rounding.SORT_DUALS_MIN_N`: the denser
# one fails the sort matching's certificate and is solved whole, while the
# sparse one's sort matching is certified, or repaired in small blocks.
PLANTED_PAIRS = ((60, 0.1, 0.05), (200, 0.02, 0.001))


def suite_matching_oracle(seed: int, draws: int = 50, n: int = 6) -> SuiteResult:
    """Exact assignment vs exhaustive n! search; then, on the EigenAlign
    scores of each planted pair (solved on sort-matching duals), its exact
    total vs scipy's raw solve and the column-reduced solve, and
    `eigen_align`'s in-place rounding, which reads the sort duals'
    statistics off the Krylov factors, vs that of the read-only vector by
    passes over it; the factors' rounding out of place too."""
    rng = RngSeed(mix64(seed, 102)).generator()
    for k in range(draws):
        scores = rng.standard_normal((n, n))
        sigma = rounding.max_weight_matching(scores)
        got = float(scores[np.arange(n), sigma.map].sum())
        best = max(sum(scores[i, pi[i]] for i in range(n))
                   for pi in itertools.permutations(range(n)))
        if got != best:
            return SuiteResult("assignment-oracle", False,
                               f"draw {k}: assignment weight {got} != brute force {best}")
    for planted_n, p, lam in PLANTED_PAIRS:
        g1, g2, _ = make_instance(planted_n, p, lam, 0, seed)
        eig = spectral.top_eigenvector(align.build_operator(g1, g2))
        scores = eig.vector.reshape(planted_n, planted_n)
        col_mean = scores.sum(axis=0) / planted_n
        if rounding._sort_duals(scores, col_mean) is None:
            return SuiteResult("assignment-oracle", False,
                               f"planted n={planted_n}: the guard rejected the sort-matching duals")
        exact = rounding.max_weight_matching(scores).map
        if eig._factors is not None and not np.array_equal(
                rounding._max_weight_matching(scores, factors=eig._factors).map, exact):
            return SuiteResult("assignment-oracle", False,
                               f"planted n={planted_n}: the rounding from the eigenvector's "
                               "factors differs from the rounding by passes over it")
        if not np.array_equal(align.eigen_align(g1, g2).permutation.map, exact):
            return SuiteResult("assignment-oracle", False,
                               f"planted n={planted_n}: eigen_align's in-place rounding differs "
                               "from the rounding of the read-only eigenvector")
        _, raw = linear_sum_assignment(scores, maximize=True)
        _, column_reduced = linear_sum_assignment(col_mean - scores)
        got, *others = (sum(map(Fraction, scores[np.arange(planted_n), mapping].tolist()))
                        for mapping in (exact, raw, column_reduced))
        for name, best in zip(("scipy's raw solve", "the column-reduced solve"), others):
            if got < best:
                return SuiteResult("assignment-oracle", False,
                                   f"planted n={planted_n}: exact total {float(got)!r} is below "
                                   f"{name} by {float(best - got):.3e}")
    sizes = " and ".join(f"n={planted_n}" for planted_n, _, _ in PLANTED_PAIRS)
    return SuiteResult("assignment-oracle", True,
                       f"{draws} random {n}x{n} matrices match the exhaustive optimum; "
                       f"the planted {sizes} scores' exact totals are at least scipy's raw "
                       "and column-reduced solves', and eigen_align returns the same solves")


def suite_eigen_residual(max_n: int, seed: int, draws: int = 20) -> SuiteResult:
    """Power iteration vs dense symmetric eigensolver on the oracle matrix,
    both the `apply` loop `top_eigenvector` runs at these sizes and the
    Kronecker-Krylov loop it runs above `spectral.DENSE_MAX_N`."""
    worst = 0.0
    checked = 0
    for k in range(draws):
        n = _draw_size(k, max_n)
        g1, g2 = _random_pair(n, mix64(seed, 13, k))
        try:
            params = _params_for(g1, g2)
        except operator.DegenerateBalanceError:
            continue
        op = operator.AlignmentOperator(g1, g2, params)
        dense = operator.dense_alignment_matrix(g1, g2, params)
        values, vectors = np.linalg.eigh(dense)
        top = vectors[:, -1]
        if top.sum() < 0:
            top = -top
        for res in (spectral.top_eigenvector(op, tol=1e-10, max_iters=20000),
                    spectral._krylov_top_eigenvector(op, tol=1e-10, max_iters=20000)):
            err = max(abs(res.value - values[-1]) / max(1.0, abs(values[-1])),
                      float(np.abs(res.vector - top).max()))
            worst = max(worst, err)
        checked += 1
    ok = worst < 1e-6
    return SuiteResult("eigen-vs-dense", ok,
                       f"max eigenpair deviation {worst:.3e} of the apply and Krylov loops "
                       f"over {_draws_checked(checked, draws)} (tol 1e-6)")


def suite_noiseless_recovery(seed: int, trials: int = 5, n: int = 15) -> SuiteResult:
    """Both pipelines must align a noiseless planted instance edge-perfectly."""
    for t in range(trials):
        g1, g2, _ = make_instance(n, 0.3, 0.0, t, seed)
        for runner in (align.eigen_align, align.projected_power_align):
            result = runner(g1, g2)
            if result.matched_edges != g1.edge_count:
                return SuiteResult(
                    "noiseless-recovery", False,
                    f"trial {t}: {runner.__name__} matched {result.matched_edges} "
                    f"of {g1.edge_count} edges")
    return SuiteResult("noiseless-recovery", True,
                       f"{trials} noiseless instances at n={n} aligned edge-perfectly "
                       "by both pipelines")


def check_args(max_n: int, seed: int) -> None:
    """The suites' argument rules: the dense oracles' size `max_n` must lie
    in 2..`DENSE_ORACLE_CAP`, and `seed` must be a `RngSeed` base seed."""
    if not 2 <= max_n <= operator.DENSE_ORACLE_CAP:
        raise ValueError(f"max-n must lie in 2..{operator.DENSE_ORACLE_CAP}, got {max_n}")
    RngSeed(seed)


def run_all_suites(max_n: int = 6, seed: int = 0) -> list[SuiteResult]:
    """Every suite, with dense oracles of size 2..`max_n` (`check_args`)."""
    check_args(max_n, seed)
    return [
        suite_dense_equivalence(max_n, seed),
        suite_matching_oracle(seed, n=min(max_n, 6)),
        suite_eigen_residual(max_n, seed),
        suite_noiseless_recovery(seed),
    ]
