"""Self-verification suites runnable from the command line.

Each suite re-derives expected behavior from an independent oracle (explicit
dense matrices, exhaustive permutation search, dense eigensolvers, planted
instances) and checks the production code paths against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import align, operator, rounding, spectral
from .graphs import RngSeed, generate_er
from .harness import mix64

__all__ = ["SuiteResult", "run_all_suites"]


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


def suite_dense_equivalence(max_n: int, seed: int, draws: int = 40) -> SuiteResult:
    """Implicit operator products (the dense factored one `apply` takes at
    these sizes, and the sparse one) vs the loop-built dense matrix."""
    rng = RngSeed(mix64(seed, 101)).generator()
    worst = 0.0
    for k in range(draws):
        n = 2 + k % (max_n - 1)
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
        for got in (op.apply(v), op._sparse_product(v.reshape(n, n)).reshape(-1)):
            worst = max(worst, float(np.linalg.norm(got - expected) / scale))
    ok = worst < 1e-12
    return SuiteResult("dense-operator-equivalence", ok,
                       f"max relative error {worst:.3e} of the dense and sparse products "
                       f"over {draws} draws (tol 1e-12)")


def suite_matching_oracle(seed: int, draws: int = 50, n: int = 6) -> SuiteResult:
    """Exact assignment vs exhaustive n! search."""
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
    return SuiteResult("assignment-oracle", True,
                       f"{draws} random {n}x{n} matrices match the exhaustive optimum")


def suite_eigen_residual(max_n: int, seed: int, draws: int = 20) -> SuiteResult:
    """Power iteration vs dense symmetric eigensolver on the oracle matrix."""
    worst = 0.0
    for k in range(draws):
        n = 2 + k % (max_n - 1)
        g1, g2 = _random_pair(n, mix64(seed, 13, k))
        try:
            params = _params_for(g1, g2)
        except operator.DegenerateBalanceError:
            continue
        op = operator.AlignmentOperator(g1, g2, params)
        res = spectral.top_eigenvector(op, tol=1e-10, max_iters=20000)
        dense = operator.dense_alignment_matrix(g1, g2, params)
        values, vectors = np.linalg.eigh(dense)
        top = vectors[:, -1]
        if top.sum() < 0:
            top = -top
        err = max(abs(res.value - values[-1]) / max(1.0, abs(values[-1])),
                  float(np.abs(res.vector - top).max()))
        worst = max(worst, err)
    ok = worst < 1e-6
    return SuiteResult("eigen-vs-dense", ok,
                       f"max eigenpair deviation {worst:.3e} over {draws} draws (tol 1e-6)")


def suite_noiseless_recovery(seed: int, trials: int = 5, n: int = 15) -> SuiteResult:
    """Both pipelines must align a noiseless planted instance edge-perfectly."""
    from .harness import make_instance
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


def run_all_suites(max_n: int = 6, seed: int = 0) -> list[SuiteResult]:
    if max_n < 2:
        raise ValueError("max-n must be at least 2")
    max_n = min(max_n, operator.DENSE_ORACLE_CAP)
    return [
        suite_dense_equivalence(max_n, seed),
        suite_matching_oracle(seed, n=min(max_n, 6)),
        suite_eigen_residual(min(max_n, 5), seed),
        suite_noiseless_recovery(seed),
    ]
