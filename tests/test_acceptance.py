"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criteria 3-5 run the oracle suites of `netalign
selftest` (src/netalign/selftest.py). Criteria 1-5 and 9 use the frozen base
seed; every run is deterministic given the same numpy/scipy builds.
"""

import itertools
import time

import numpy as np

from netalign import selftest
from netalign.align import (AlignConfig, build_operator, eigen_align,
                            projected_power_align)
from netalign.cli import main as cli_main
from netalign.graphs import Permutation, RngSeed, generate_er
from netalign.harness import (ALGORITHMS, GridSpec, TrialSpec, run_grid,
                              run_trial, summarize)
from netalign.operator import DegenerateBalanceError, dense_alignment_matrix
from netalign.rounding import greedy_round

import oracles

BASE_SEED = 3  # frozen fixture for the statistical criteria


def report(number, name, ok, detail):
    print(f"[ACCEPTANCE {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def random_pair(n, seed, p=0.5):
    return (generate_er(n, p, RngSeed(seed, 1)),
            generate_er(n, p, RngSeed(seed, 2)))


def test_criterion_1_noiseless_perfection():
    """Every noiseless trial recovers the planted permutation exactly.

    At (n = 20, trial 4, seed 3) the pass rests on the exact assignment's
    tie-break between isolated vertices 15 and 16 of G1: their EigenAlign
    score rows are bit-equal, so the planted permutation and the one that
    swaps them tie (same objective, same 36 matched edges). The raw solve
    used below n = 25 returns the planted one; the column-reduced solve
    returns the swap, recovery 0.9.
    """
    started = time.perf_counter()
    worst = 1.0
    for n in (20, 50):
        for algo in ALGORITHMS:
            for trial in range(20):
                rec = run_trial(TrialSpec(n=n, p=0.2, lam=0.0, trial_index=trial,
                                          base_seed=BASE_SEED, algorithm=algo))
                worst = min(worst, rec.recovery_fraction)
    elapsed = time.perf_counter() - started
    report(1, "noiseless perfection", worst == 1.0,
           f"min recovery {worst} over 80 trials, {elapsed:.1f}s")


def test_criterion_2_ppa_improvement():
    started = time.perf_counter()
    # ppa_max_iters=60: run closer to convergence than the default timeout.
    cfg = AlignConfig(ppa_max_iters=60)
    grid = GridSpec(n_list=(20, 30, 40), lambda_list=(0.05, 0.10, 0.15), p=0.2,
                    trials=20, algorithms=ALGORITHMS, base_seed=BASE_SEED, cfg=cfg)
    summary = {(c.n, c.lam, c.algorithm): c.mean_recovery
               for c in summarize(run_grid(grid))}
    violations = []
    strictly_greater = 0
    for n in grid.n_list:
        for lam in grid.lambda_list:
            ea = summary[(n, lam, "eigenalign")]
            ppa = summary[(n, lam, "ppa")]
            if ppa < ea - 0.02:
                violations.append((n, lam, round(ea - ppa, 4)))
            if ppa > ea:
                strictly_greater += 1
    elapsed = time.perf_counter() - started
    ok = not violations and strictly_greater >= 1
    report(2, "projected-power improvement", ok,
           f"violations={violations}, strictly greater in {strictly_greater}/9 cells, "
           f"{elapsed:.1f}s")


def test_criterion_3_operator_correctness():
    started = time.perf_counter()
    res = selftest.suite_dense_equivalence(max_n=6, seed=BASE_SEED, draws=100)
    report(3, "operator matches dense oracle", res.passed,
           f"{res.detail}, {time.perf_counter() - started:.1f}s")


def test_criterion_4_exact_rounding():
    started = time.perf_counter()
    res = selftest.suite_matching_oracle(seed=BASE_SEED, draws=200)
    report(4, "exact assignment rounding", res.passed,
           f"{res.detail}, {time.perf_counter() - started:.1f}s")


def test_criterion_5_spectral_accuracy():
    started = time.perf_counter()
    res = selftest.suite_eigen_residual(max_n=5, seed=BASE_SEED, draws=50)
    report(5, "power iteration matches dense eigensolver", res.passed,
           f"{res.detail}, {time.perf_counter() - started:.1f}s")


def test_criterion_6_greedy_semantics():
    started = time.perf_counter()
    ok = (greedy_round(np.array([[0.9, 0.5], [0.8, 0.1]])) == Permutation([0, 1])
          and greedy_round(np.array([[0.1, 0.9], [0.8, 0.7]])) == Permutation([1, 0]))
    fixed_points = 0
    for pi in itertools.permutations(range(4)):
        matrix = np.zeros((4, 4))
        matrix[np.arange(4), pi] = 1.0
        fixed_points += greedy_round(matrix) == Permutation(list(pi))
    ok = ok and fixed_points == 24
    elapsed = time.perf_counter() - started
    report(6, "greedy rounding semantics", ok,
           f"2 worked examples, {fixed_points}/24 permutation fixed points, {elapsed:.1f}s")


def test_criterion_7_objective_consistency():
    started = time.perf_counter()
    worst_rel = 0.0
    bounded = True
    checked = 0
    k = 0
    while checked < 12:
        n = 4 + k % 3  # n in 4..6
        g1, g2 = random_pair(n, 70000 + k)
        k += 1
        try:
            op = build_operator(g1, g2)
        except DegenerateBalanceError:
            continue
        dense = dense_alignment_matrix(g1, g2, op.params)
        best = oracles.best_quadratic_objective(dense, n)
        for runner in (eigen_align, projected_power_align):
            result = runner(g1, g2)
            expected = oracles.quadratic_objective(dense, n, result.permutation.map)
            worst_rel = max(worst_rel, abs(result.objective - expected) / abs(expected))
            bounded = bounded and result.objective <= best + 1e-9 * abs(best)
        checked += 1
    elapsed = time.perf_counter() - started
    report(7, "objective consistency", worst_rel < 1e-9 and bounded,
           f"max relative deviation {worst_rel:.2e}, brute-force bound "
           f"{'held' if bounded else 'violated'} over {checked} instances, {elapsed:.1f}s")


def test_criterion_8_reproducibility(tmp_path):
    started = time.perf_counter()
    base = ["sweep", "--n", "10,20", "--p", "0.2", "--lambda", "0,0.1",
            "--trials", "5", "--seed", "7"]
    paths = [tmp_path / name for name in
             ("first.csv", "second.csv", "serial.csv", "parallel.csv")]
    assert cli_main(base + ["--csv", str(paths[0])]) == 0
    assert cli_main(base + ["--csv", str(paths[1])]) == 0
    assert cli_main(base + ["--csv", str(paths[2]), "--workers", "1"]) == 0
    assert cli_main(base + ["--csv", str(paths[3]), "--workers", "8"]) == 0
    repeat_ok = paths[0].read_bytes() == paths[1].read_bytes()
    workers_ok = paths[2].read_bytes() == paths[3].read_bytes()
    elapsed = time.perf_counter() - started
    report(8, "byte-identical sweep output", repeat_ok and workers_ok,
           f"repeat identical: {repeat_ok}, 1-vs-8 workers identical: {workers_ok}, "
           f"{elapsed:.1f}s")


def test_criterion_9_noise_monotonicity():
    started = time.perf_counter()
    grid = GridSpec(n_list=(30,), lambda_list=(0.0, 0.3), p=0.2, trials=20,
                    algorithms=ALGORITHMS, base_seed=BASE_SEED)
    cells = {(c.lam, c.algorithm): c.mean_recovery
             for c in summarize(run_grid(grid))}
    gaps = {algo: cells[(0.0, algo)] - cells[(0.3, algo)] for algo in ALGORITHMS}
    ok = all(gap > 0 for gap in gaps.values())
    elapsed = time.perf_counter() - started
    report(9, "recovery decays with noise", ok,
           f"mean recovery drop lambda 0 -> 0.3: "
           f"{ {a: round(g, 3) for a, g in gaps.items()} }, {elapsed:.1f}s")
