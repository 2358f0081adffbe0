import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import netalign.align as align
import netalign.harness as harness
from netalign.align import build_operator, eigen_align, projected_power_align
from netalign.graphs import MAX_EDGE_LIST_VERTICES
from netalign.harness import (ALGORITHMS, CSV_HEADER, CellSummary, GridSpec,
                              TrialRecord, TrialSpec, derive_stream,
                              make_instance, mix64, read_csv, render_heatmap,
                              run_grid, run_trial, summarize, write_csv,
                              write_heatmap_legend, STREAM_GRAPH, STREAM_NOISE,
                              STREAM_PERM)
from netalign.operator import quadratic_form
from netalign.rounding import greedy_round, max_weight_matching
from netalign.spectral import DEFAULT_MAX_ITERS, DEFAULT_TOL, top_eigenvector

import oracles
from blas_core import openblas_core

# The grid of `test_sweep_bytes_pinned`.
PINNED_GRID = GridSpec(n_list=(10, 20, 30),
                       lambda_list=(0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
                       p=0.2, trials=3, base_seed=3)


def pinned_instances():
    """((n, lambda, trial), g1, g2, operator) for each instance of PINNED_GRID."""
    for n in PINNED_GRID.n_list:
        for lam in PINNED_GRID.lambda_list:
            for trial in range(PINNED_GRID.trials):
                g1, g2, _ = make_instance(n, PINNED_GRID.p, lam, trial, PINNED_GRID.base_seed)
                yield (n, lam, trial), g1, g2, build_operator(g1, g2)


# Runs PPA on each pair of PINNED_GRID and prints, per run, the greedy
# rounding of the spectral start and the result's permutation, matched
# edges, objective bytes and trajectory bytes, with the OpenBLAS core.
PPA_CORE_SCRIPT = """
import json, sys
import numpy as np
from netalign.align import build_operator, projected_power_align
from netalign.harness import make_instance
from netalign.rounding import greedy_round
from netalign.spectral import top_eigenvector
from blas_core import openblas_core
n_list, lambda_list, p, trials, seed = json.loads(sys.argv[1])
report = {"core": openblas_core(), "runs": {}}
for n in n_list:
    for lam in lambda_list:
        for trial in range(trials):
            g1, g2, _ = make_instance(n, p, lam, trial, seed)
            start = greedy_round(top_eigenvector(build_operator(g1, g2)).vector.reshape(n, n))
            result = projected_power_align(g1, g2)
            report["runs"][f"{n} {lam} {trial}"] = [
                start.map.tolist(), result.permutation.map.tolist(), result.matched_edges,
                np.float64(result.objective).tobytes().hex(), result.trajectory.tobytes().hex()]
print(json.dumps(report))
"""


def exact_top_eigenvector(g1, g2, op):
    """The closed-form top eigenvector of op (oracle), as an n x n matrix."""
    p = op.params
    return oracles.top_eigenpair_closed_form(g1.adjacency, g2.adjacency, p.s1, p.s2, p.s3)[1]


class TestStreamDerivation:
    def test_purposes_give_distinct_streams(self):
        streams = {derive_stream(0, 10, 0.2, 0.1, 3, tag).stream_id
                   for tag in (STREAM_GRAPH, STREAM_NOISE, STREAM_PERM)}
        assert len(streams) == 3

    def test_trial_coordinates_matter(self):
        a = derive_stream(0, 10, 0.2, 0.1, 3, STREAM_GRAPH)
        b = derive_stream(0, 10, 0.2, 0.1, 4, STREAM_GRAPH)
        c = derive_stream(0, 11, 0.2, 0.1, 3, STREAM_GRAPH)
        assert len({a.stream_id, b.stream_id, c.stream_id}) == 3

    def test_mix64_stable_values(self):
        # Frozen: documents that the derivation constants never drift.
        assert mix64(0) == 16294208416658607535  # splitmix64(0), the reference value
        assert mix64(1, 2, 3) == 15020427595393229491

    def test_make_instance_draws_the_derived_streams(self, monkeypatch):
        # make_instance folds the trial coordinates once; its three streams
        # are still those of derive_stream, whose ids are mix64 of all six.
        used = []
        for name in ("generate_er", "apply_noise", "random_permutation"):
            draw = getattr(harness, name)
            monkeypatch.setattr(harness, name,
                                lambda *args, draw=draw: used.append(args[-1]) or draw(*args))
        purposes = (STREAM_GRAPH, STREAM_NOISE, STREAM_PERM)
        for base_seed in (0, 3, 2**64 - 1):
            for n in (1, 10, 50):
                for lam in (0.0, 0.05, 0.5):
                    for trial in (0, 7):
                        used.clear()
                        make_instance.__wrapped__(n, 0.2, lam, trial, base_seed)
                        derived = [derive_stream(base_seed, n, 0.2, lam, trial, purpose)
                                   for purpose in purposes]
                        assert used == derived
                        assert [s.stream_id for s in derived] == [
                            mix64(base_seed, n, 200_000, round(lam * 1e6), trial, purpose)
                            for purpose in purposes]

    def test_threads_draw_the_serial_instances(self):
        # Each thread draws through its own generator: four threads racing
        # over 36 cells, 20 times, draw what one thread draws.
        cells = [(n, 0.2, lam, trial, 5) for n in (5, 12, 20) for lam in (0.0, 0.1, 0.3)
                 for trial in range(4)]

        def drawn(cell):
            g1, g2, planted = make_instance.__wrapped__(*cell)
            return g1.adjacency.tobytes(), g2.adjacency.tobytes(), planted.map.tobytes()

        serial = [drawn(cell) for cell in cells]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(4) as pool:
                for _ in range(20):
                    assert list(pool.map(drawn, cells)) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_last_instance_kept(self):
        a = make_instance(9, 0.3, 0.2, 6, 17)
        assert make_instance(9, 0.3, 0.2, 6, 17) is a
        drawn = make_instance.__wrapped__(9, 0.3, 0.2, 6, 17)
        assert drawn is not a and drawn == a

    def test_instances_shared_across_algorithms(self):
        # Stream derivation has no algorithm input; the planted instance is a
        # pure function of (base_seed, n, p, lambda, trial).
        a = make_instance(9, 0.3, 0.2, 5, 17)
        b = make_instance(9, 0.3, 0.2, 5, 17)
        assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]


class TestRunTrial:
    def test_noiseless_recovers_planted(self):
        for algo in ALGORITHMS:
            rec = run_trial(TrialSpec(n=20, p=0.2, lam=0.0, trial_index=0,
                                      base_seed=3, algorithm=algo))
            assert rec.recovery_fraction == 1.0
            assert rec.exact
            assert rec.objective_ratio == 1.0

    def test_single_vertex_trivial(self):
        rec = run_trial(TrialSpec(n=1, p=0.5, lam=0.5, trial_index=0,
                                  base_seed=0, algorithm="ppa"))
        assert rec.recovery_fraction == 1.0 and rec.exact

    def test_duplicate_execution_oracle(self):
        # Recompute the whole pipeline from the same streams by hand.
        spec = TrialSpec(n=6, p=0.5, lam=0.1, trial_index=2, base_seed=11,
                         algorithm="eigenalign")
        rec = run_trial(spec)
        g1, g2, planted = make_instance(6, 0.5, 0.1, 2, 11)
        result = eigen_align(g1, g2, spec.cfg)
        recovery = float((result.permutation.map == planted.map).mean())
        assert rec.recovery_fraction == pytest.approx(recovery, abs=1e-6)
        assert rec.matched_edges == result.matched_edges
        op = build_operator(g1, g2, spec.cfg.epsilon)
        ratio = result.objective / quadratic_form(op, planted)
        assert rec.objective_ratio == pytest.approx(ratio, rel=1e-5)

    def test_ppa_duplicate_execution(self):
        spec = TrialSpec(n=6, p=0.5, lam=0.1, trial_index=4, base_seed=11,
                         algorithm="ppa")
        rec = run_trial(spec)
        g1, g2, planted = make_instance(6, 0.5, 0.1, 4, 11)
        result = projected_power_align(g1, g2, spec.cfg)
        assert rec.recovery_fraction == pytest.approx(
            float((result.permutation.map == planted.map).mean()), abs=1e-6)

    def test_degenerate_trial_recorded_with_reason(self):
        rec = run_trial(TrialSpec(n=4, p=0.0, lam=0.0, trial_index=0,
                                  base_seed=0, algorithm="eigenalign"))
        assert rec.failure is not None
        assert "empty" in rec.failure
        assert rec.recovery_fraction == 0.0 and not rec.exact

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TrialSpec(n=5, p=0.2, lam=0.0, trial_index=0, base_seed=0,
                      algorithm="nope")
        with pytest.raises(ValueError):
            TrialSpec(n=5, p=1.2, lam=0.0, trial_index=0, base_seed=0,
                      algorithm="ppa")
        with pytest.raises(ValueError, match="n must be at most"):
            TrialSpec(n=MAX_EDGE_LIST_VERTICES + 1, p=0.2, lam=0.0, trial_index=0,
                      base_seed=0, algorithm="ppa")

    def test_every_spec_gives_a_record_read_csv_accepts(self):
        # `read_csv` refuses a negative trial_index, so `TrialSpec` does too.
        with pytest.raises(ValueError, match="trial_index must be nonnegative"):
            TrialSpec(n=5, p=0.4, lam=0.0, trial_index=-1, base_seed=0,
                      algorithm="ppa")
        record = run_trial(TrialSpec(n=5, p=0.4, lam=0.0, trial_index=0, base_seed=0,
                                     algorithm="ppa"))
        sink = io.StringIO()
        write_csv([record], sink)
        assert read_csv(io.StringIO(sink.getvalue())) == [record]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_one_operator_per_trial(self, monkeypatch, algorithm):
        # The planted permutation is scored in closed form, so the matcher's
        # operator is the only one built, and the cell's other matcher reuses it.
        built = []
        real = align.build_operator

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(align, "build_operator", counting)
        monkeypatch.setattr(harness, "build_operator", counting)
        align._kept_start.cache_clear()
        spec = TrialSpec(n=9, p=0.4, lam=0.1, trial_index=6, base_seed=13,
                         algorithm=algorithm)
        rec = run_trial(spec)
        assert len(built) == 1
        [other] = set(ALGORITHMS) - {algorithm}
        run_trial(dataclasses.replace(spec, algorithm=other))
        assert len(built) == 1
        g1, g2, planted = make_instance(9, 0.4, 0.1, 6, 13)
        result = harness._run_algorithm(algorithm, g1, g2, harness.AlignConfig())
        planted_objective = quadratic_form(real(g1, g2), planted)
        assert rec.objective_ratio == harness._round6(result.objective / planted_objective)


class TestRunGrid:
    def test_shared_instance_record_pair(self):
        grid = GridSpec(n_list=(8,), lambda_list=(0.1,), p=0.4, trials=1,
                        base_seed=5)
        records = run_grid(grid)
        assert len(records) == 2
        assert {r.algorithm for r in records} == set(ALGORITHMS)
        g1a, g2a, _ = make_instance(8, 0.4, 0.1, 0, 5)
        g1b, g2b, _ = make_instance(8, 0.4, 0.1, 0, 5)
        assert g1a.edge_count == g1b.edge_count and g2a == g2b

    def test_ppa_records_do_not_depend_on_eigenalign_trials(self):
        both = GridSpec(n_list=(6, 12), lambda_list=(0.0, 0.2), p=0.3, trials=3,
                        base_seed=4)
        alone = GridSpec(n_list=both.n_list, lambda_list=both.lambda_list, p=both.p,
                         trials=both.trials, algorithms=("ppa",), base_seed=both.base_seed)
        ppa = [r for r in run_grid(both) if r.algorithm == "ppa"]
        assert len(ppa) == 12
        assert run_grid(alone) == ppa

    def test_records_imply_same_planted_objective(self):
        # objective / objective_ratio recovers the planted permutation's
        # score, which must agree across algorithms for every shared trial.
        grid = GridSpec(n_list=(10, 12), lambda_list=(0.0, 0.15), p=0.3,
                        trials=3, base_seed=9)
        by_trial = {}
        for rec in run_grid(grid):
            planted_objective = rec.objective / rec.objective_ratio
            by_trial.setdefault((rec.n, rec.lam, rec.trial_index), []).append(
                planted_objective)
        for values in by_trial.values():
            assert len(values) == 2
            assert values[0] == pytest.approx(values[1], rel=1e-4)

    def test_cardinality(self):
        grid = GridSpec(n_list=(6, 8), lambda_list=(0.0, 0.05), p=0.4,
                        trials=3, base_seed=1)
        records = run_grid(grid)
        assert len(records) == 2 * 2 * 3 * 2
        keys = {(r.n, r.lam, r.trial_index, r.algorithm) for r in records}
        assert len(keys) == len(records)

    def test_worker_count_does_not_change_records(self):
        grid = GridSpec(n_list=(6, 7), lambda_list=(0.0, 0.1), p=0.5,
                        trials=2, base_seed=2)
        serial = run_grid(grid, workers=1)
        parallel = run_grid(grid, workers=4)
        assert serial == parallel
        a, b = io.StringIO(), io.StringIO()
        write_csv(serial, a)
        write_csv(parallel, b)
        assert a.getvalue() == b.getvalue()

    @pytest.mark.parametrize("workers,cpus,started", [
        (5000, 64, 3),   # 20 trials: three chunks of eight
        (5000, 2, 2),    # no more processes than CPUs
        (2, 64, 2),
        (5000, 1, None),  # one CPU: serial, no pool at all
    ])
    def test_pool_size_is_clamped(self, monkeypatch, workers, cpus, started):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(harness, "_available_cpus", lambda: cpus)
        grid = GridSpec(n_list=(6,), lambda_list=(0.0, 0.1), p=0.5, trials=5,
                        base_seed=2)
        assert len(grid.specs()) == 20
        records = run_grid(grid, workers=workers)
        assert sizes == ([] if started is None else [started])
        assert records == run_grid(grid, workers=1)

    def test_sweep_bytes_pinned(self):
        # Small-n grids are full of score ties, so any change to the order of
        # floating-point operations in the matchers tends to show up here.
        # The grid runs on the dense product; where its EigenAlign
        # permutations differ from those of the sparse congruence product
        # (oracle) they tie (next test), and where PPA's first iterate, the
        # greedy rounding of v0, differs from that of A v0 they tie too. The
        # digest was recorded on OpenBLAS's SkylakeX core; a tie can round
        # the other way on another core.
        sink = io.StringIO()
        write_csv(run_grid(PINNED_GRID), sink)
        assert hashlib.sha256(sink.getvalue().encode()).hexdigest() == (
            "0cf5e26f62456d3df680290f40c7f1f284173e9fdc9c60fcf99e1afea2372abe"), (
            f"recorded on OpenBLAS core SkylakeX, run on {openblas_core()}")

    def test_dense_product_moves_only_tied_eigenalign_permutations(self):
        # EigenAlign on the pinned grid with the dense product and with the
        # sparse congruence product (oracle, the power loop of the earlier
        # code bit for bit): wherever the two permutations differ, they score
        # within 4 ulps of each other on the exact top eigenvector (oracle),
        # i.e. they tie.
        changed = 0
        for key, g1, g2, op in pinned_instances():
            n = g1.n
            sparse, *_ = oracles.power_iteration_linalg_norm(
                lambda v: oracles.apply_public_matmul(op, v), n,
                DEFAULT_TOL, DEFAULT_MAX_ITERS)
            perms = [max_weight_matching(vector.reshape(n, n)).map
                     for vector in (top_eigenvector(op).vector, sparse)]
            if np.array_equal(*perms):
                continue
            changed += 1
            exact = exact_top_eigenvector(g1, g2, op)
            scores = [oracles.assignment_score(exact, m) for m in perms]
            assert abs(scores[0] - scores[1]) <= 4 * np.spacing(max(scores)), key
        assert changed >= 1  # rounding differs somewhere on a grid this tie-heavy

    def test_ppa_start_rounding_moves_only_tied_first_iterates(self):
        # PPA's first iterate is the greedy rounding of v0 rather than of the
        # float product A v0 (a positive multiple of v0 up to rounding).
        # Wherever the two roundings differ on the pinned grid, they score
        # within 4 ulps of each other on the exact top eigenvector (oracle),
        # i.e. they tie.
        moved = 0
        for key, g1, g2, op in pinned_instances():
            v0 = top_eigenvector(op).vector
            perms = [greedy_round(x.reshape(g1.n, g1.n)).map for x in (op.apply(v0), v0)]
            if np.array_equal(*perms):
                continue
            moved += 1
            exact = exact_top_eigenvector(g1, g2, op)
            scores = [oracles.assignment_score_exact(exact, m) for m in perms]
            assert abs(scores[0] - scores[1]) <= 4 * np.spacing(float(max(scores))), key
        assert moved >= 1  # 5 instances at n = 10

    def test_ppa_loop_independent_of_the_blas_core(self):
        # PPA's loop scores iterates by the closed form of their matched
        # edges and projects integer-valued products, so once the start
        # rounding agrees, OpenBLAS's Prescott core gives the default core's
        # bytes. (The start itself follows the eigenvector's rounding.)
        tests = Path(__file__).resolve().parent
        grid = [PINNED_GRID.n_list, PINNED_GRID.lambda_list, PINNED_GRID.p,
                PINNED_GRID.trials, PINNED_GRID.base_seed]
        reports = []
        for core in (None, "Prescott"):
            env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
            env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests)])
            if core:
                env["OPENBLAS_CORETYPE"] = core
            result = subprocess.run([sys.executable, "-c", PPA_CORE_SCRIPT, json.dumps(grid)],
                                    capture_output=True, text=True, env=env)
            assert result.returncode == 0, result.stderr
            reports.append(json.loads(result.stdout))
        default, prescott = reports
        cores = default["core"], prescott["core"]
        same_start = [key for key, run in default["runs"].items()
                      if run[0] == prescott["runs"][key][0]]
        assert same_start, f"no start rounding agrees on cores {cores}"
        moved = [key for key in same_start if default["runs"][key] != prescott["runs"][key]]
        assert moved == [], f"cores {cores}"

    def test_monotone_noise_trend(self):
        grid = GridSpec(n_list=(12,), lambda_list=(0.0, 0.3), p=0.2,
                        trials=6, base_seed=3)
        cells = {(c.lam, c.algorithm): c.mean_recovery
                 for c in summarize(run_grid(grid))}
        for algo in ALGORITHMS:
            assert cells[(0.0, algo)] > cells[(0.3, algo)]

    def test_p_half_sweep(self):
        # The dense regime sweeps must run end to end as well.
        grid = GridSpec(n_list=(8, 10), lambda_list=(0.0, 0.1), p=0.5,
                        trials=2, base_seed=6)
        records = run_grid(grid)
        assert len(records) == 16
        assert all(r.failure is None for r in records)
        sink = io.StringIO()
        write_csv(records, sink)
        assert len(sink.getvalue().splitlines()) == 17

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(n_list=(), lambda_list=(0.1,), p=0.2)
        with pytest.raises(ValueError):
            GridSpec(n_list=(5,), lambda_list=(0.1,), p=0.2, trials=0)
        with pytest.raises(ValueError):
            GridSpec(n_list=(5,), lambda_list=(0.1,), p=0.2, algorithms=("x",))

    def test_grid_ranges_checked_up_front(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            GridSpec(n_list=(0,), lambda_list=(0.1,), p=0.2)
        with pytest.raises(ValueError, match="n must be at least 1"):
            GridSpec(n_list=(5, -3), lambda_list=(0.1,), p=0.2)
        for p in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="p must lie"):
                GridSpec(n_list=(5,), lambda_list=(0.1,), p=p)
        for lam in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="lambda must lie"):
                GridSpec(n_list=(5,), lambda_list=(0.0, lam), p=0.2)
        with pytest.raises(ValueError, match="n must be at most"):
            GridSpec(n_list=(5, MAX_EDGE_LIST_VERTICES + 1), lambda_list=(0.1,), p=0.2)
        GridSpec(n_list=(MAX_EDGE_LIST_VERTICES,), lambda_list=(0.1,), p=0.2)


class TestSummarize:
    def _record(self, **overrides):
        base = dict(n=10, p=0.2, lam=0.1, algorithm="ppa", trial_index=0,
                    recovery_fraction=0.5, exact=False, matched_edges=3,
                    objective=10.0, objective_ratio=0.9, iterations=4)
        base.update(overrides)
        return TrialRecord(**base)

    def test_single_record_cell(self):
        summary = summarize([self._record()])
        assert len(summary) == 1
        cell = summary[0]
        assert cell.mean_recovery == 0.5
        assert cell.mean_objective_ratio == 0.9
        assert cell.exact_rate == 0.0
        assert cell.mean_iterations == 4.0

    def test_two_record_mean(self):
        records = [self._record(trial_index=0, recovery_fraction=0.0),
                   self._record(trial_index=1, recovery_fraction=1.0, exact=True)]
        cell = summarize(records)[0]
        assert cell.mean_recovery == 0.5
        assert cell.exact_rate == 0.5

    def test_reversed_second_pass_oracle(self):
        rng = np.random.default_rng(9)
        records = [self._record(trial_index=k, recovery_fraction=float(v))
                   for k, v in enumerate(rng.random(20))]
        cell = summarize(records)[0]
        total = 0.0
        for rec in reversed(records):
            total += rec.recovery_fraction
        assert cell.mean_recovery == pytest.approx(total / 20, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestCsv:
    def test_single_record_two_lines(self):
        sink = io.StringIO()
        write_csv([TrialRecord(n=5, p=0.2, lam=0.0, algorithm="ppa",
                               trial_index=0, recovery_fraction=1.0, exact=True,
                               matched_edges=4, objective=30.25,
                               objective_ratio=1.0, iterations=2)], sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER
        assert lines[1] == "5,0.2,0,ppa,0,1,1,4,30.25,1,2,0"

    def test_round_trip_identity(self):
        grid = GridSpec(n_list=(6,), lambda_list=(0.0, 0.2), p=0.5, trials=3,
                        base_seed=4)
        records = run_grid(grid)
        sink = io.StringIO()
        write_csv(records, sink)
        parsed = read_csv(io.StringIO(sink.getvalue()))
        assert parsed == sorted(records, key=TrialRecord.sort_key)

    def test_rows_sorted_by_key(self):
        records = [
            TrialRecord(n=10, p=0.2, lam=0.1, algorithm="ppa", trial_index=1,
                        recovery_fraction=0.1, exact=False, matched_edges=1,
                        objective=1.0, objective_ratio=0.5, iterations=1),
            TrialRecord(n=5, p=0.2, lam=0.3, algorithm="eigenalign", trial_index=0,
                        recovery_fraction=0.2, exact=False, matched_edges=1,
                        objective=1.0, objective_ratio=0.5, iterations=1),
            TrialRecord(n=5, p=0.2, lam=0.1, algorithm="ppa", trial_index=0,
                        recovery_fraction=0.3, exact=False, matched_edges=1,
                        objective=1.0, objective_ratio=0.5, iterations=1),
        ]
        sink = io.StringIO()
        write_csv(records, sink)
        rows = sink.getvalue().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["5", "5", "10"]

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError, match="header"):
            read_csv(io.StringIO("nope\n"))

    def test_field_count_validated(self):
        with pytest.raises(ValueError, match="12 fields"):
            read_csv(io.StringIO(CSV_HEADER + "\n1,2,3\n"))

    @pytest.mark.parametrize("column, value, message", [
        (3, "bogus", "algorithm must be one of"),
        (6, "yes", "exact must be 0 or 1"),
        (6, "", "exact must be 0 or 1"),
        (0, "ten", "invalid literal"),
    ])
    def test_bad_field_rejected_with_line_number(self, column, value, message):
        good = "5,0.2,0,ppa,0,1,1,4,30.25,1,2,0"
        fields = good.split(",")
        fields[column] = value
        text = "\n".join([CSV_HEADER, good, ",".join(fields)]) + "\n"
        with pytest.raises(ValueError, match=f"line 3: {message}"):
            read_csv(io.StringIO(text))

    def test_out_of_range_row_rejected(self):
        # Parsed whole, this row would give the heatmap a gray level of 2295.
        text = CSV_HEADER + "\n-5,7,-3,ppa,-1,9,1,-4,nan,inf,-2,0\n"
        with pytest.raises(ValueError, match="line 2: n must be at least 1"):
            read_csv(io.StringIO(text))

    @pytest.mark.parametrize("column, value, message", [
        (0, "0", "n must be at least 1"),
        (0, str(MAX_EDGE_LIST_VERTICES + 1), "n must be at most"),
        (1, "1.5", "p must lie in"),
        (1, "nan", "p must lie in"),
        (2, "-0.1", "lambda must lie in"),
        (4, "-1", "trial_index must be nonnegative"),
        (5, "9", "recovery_fraction must lie in"),
        (5, "-0.5", "recovery_fraction must lie in"),
        (5, "nan", "recovery_fraction must lie in"),
        (7, "-4", "matched_edges must be nonnegative"),
        (8, "nan", "objective must be finite"),
        (9, "inf", "objective_ratio must be finite"),
        (10, "-2", "iterations must be nonnegative"),
    ])
    def test_out_of_range_field_rejected_with_line_number(self, column, value, message):
        good = "5,0.2,0,ppa,0,1,1,4,30.25,1,2,0"
        fields = good.split(",")
        fields[column] = value
        text = "\n".join([CSV_HEADER, good, ",".join(fields)]) + "\n"
        with pytest.raises(ValueError, match=f"line 3: {message}"):
            read_csv(io.StringIO(text))

    def test_range_edges_and_failed_trials_round_trip(self):
        records = [
            TrialRecord(n=1, p=0.0, lam=1.0, algorithm="eigenalign", trial_index=0,
                        recovery_fraction=1.0, exact=True, matched_edges=0,
                        objective=0.0, objective_ratio=1.0, iterations=0),
            TrialRecord(n=MAX_EDGE_LIST_VERTICES, p=1.0, lam=0.0, algorithm="ppa",
                        trial_index=3, recovery_fraction=0.0, exact=False,
                        matched_edges=0, objective=-2.5, objective_ratio=0.0,
                        iterations=0),
        ]
        sink = io.StringIO()
        write_csv(records, sink)
        assert read_csv(io.StringIO(sink.getvalue())) == records


class TestHeatmap:
    def _summary(self):
        cells = []
        for lam, recovery in ((0.0, 1.0), (0.5, 0.0)):
            for n, bump in ((10, 0.0), (20, 0.0)):
                cells.append(CellSummary(n=n, lam=lam, algorithm="ppa",
                                         mean_recovery=recovery + bump,
                                         mean_objective_ratio=1.0, exact_rate=0.0,
                                         mean_iterations=1.0, trials=1, failures=0))
        return cells

    def test_endpoint_gray_levels(self):
        sink = io.StringIO()
        render_heatmap(self._summary(), sink, "ppa")
        lines = [line for line in sink.getvalue().splitlines()
                 if not line.startswith("#")]
        assert lines[0] == "P2"
        assert lines[1] == "2 2"   # two n columns, two lambda rows
        assert lines[2] == "255"
        assert lines[3].split() == ["255", "255"]  # lambda=0 row: recovery 1.0
        assert lines[4].split() == ["0", "0"]      # lambda=0.5 row: recovery 0.0

    def test_log_scale_mapping(self):
        cells = [CellSummary(n=10, lam=0.0, algorithm="ppa", mean_recovery=1 / 9,
                             mean_objective_ratio=1.0, exact_rate=0.0,
                             mean_iterations=1.0, trials=1, failures=0)]
        sink = io.StringIO()
        render_heatmap(cells, sink, "ppa", log_scale=True)
        raster = [line for line in sink.getvalue().splitlines()
                  if not line.startswith(("P2", "#"))][2]
        # log10(1 + 9/9) = log10(2): gray = round(255 * 0.30103) = 77
        assert raster.split() == ["77"]

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="no summary cells"):
            render_heatmap(self._summary(), io.StringIO(), "eigenalign")

    def test_legend_contents(self):
        sink = io.StringIO()
        write_heatmap_legend(self._summary(), sink, "ppa")
        text = sink.getvalue()
        assert "columns (n): 10 20" in text
        assert "rows (lambda): 0 0.5" in text
        assert "lambda=0: 1 1" in text

    def test_ragged_grid_rejected(self):
        cells = self._summary()[:3]
        with pytest.raises(ValueError, match="ragged"):
            render_heatmap(cells, io.StringIO(), "ppa")

    def test_ragged_grid_rejected_by_legend(self):
        cells = self._summary()[:3]
        with pytest.raises(ValueError, match="ragged"):
            write_heatmap_legend(cells, io.StringIO(), "ppa")
