import hashlib
import io

import numpy as np
import pytest

import netalign.align as align
import netalign.harness as harness
import netalign.operator as operator
from netalign.align import build_operator, eigen_align, projected_power_align
from netalign.graphs import MAX_EDGE_LIST_VERTICES
from netalign.harness import (ALGORITHMS, CSV_HEADER, CellSummary, GridSpec,
                              TrialRecord, TrialSpec, derive_stream,
                              make_instance, mix64, read_csv, render_heatmap,
                              run_grid, run_trial, summarize, write_csv,
                              write_heatmap_legend, STREAM_GRAPH, STREAM_NOISE,
                              STREAM_PERM)
from netalign.operator import quadratic_form
from netalign.rounding import max_weight_matching
from netalign.spectral import top_eigenvector

import oracles

# The grid of `test_sweep_bytes_pinned`.
PINNED_GRID = GridSpec(n_list=(10, 20, 30),
                       lambda_list=(0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
                       p=0.2, trials=3, base_seed=3)


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

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_one_operator_per_trial(self, monkeypatch, algorithm):
        # The planted permutation is scored in closed form, so the matcher's
        # operator is the only one built.
        built = []
        real = align.build_operator

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(align, "build_operator", counting)
        monkeypatch.setattr(harness, "build_operator", counting)
        rec = run_trial(TrialSpec(n=9, p=0.4, lam=0.1, trial_index=6, base_seed=13,
                                  algorithm=algorithm))
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
        # permutations differ from the sparse product's they tie (next test).
        sink = io.StringIO()
        write_csv(run_grid(PINNED_GRID), sink)
        assert hashlib.sha256(sink.getvalue().encode()).hexdigest() == (
            "70ed35506b0cc56cd27f4ad5629f2a1961949daf20c72e7d209983693a9f56d5")

    def test_dense_product_moves_only_tied_eigenalign_permutations(self, monkeypatch):
        # EigenAlign on the pinned grid with the dense and the sparse product:
        # wherever the two permutations differ, they score within 4 ulps of
        # each other on the exact top eigenvector (oracle), i.e. they tie.
        changed = 0
        for n in PINNED_GRID.n_list:
            for lam in PINNED_GRID.lambda_list:
                for trial in range(PINNED_GRID.trials):
                    g1, g2, _ = make_instance(n, PINNED_GRID.p, lam, trial,
                                              PINNED_GRID.base_seed)
                    perms = []
                    for dense_max_n in (operator.DENSE_MAX_N, 0):
                        with monkeypatch.context() as patch:
                            patch.setattr(operator, "DENSE_MAX_N", dense_max_n)
                            op = build_operator(g1, g2)
                        assert op._dense == (dense_max_n > 0)
                        vector = top_eigenvector(op).vector.reshape(n, n)
                        perms.append(max_weight_matching(vector).map)
                    if np.array_equal(*perms):
                        continue
                    changed += 1
                    p = op.params
                    _, exact = oracles.top_eigenpair_closed_form(
                        g1.adjacency, g2.adjacency, p.s1, p.s2, p.s3)
                    scores = [oracles.assignment_score(exact, m) for m in perms]
                    assert abs(scores[0] - scores[1]) <= 4 * np.spacing(max(scores)), \
                        (n, lam, trial)
        assert changed >= 1  # rounding differs somewhere on a grid this tie-heavy

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
