"""The benchmark's workloads: inputs made from the seed, measured ops, checks.

Each workload draws its inputs from `netalign.harness.make_instance`; the
library sees only the generated graphs (or their edge-list text). One call of
`run_unit` does one unit of measured work and checks every result with
`oracle`, outside the timed regions.

- sweep-small: the reduced default sweep, n in {10..50}, p=0.2, 11 noise
  levels, 4 trials, both algorithms (440 `run_trial` calls), then CSV,
  summary and heatmaps. Per-call Python overhead dominates at these sizes.
- pair-dense: one planted pair with n=400, p=0.2, lambda=0.05, matched by
  `eigen_align` and by `projected_power_align`. PPA runs its capped steps of
  greedy projection and operator apply in the dense regime. It reproduces
  the per-layer table of ROADMAP.md but is not listed in BENCHMARK.json: the
  time budget of the gated runs goes to longer runs of the other two.
- match-sparse: the `netalign match --algo eigenalign` path at n=600,
  p=0.0125 (mean degree 7.5), lambda=0.001: `parse_edge_list` twice, then
  `eigen_align`. Exact assignment dominates (65-75%), the eigen stage comes
  next (about 20%), `apply` runs on the sparse path and greedy projection
  never runs. At 0.4 s an op is short enough for the speed probe around it
  to see the CPU speed it ran at (`speed.py`).

Every timed op is recorded in a `SpeedClock` under a kind ("op" for the
workload's op, "eigen" for its EigenAlign part, "ppa" and "serialize") and
a key that tells the ops of one unit apart (the trial's place in the sweep).
"""

from __future__ import annotations

import io
import statistics
import time
from dataclasses import dataclass, field

import netalign.align as na
import netalign.graphs as ng
import netalign.harness as nh

from oracle import (Instance, check_alignment, check_csv, check_record,
                    check_summary, fingerprint)
from tracing import Tracer

EPSILON = na.AlignConfig().epsilon
SWEEP_LAMBDAS = tuple(round(0.05 * k, 2) for k in range(11))


@dataclass
class Unit:
    """Results and check outcomes of one unit of measured work."""

    results: list = field(default_factory=list)             # AlignmentResults, in order
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    samples: dict = field(default_factory=dict)             # named per-op samples

    @property
    def fingerprint(self) -> str:
        return fingerprint(self.results)


def timed(tracer, name: str, op, fn, *args):
    """Call fn(*args); return (result, seconds). Traced runs record a root span."""
    if tracer is None:
        start = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - start
    with tracer.root(name, op) as span:
        out = fn(*args)
    return out, span.duration


class Workload:
    name = ""
    op_label = ""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self._next_op = 0

    def op_id(self) -> int:
        self._next_op += 1
        return self._next_op

    def setup(self) -> None:
        """Input generation plus a warm-up that leaves lazy state initialized."""
        self.generate()
        self.warm_up()

    def generate(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        g1, g2, _ = nh.make_instance(12, 0.3, 0.05, 0, self.seed)
        na.eigen_align(g1, g2)
        na.projected_power_align(ng.Graph(g1.adjacency), ng.Graph(g2.adjacency))

    def run_unit(self, clock, tracer) -> Unit:
        raise NotImplementedError

    def oracle(self) -> Instance:
        """The planted pair as plain data, for pair workloads (built once)."""
        if not hasattr(self, "_inst"):
            self._inst = Instance.from_adjacency(*self.adj, self.planted)
        return self._inst

    def report(self, clock, units: list[Unit]) -> list[tuple[str, float, str]]:
        raise NotImplementedError


def median_s(clock, kind: str) -> float:
    return statistics.median(clock.typical(kind))


def _capped(results) -> tuple[int, int]:
    ppa = [r for r in results if r.trajectory is not None]
    return sum(1 for r in ppa if not r.converged), len(ppa)


class SweepSmall(Workload):
    name = "sweep-small"
    op_label = "trial"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.grid_args = dict(
            n_list=(10, 20) if smoke else (10, 20, 30, 40, 50),
            lambda_list=(0.0, 0.25) if smoke else SWEEP_LAMBDAS,
            p=0.2, trials=1 if smoke else 4, base_seed=seed)
        self._instances: dict[tuple, Instance] = {}

    def generate(self):
        self.specs = nh.GridSpec(**self.grid_args).specs()

    def warm_up(self):
        specs = nh.GridSpec(n_list=(8,), lambda_list=(0.05,), p=0.3, trials=1,
                            base_seed=self.seed).specs()
        records = [nh.run_trial(spec) for spec in specs]
        self._serialize(records)

    def _serialize(self, records):
        csv, pgm = io.StringIO(), io.StringIO()
        nh.write_csv(records, csv)
        summary = nh.summarize(records)
        for algo in nh.ALGORITHMS:
            nh.render_heatmap(summary, pgm, algo)
            nh.write_heatmap_legend(summary, io.StringIO(), algo)
        return csv.getvalue(), summary, pgm.getvalue()

    def _instance(self, spec) -> Instance:
        key = (spec.n, spec.lam, spec.trial_index)
        if key not in self._instances:
            g1, g2, planted = nh.make_instance(spec.n, spec.p, spec.lam,
                                               spec.trial_index, spec.base_seed)
            self._instances[key] = Instance.from_adjacency(g1.adjacency, g2.adjacency,
                                                           planted.map)
        return self._instances[key]

    def run_unit(self, clock, tracer) -> Unit:
        unit = Unit()
        records, results, returned = [], [], []
        # run_trial keeps no AlignmentResult; catch the ones its matchers return.
        capture = Tracer(on_return=lambda name, out: returned.append(out))
        capture.install([(nh, name, name, None)
                         for name in ("eigen_align", "projected_power_align")])
        try:
            for key, spec in enumerate(self.specs):
                before = len(returned)
                clock.tick()
                rec, seconds = timed(tracer, "bench.trial", self.op_id(), nh.run_trial, spec)
                records.append(rec)
                results.append(returned[-1] if len(returned) > before else None)
                clock.add("op", seconds, key)
                if spec.algorithm == "eigenalign":
                    clock.add("eigen", seconds, key)
        finally:
            capture.uninstall()
        clock.tick()
        (csv, summary, pgm), seconds = timed(tracer, "bench.serialize", "serialize",
                                             self._serialize, records)
        clock.add("serialize", seconds)
        clock.close()
        for spec, rec, res in zip(self.specs, records, results):
            unit.attempted += 1
            problems = (check_record(self._instance(spec), rec, res, EPSILON) if res is not None
                        else [f"trial failed: {rec.failure}"])
            if problems:
                unit.failed += 1
                unit.problems += [f"{spec}: {p}" for p in problems]
        unit.problems += check_csv(csv, records) + check_summary(summary, records)
        unit.problems += self._check_heatmaps(pgm, summary)
        unit.results = [r for r in results if r is not None]
        unit.samples["records"] = records
        return unit

    def _check_heatmaps(self, pgm: str, summary) -> list[str]:
        lookup = {(c.n, c.lam, c.algorithm): c.mean_recovery for c in summary}
        n_list, lams = self.grid_args["n_list"], sorted(self.grid_args["lambda_list"])
        expected = []
        for algo in nh.ALGORITHMS:
            expected += ["P2", None, f"{len(n_list)} {len(lams)}", "255"]
            expected += [" ".join(str(round(255 * lookup[(n, lam, algo)])) for n in n_list)
                         for lam in lams]
        lines = pgm.splitlines()
        if len(lines) != len(expected) or any(
                e is not None and e != line for e, line in zip(expected, lines)):
            return ["heatmap does not match the recomputed cell means"]
        return []

    def report(self, clock, units):
        trials = clock.typical("op")
        sweep_s = sum(trials) + clock.typical("serialize")[0]
        records = [r for u in units for r in u.samples["records"]]
        ok = [r for r in records if r.failure is None]
        capped, ppa = _capped([r for u in units for r in u.results])
        out = [
            ("sweep_trials_per_s", len(trials) / sweep_s, "trials/s"),
            ("trial_ms_p50", 1000.0 * statistics.median(trials), "ms"),
            ("trial_ms_p95", 1000.0 * statistics.quantiles(trials, n=20)[-1], "ms"),
            ("trial_samples", len(trials), "count"),
            ("sweeps", len(units), "count"),
        ]
        for algo in nh.ALGORITHMS:
            mine = [r.recovery_fraction for r in ok if r.algorithm == algo]
            out.append((f"recovery.{algo}", sum(mine) / len(mine), "fraction"))
        out.append(("ppa_capped", capped / ppa, f"capped/{ppa}"))
        return out


class PairDense(Workload):
    name = "pair-dense"
    op_label = "pair"

    def generate(self):
        n, p, lam = (60, 0.2, 0.05) if self.smoke else (400, 0.2, 0.05)
        g1, g2, planted = nh.make_instance(n, p, lam, 0, self.seed)
        self.adj = (g1.adjacency, g2.adjacency)
        self.planted = planted.map
        self.edges1 = g1.edge_count

    def _fresh(self):
        return ng.Graph(self.adj[0]), ng.Graph(self.adj[1])

    def run_unit(self, clock, tracer) -> Unit:
        unit = Unit()
        op = self.op_id()
        clock.tick()
        eig, eig_s = timed(tracer, "bench.eigen_align", op, na.eigen_align, *self._fresh())
        ppa, ppa_s = timed(tracer, "bench.ppa", op, na.projected_power_align, *self._fresh())
        clock.add("op", eig_s + ppa_s)
        clock.add("eigen", eig_s)
        clock.add("ppa", ppa_s)
        clock.close()
        unit.results = [eig, ppa]
        inst = self.oracle()
        for res in unit.results:
            unit.attempted += 1
            problems = check_alignment(inst, res, EPSILON)
            unit.failed += bool(problems)
            unit.problems += problems
        return unit

    def report(self, clock, units):
        inst = self.oracle()
        eig, ppa = units[0].results
        capped, runs = _capped([r for u in units for r in u.results])
        return [
            ("eigenalign_s", median_s(clock, "eigen"), "s"),
            ("ppa_s", median_s(clock, "ppa"), "s"),
            ("pairs", len(units), "count"),
            ("matched_ratio.eigenalign", eig.matched_edges / self.edges1, "matched/e1"),
            ("matched_ratio.ppa", ppa.matched_edges / self.edges1, "matched/e1"),
            ("recovery.eigenalign", inst.hits(list(eig.permutation.map)) / inst.n, "fraction"),
            ("recovery.ppa", inst.hits(list(ppa.permutation.map)) / inst.n, "fraction"),
            ("ppa_capped", capped / runs, f"capped/{runs}"),
        ]


class MatchSparse(Workload):
    name = "match-sparse"
    op_label = "match"

    def generate(self):
        n, p, lam = (200, 0.02, 0.001) if self.smoke else (600, 0.0125, 0.001)
        g1, g2, planted = nh.make_instance(n, p, lam, 0, self.seed)
        self.texts = (ng.format_edge_list(g1), ng.format_edge_list(g2))
        self.adj = (g1.adjacency, g2.adjacency)
        self.planted = planted.map
        self.edges1 = g1.edge_count

    def warm_up(self):
        super().warm_up()
        ng.parse_edge_list("n 3\n0 1\n1 2\n")

    def _match(self):
        g1 = ng.parse_edge_list(self.texts[0])
        g2 = ng.parse_edge_list(self.texts[1])
        start = time.perf_counter()
        result = na.eigen_align(g1, g2)
        return result, time.perf_counter() - start

    def run_unit(self, clock, tracer) -> Unit:
        unit = Unit()
        clock.tick()
        (res, eig_s), seconds = timed(tracer, "bench.match", self.op_id(), self._match)
        clock.add("op", seconds)
        clock.add("eigen", eig_s)
        clock.close()
        unit.results = [res]
        unit.attempted = 1
        unit.problems = check_alignment(self.oracle(), res, EPSILON)
        unit.failed = int(bool(unit.problems))
        return unit

    def report(self, clock, units):
        res = units[0].results[0]
        return [
            ("match_s", median_s(clock, "op"), "s"),
            ("eigenalign_s", median_s(clock, "eigen"), "s"),
            ("matches", len(units), "count"),
            ("matched_ratio.eigenalign", res.matched_edges / self.edges1, "matched/e1"),
        ]


WORKLOADS = {w.name: w for w in (SweepSmall, PairDense, MatchSparse)}
