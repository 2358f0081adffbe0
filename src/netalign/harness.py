"""Planted-instance trials, grid sweeps, and result serialization.

A trial draws G1 ~ ER(n, p), flips each pair with probability lambda, relabels
by a hidden uniform permutation, runs one matcher, and scores the per-vertex
recovery of the hidden permutation. Random streams for (graph, noise,
permutation) are derived from the trial coordinates alone - never from the
algorithm - so every matcher faces the identical instance, and every record
is a pure function of its spec regardless of scheduling or worker count.

A sweep runs the algorithms of one (n, lambda, trial) cell back to back, and
`make_instance` keeps the last instance, so each cell draws it once (up to
n = 50 its matchers also share one eigenvector, see `netalign.align`).

Serialization: CSV with the fixed header

    n,p,lambda,algorithm,trial,recovery_fraction,exact,matched_edges,objective,objective_ratio,iterations,wall_seconds

rows sorted by (n, lambda, algorithm, trial), reals at 6 significant digits;
heatmaps as plain-text PGM (P2) with one row per lambda, one column per n,
gray = round(255 * mean recovery) (optionally log-compressed as
round(255 * log10(1 + 9r))), plus a sidecar text legend.

The wall_seconds column is reserved and always 0: a measured timing would
break the bit-reproducibility contract of sweep outputs. Timings are
reported on stderr by the CLI instead.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import IO

from .align import (AlignConfig, AlignmentResult, eigen_align,
                    projected_power_align)
from .graphs import (MAX_EDGE_LIST_VERTICES, Graph, Permutation, RngSeed,
                     _is_number, apply_noise, generate_er, matched_edges, permute,
                     random_permutation)
from .operator import (DegenerateBalanceError, compute_alpha, make_params,
                       permutation_objective)
# Not called here any more; they stay names of this module because the
# benchmark's tracer (benchmarks/tracing.py) wraps them by name.
from .align import build_operator  # noqa: F401
from .operator import quadratic_form  # noqa: F401

__all__ = [
    "ALGORITHMS",
    "TrialSpec",
    "TrialRecord",
    "GridSpec",
    "CellSummary",
    "derive_stream",
    "run_trial",
    "run_grid",
    "pool_size",
    "summarize",
    "write_csv",
    "read_csv",
    "render_heatmap",
    "write_heatmap_legend",
    "CSV_HEADER",
]

ALGORITHMS = ("eigenalign", "ppa")

CSV_HEADER = ("n,p,lambda,algorithm,trial,recovery_fraction,exact,matched_edges,"
              "objective,objective_ratio,iterations,wall_seconds")

_MASK64 = (1 << 64) - 1
# splitmix64 finalizer constants; fixed so derived streams never change.
_MIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB

# Purpose tags folded into per-trial stream derivation.
STREAM_GRAPH = 1
STREAM_NOISE = 2
STREAM_PERM = 3


def _splitmix64(x: int) -> int:
    x = (x + _MIX_GAMMA) & _MASK64
    x ^= x >> 30
    x = (x * _MIX_M1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX_M2) & _MASK64
    return x ^ (x >> 31)


def mix64(*values: int) -> int:
    """Fold integers into one 64-bit stream id via iterated splitmix64."""
    acc = 0
    for v in values:
        acc = _splitmix64(acc ^ (int(v) & _MASK64))
    return acc


def derive_stream(base_seed: int, n: int, p: float, lam: float,
                  trial_index: int, purpose: int) -> RngSeed:
    """Stream for one purpose of one trial; independent of the algorithm."""
    return _purpose_stream(base_seed, _cell_prefix(base_seed, n, p, lam, trial_index),
                           purpose)


def _cell_prefix(base_seed: int, n: int, p: float, lam: float, trial_index: int) -> int:
    """`mix64` of a trial's coordinates, the part its streams share."""
    return mix64(base_seed, n, round(p * 1_000_000), round(lam * 1_000_000), trial_index)


def _purpose_stream(base_seed: int, prefix: int, purpose: int) -> RngSeed:
    """The stream of one purpose of the trial whose coordinates fold to
    `prefix`: its id is mix64 of the coordinates and the purpose."""
    return RngSeed(base_seed, _splitmix64(prefix ^ purpose))


def _check_ranges(n_list: Sequence[int], p: float, lambda_list: Sequence[float],
                  base_seed: int = 0) -> None:
    """Range checks shared by one trial, a whole grid of them and a parsed record."""
    for n in n_list:
        if not _is_number(n, numbers.Integral):
            raise ValueError(f"n must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        if n > MAX_EDGE_LIST_VERTICES:
            raise ValueError(f"n must be at most {MAX_EDGE_LIST_VERTICES}, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    for lam in lambda_list:
        if not (0.0 <= lam <= 1.0):
            raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if not (_is_number(base_seed, numbers.Integral) and 0 <= base_seed <= _MASK64):
        raise ValueError("base_seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class TrialSpec:
    n: int
    p: float
    lam: float
    trial_index: int
    base_seed: int
    algorithm: str
    cfg: AlignConfig = AlignConfig()

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        _check_ranges((self.n,), self.p, (self.lam,), self.base_seed)
        if not _is_number(self.trial_index, numbers.Integral):
            raise ValueError(f"trial_index must be an integer, got {self.trial_index!r}")
        if self.trial_index < 0:
            raise ValueError(f"trial_index must be nonnegative, got {self.trial_index}")


@dataclass(frozen=True)
class TrialRecord:
    n: int
    p: float
    lam: float
    algorithm: str
    trial_index: int
    recovery_fraction: float
    exact: bool
    matched_edges: int
    objective: float
    objective_ratio: float
    iterations: int
    wall_seconds: float = 0.0  # reserved; kept 0 so sweep outputs are reproducible
    failure: str | None = None  # degenerate trials are recorded, not dropped

    def sort_key(self) -> tuple:
        return (self.n, self.lam, self.algorithm, self.trial_index)


def _round6(x: float) -> float:
    """Quantize to the 6-significant-digit CSV precision so records round-trip."""
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.6g}")


@functools.lru_cache(maxsize=1)
def make_instance(n: int, p: float, lam: float, trial_index: int,
                  base_seed: int) -> tuple[Graph, Graph, Permutation]:
    """Planted instance (G1, G2, hidden permutation) for one trial cell; the
    last one is kept."""
    # derive_stream's three seeds, with the trial coordinates folded once.
    prefix = _cell_prefix(base_seed, n, p, lam, trial_index)
    g1 = generate_er(n, p, _purpose_stream(base_seed, prefix, STREAM_GRAPH))
    noisy = apply_noise(g1, lam, _purpose_stream(base_seed, prefix, STREAM_NOISE))
    planted = random_permutation(n, _purpose_stream(base_seed, prefix, STREAM_PERM))
    g2 = permute(noisy, planted)
    return g1, g2, planted


def _run_algorithm(name: str, g1: Graph, g2: Graph, cfg: AlignConfig) -> AlignmentResult:
    if name == "eigenalign":
        return eigen_align(g1, g2, cfg)
    return projected_power_align(g1, g2, cfg)


def run_trial(spec: TrialSpec) -> TrialRecord:
    """Run one planted trial; deterministic given the spec."""
    g1, g2, planted = make_instance(spec.n, spec.p, spec.lam, spec.trial_index,
                                    spec.base_seed)
    record = functools.partial(TrialRecord, n=spec.n, p=spec.p, lam=spec.lam,
                               algorithm=spec.algorithm, trial_index=spec.trial_index)
    if spec.n == 1:
        # Single vertex: the unique bijection is trivially correct, but the
        # scoring balance is degenerate, so the pipelines are bypassed.
        return record(recovery_fraction=1.0, exact=True, matched_edges=0, objective=0.0,
                      objective_ratio=1.0, iterations=0)
    try:
        result = _run_algorithm(spec.algorithm, g1, g2, spec.cfg)
        params = make_params(compute_alpha(g1, g2), spec.cfg.epsilon)
    except DegenerateBalanceError as err:
        return record(recovery_fraction=0.0, exact=False, matched_edges=0, objective=0.0,
                      objective_ratio=0.0, iterations=0, failure=str(err))
    planted_objective = permutation_objective(
        params, g1.edge_count, g2.edge_count, spec.n, matched_edges(g1, g2, planted))
    hits = int((result.permutation.map == planted.map).sum())
    return record(recovery_fraction=_round6(hits / spec.n), exact=(hits == spec.n),
                  matched_edges=result.matched_edges, objective=_round6(result.objective),
                  objective_ratio=_round6(result.objective / planted_objective),
                  iterations=result.iterations)


@dataclass(frozen=True)
class GridSpec:
    n_list: tuple[int, ...]
    lambda_list: tuple[float, ...]
    p: float
    trials: int = 20
    algorithms: tuple[str, ...] = ALGORITHMS
    base_seed: int = 0
    cfg: AlignConfig = AlignConfig()

    def __post_init__(self) -> None:
        if not self.n_list or not self.lambda_list:
            raise ValueError("n and lambda grids must be non-empty")
        if not _is_number(self.trials, numbers.Integral) or self.trials < 1:
            raise ValueError(f"trials must be an integer of at least 1, got {self.trials!r}")
        bad = [a for a in self.algorithms if a not in ALGORITHMS]
        if bad or not self.algorithms:
            raise ValueError(f"algorithms must be a non-empty subset of {ALGORITHMS}")
        _check_ranges(self.n_list, self.p, self.lambda_list, self.base_seed)

    def specs(self) -> list[TrialSpec]:
        return [
            TrialSpec(n=n, p=self.p, lam=lam, trial_index=t,
                      base_seed=self.base_seed, algorithm=algo, cfg=self.cfg)
            for n in self.n_list
            for lam in self.lambda_list
            for t in range(self.trials)
            for algo in self.algorithms
        ]


# Trials per task handed to a worker process. A multiple of len(ALGORITHMS),
# so a chunk never splits the algorithms of one cell and they share its instance.
_CHUNK_SIZE = 8


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(trials: int, workers: int) -> int:
    """The processes `run_grid` runs `trials` trials on when asked for
    `workers`: at most one per chunk of trials and per available CPU. At 1
    the trials run in the calling process."""
    return min(workers, -(-trials // _CHUNK_SIZE), _available_cpus())


def run_grid(grid: GridSpec, workers: int = 1) -> list[TrialRecord]:
    """One record per (n, lambda, trial, algorithm), sorted by record key.

    Trials are independent; `workers` > 1 fans them out over
    `pool_size(trials, workers)` processes (the pool starts all of them up
    front). The returned records are identical for any worker count.
    """
    specs = grid.specs()
    workers = pool_size(len(specs), workers)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_trial, specs, chunksize=_CHUNK_SIZE))
    else:
        records = [run_trial(spec) for spec in specs]
    records.sort(key=TrialRecord.sort_key)
    return records


@dataclass(frozen=True)
class CellSummary:
    n: int
    lam: float
    algorithm: str
    mean_recovery: float
    mean_objective_ratio: float
    exact_rate: float
    mean_iterations: float
    trials: int
    failures: int


def summarize(records: Sequence[TrialRecord]) -> list[CellSummary]:
    """Per-(n, lambda, algorithm) means, sorted by cell key."""
    if not records:
        raise ValueError("no records to summarize")
    cells: dict[tuple, list[TrialRecord]] = {}
    for rec in records:
        cells.setdefault((rec.n, rec.lam, rec.algorithm), []).append(rec)
    out = []
    for (n, lam, algo), recs in sorted(cells.items()):
        k = len(recs)
        out.append(CellSummary(
            n=n, lam=lam, algorithm=algo,
            mean_recovery=sum(r.recovery_fraction for r in recs) / k,
            mean_objective_ratio=sum(r.objective_ratio for r in recs) / k,
            exact_rate=sum(1 for r in recs if r.exact) / k,
            mean_iterations=sum(r.iterations for r in recs) / k,
            trials=k,
            failures=sum(1 for r in recs if r.failure is not None),
        ))
    return out


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def write_csv(records: Sequence[TrialRecord], sink: IO[str]) -> None:
    """Serialize records in the pinned CSV schema (sorted, 6 significant digits)."""
    if not records:
        raise ValueError("no records to write")
    sink.write(CSV_HEADER + "\n")
    for r in sorted(records, key=TrialRecord.sort_key):
        sink.write(",".join([
            str(r.n), _fmt(r.p), _fmt(r.lam), r.algorithm, str(r.trial_index),
            _fmt(r.recovery_fraction), "1" if r.exact else "0",
            str(r.matched_edges), _fmt(r.objective), _fmt(r.objective_ratio),
            str(r.iterations), _fmt(r.wall_seconds),
        ]) + "\n")


def read_csv(source: IO[str]) -> list[TrialRecord]:
    """Parse the CSV format written by `write_csv`; a malformed row raises
    ValueError naming its line."""
    header = source.readline().rstrip("\n")
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {header!r}")
    records = []
    for lineno, line in enumerate(source, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 12:
            raise ValueError(f"line {lineno}: expected 12 fields, got {len(parts)}")
        if parts[3] not in ALGORITHMS:
            raise ValueError(f"line {lineno}: algorithm must be one of {ALGORITHMS}, "
                             f"got {parts[3]!r}")
        if parts[6] not in ("0", "1"):
            raise ValueError(f"line {lineno}: exact must be 0 or 1, got {parts[6]!r}")
        try:
            record = TrialRecord(
                n=int(parts[0]), p=float(parts[1]), lam=float(parts[2]),
                algorithm=parts[3], trial_index=int(parts[4]),
                recovery_fraction=float(parts[5]), exact=parts[6] == "1",
                matched_edges=int(parts[7]), objective=float(parts[8]),
                objective_ratio=float(parts[9]), iterations=int(parts[10]),
                wall_seconds=float(parts[11]),
            )
            _check_record_ranges(record)
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
        records.append(record)
    return records


def _check_record_ranges(r: TrialRecord) -> None:
    """Ranges a record written by `write_csv` always satisfies."""
    _check_ranges((r.n,), r.p, (r.lam,))
    for name in ("trial_index", "matched_edges", "iterations"):
        if getattr(r, name) < 0:
            raise ValueError(f"{name} must be nonnegative, got {getattr(r, name)}")
    if not (0.0 <= r.recovery_fraction <= 1.0):
        raise ValueError(f"recovery_fraction must lie in [0, 1], got {r.recovery_fraction}")
    for name in ("objective", "objective_ratio"):
        if not math.isfinite(getattr(r, name)):
            raise ValueError(f"{name} must be finite, got {getattr(r, name)}")


def _gray_level(recovery: float, log_scale: bool) -> int:
    if log_scale:
        return round(255 * math.log10(1.0 + 9.0 * recovery))
    return round(255 * recovery)


def _recovery_grid(summary: Sequence[CellSummary], algorithm: str
                   ) -> tuple[list[int], list[float], list[list[float]]]:
    """The n axis, the lambda axis and the mean recoveries of one algorithm's
    cells, one row per lambda; every (n, lambda) cell must be present."""
    cells = [c for c in summary if c.algorithm == algorithm]
    if not cells:
        raise ValueError(f"no summary cells for algorithm {algorithm!r}")
    n_values = sorted({c.n for c in cells})
    lam_values = sorted({c.lam for c in cells})
    lookup = {(c.n, c.lam): c.mean_recovery for c in cells}
    rows = []
    for lam in lam_values:
        row = []
        for n in n_values:
            if (n, lam) not in lookup:
                raise ValueError(f"summary grid is ragged: missing cell (n={n}, lambda={lam})")
            row.append(lookup[(n, lam)])
        rows.append(row)
    return n_values, lam_values, rows


def render_heatmap(summary: Sequence[CellSummary], sink: IO[str], algorithm: str,
                   log_scale: bool = False) -> None:
    """Plain-text PGM (P2): rows = lambda grid, columns = n grid, gray 0..255."""
    n_values, lam_values, rows = _recovery_grid(summary, algorithm)
    sink.write("P2\n")
    sink.write(f"# mean recovery heatmap: algorithm={algorithm} "
               f"scale={'log10(1+9r)' if log_scale else 'linear'}\n")
    sink.write(f"{len(n_values)} {len(lam_values)}\n255\n")
    for row in rows:
        sink.write(" ".join(str(_gray_level(r, log_scale)) for r in row) + "\n")


def write_heatmap_legend(summary: Sequence[CellSummary], sink: IO[str],
                         algorithm: str, log_scale: bool = False) -> None:
    """Sidecar legend: axes, gray mapping, and the per-cell mean recoveries."""
    n_values, lam_values, rows = _recovery_grid(summary, algorithm)
    sink.write(f"algorithm: {algorithm}\n")
    sink.write(f"gray mapping: {'round(255*log10(1+9r))' if log_scale else 'round(255*r)'}\n")
    sink.write(f"columns (n): {' '.join(str(n) for n in n_values)}\n")
    sink.write(f"rows (lambda): {' '.join(_fmt(l) for l in lam_values)}\n")
    for lam, row in zip(lam_values, rows):
        sink.write(f"lambda={_fmt(lam)}: {' '.join(_fmt(r) for r in row)}\n")
