"""Checks of the library's results that do not call the library.

Every quantity is recounted from the planted instance's edge sets with plain
Python sets and the closed-form objective: for any permutation,

    y^T A y = s1*M + s3*(E1 + E2 - 2M) + s2*(n^2 - E1 - E2 + M),

where M, E1 and E2 are ordered counts (twice the unordered matched-edge and
edge counts), s1 = alpha + eps, s2 = 1 + eps, s3 = eps and
alpha = 1 + E1*E2 / (E1*(n^2 - E2) + (n^2 - E1)*E2).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

OBJECTIVE_RTOL = 1e-9
CSV_RTOL = 1e-5  # the CSV keeps 6 significant digits


@dataclass(frozen=True)
class Instance:
    """A planted pair as plain data: n, both edge sets and the hidden map."""

    n: int
    edges1: frozenset
    edges2: frozenset
    planted: tuple[int, ...]

    @classmethod
    def from_adjacency(cls, adj1, adj2, planted_map) -> "Instance":
        return cls(len(adj1), _edge_set(adj1), _edge_set(adj2),
                   tuple(int(x) for x in planted_map))

    def matched(self, mapping) -> int:
        return sum(1 for i, j in self.edges1
                   if _ordered(mapping[i], mapping[j]) in self.edges2)

    def objective(self, matched: int, epsilon: float) -> float:
        n2 = self.n * self.n
        e1, e2, m = 2 * len(self.edges1), 2 * len(self.edges2), 2 * matched
        alpha = 1.0 + e1 * e2 / (e1 * (n2 - e2) + (n2 - e1) * e2)
        s1, s2, s3 = alpha + epsilon, 1.0 + epsilon, epsilon
        return s1 * m + s3 * (e1 + e2 - 2 * m) + s2 * (n2 - e1 - e2 + m)

    def hits(self, mapping) -> int:
        return sum(1 for a, b in zip(mapping, self.planted) if a == b)


def _ordered(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _edge_set(adj) -> frozenset:
    rows, cols = np.nonzero(np.triu(np.asarray(adj, dtype=bool), 1))
    return frozenset(zip(rows.tolist(), cols.tolist()))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_alignment(inst: Instance, result, epsilon: float) -> list[str]:
    """Problems with one AlignmentResult on `inst`; empty when all checks pass."""
    mapping = [int(x) for x in result.permutation.map]
    if sorted(mapping) != list(range(inst.n)):
        return ["permutation is not a bijection"]
    problems = []
    matched = inst.matched(mapping)
    if result.matched_edges != matched:
        problems.append(f"matched_edges {result.matched_edges} != recount {matched}")
    expected = inst.objective(matched, epsilon)
    if not _close(result.objective, expected, OBJECTIVE_RTOL):
        problems.append(f"objective {result.objective!r} != closed form {expected!r}")
    return problems


def check_record(inst: Instance, record, result, epsilon: float) -> list[str]:
    """Problems with one TrialRecord, given the AlignmentResult it came from."""
    if record.failure is not None:
        return [f"trial failed: {record.failure}"]
    problems = check_alignment(inst, result, epsilon)
    mapping = [int(x) for x in result.permutation.map]
    hits = inst.hits(mapping)
    planted_obj = inst.objective(inst.matched(list(inst.planted)), epsilon)
    expected = {
        "recovery_fraction": hits / inst.n,
        "objective": result.objective,
        "objective_ratio": result.objective / planted_obj,
    }
    for name, value in expected.items():
        if not _close(getattr(record, name), value, CSV_RTOL):
            problems.append(f"{name} {getattr(record, name)!r} != recount {value!r}")
    if record.exact != (hits == inst.n):
        problems.append("exact flag disagrees with recovery recount")
    if record.matched_edges != result.matched_edges:
        problems.append("record matched_edges differs from the alignment result")
    if record.iterations != result.iterations:
        problems.append("record iterations differ from the alignment result")
    return problems


def check_csv(text: str, records) -> list[str]:
    """The serialized sweep has one row per record, in key order, with its values."""
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    ordered = sorted(records, key=lambda r: (r.n, r.lam, r.algorithm, r.trial_index))
    if len(rows) != len(ordered):
        return [f"CSV has {len(rows)} rows for {len(ordered)} records"]
    for row, rec in zip(rows, ordered):
        if (int(row[0]), float(row[2]), row[3], int(row[4])) != \
                (rec.n, rec.lam, rec.algorithm, rec.trial_index) or \
                int(row[7]) != rec.matched_edges or \
                not _close(float(row[5]), rec.recovery_fraction, CSV_RTOL):
            return [f"CSV row {row} does not match record {rec}"]
    return []


def check_summary(summary, records) -> list[str]:
    """Per-cell mean recovery over the records, recomputed."""
    cells: dict[tuple, list] = {}
    for r in records:
        cells.setdefault((r.n, r.lam, r.algorithm), []).append(r)
    if len(summary) != len(cells):
        return [f"summary has {len(summary)} cells, records give {len(cells)}"]
    for cell in summary:
        recs = cells[(cell.n, cell.lam, cell.algorithm)]
        mean = sum(r.recovery_fraction for r in recs) / len(recs)
        if not _close(cell.mean_recovery, mean, 1e-12):
            return [f"cell ({cell.n}, {cell.lam}, {cell.algorithm}) mean recovery "
                    f"{cell.mean_recovery} != {mean}"]
    return []


def fingerprint(results) -> str:
    """Hash of every returned permutation and its matched-edge count, in order."""
    h = hashlib.sha256()
    for res in results:
        h.update(np.asarray(res.permutation.map, dtype="<i8").tobytes())
        h.update(str(int(res.matched_edges)).encode())
    return h.hexdigest()[:16]
