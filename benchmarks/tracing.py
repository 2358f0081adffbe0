"""In-memory span recorder installed around the public names of `netalign`.

The library's modules import each other by name (`from .rounding import
greedy_round`), so a span is installed in every namespace where a name is
looked up, not only in the defining module. `Tracer.install` swaps each
target for a recording wrapper and `Tracer.uninstall` restores the originals.

A span is (name, start, end, parent, op, info). Spans are recorded only while
an op is open (`Tracer.op`), so calls the benchmark makes for its own checks
leave no trace; a tracer that never opens an op only hands each return value
to `on_return`. Self time is a span's duration minus the union of the
intervals of its direct children.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


def _eigen_info(result: Any) -> dict:
    return {"iterations": result.iterations, "residual": result.residual}


def _ppa_info(result: Any) -> dict:
    return {"steps": result.iterations, "converged": result.converged}


def span_targets(graphs, operator, align, harness) -> list[tuple]:
    """(owner, attribute, span name, info extractor) for every traced call site
    of the `netalign` modules passed in."""
    targets = [
        (harness, "make_instance", "graphs.make_instance", None),
        (align, "matched_edges", "graphs.matched_edges", None),
        (graphs, "parse_edge_list", "graphs.parse_edge_list", None),
        (align, "build_operator", "operator.build", None),
        (harness, "build_operator", "operator.build", None),
        (operator.AlignmentOperator, "apply", "operator.apply", None),
        (harness, "quadratic_form", "operator.quadratic_form", None),
        (align, "top_eigenvector", "spectral.top_eigenvector", _eigen_info),
        (align, "max_weight_matching", "rounding.max_weight_matching", None),
        (align, "greedy_round", "rounding.greedy_round", None),
        (align, "eigen_align", "align.eigen_align", None),
        (harness, "eigen_align", "align.eigen_align", None),
        (align, "projected_power_align", "align.ppa", _ppa_info),
        (harness, "projected_power_align", "align.ppa", _ppa_info),
        (harness, "run_trial", "harness.run_trial", None),
    ]
    targets += [(harness, fn, "harness.serialize", None)
                for fn in ("write_csv", "summarize", "render_heatmap", "write_heatmap_legend")]
    return targets


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | str
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    op: int | str | None = None
    on_return: Callable[[str, Any], None] | None = None
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def _wrap(self, name: str, fn: Callable, info: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                out = fn(*args, **kwargs)
            else:
                span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
                self._stack.append(len(self.spans))
                self.spans.append(span)
                span.start = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    self._stack.pop()
                if info is not None:
                    span.info = info(out)
            if self.on_return is not None:
                self.on_return(name, out)
            return out
        return traced

    def install(self, targets) -> None:
        for owner, attr, name, info in targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, info))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def root(self, name: str, op: int | str):
        """Open op `op` and record its root span `name` around the block."""
        span = Span(name, 0.0, 0.0, None, op)
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.op = None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(idx, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.duration - covered)
    return out
